"""Run `python3 -m thetalab.cli ARGS` with speed marks, for the suite-cli workload.

    python3 perfbench/cli_launch.py verify suite --level quick

The CLI runs as `__main__` exactly as under `-m`, from the current
directory; a Speedometer (speed.py, interpreter kernel) marks the machine's
speed meanwhile, and the marks go to stderr as a last line `SPEED {json}`
when the process exits.
"""

import atexit
import json
import os
import runpy
import sys

from speed import Speedometer

speedo = Speedometer(("interp",))


@atexit.register
def _report() -> None:
    speedo.stop()
    sys.stderr.write("SPEED " + json.dumps(speedo.state()) + "\n")


speedo.start()
sys.path[0] = os.getcwd()  # as under `python3 -m`
sys.argv = ["thetalab.cli", *sys.argv[1:]]
runpy.run_module("thetalab.cli", run_name="__main__", alter_sys=True)
