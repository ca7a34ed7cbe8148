"""What a `thetalab` process imports: the package loads its submodules on
first access, and a CLI subcommand loads only the modules it uses.

Each run is a fresh child interpreter, since this test process has long
since imported everything."""

import json
import os
import subprocess
import sys

import pytest

import thetalab

SUBMODULES = (
    "congruence",
    "cyclo",
    "heisenberg",
    "metaplectic",
    "schrodinger",
    "symplectic4",
    "thetanum",
    "weilrep",
)

# what a trivial query must not pay for at start-up
HEAVY = (
    "numpy",
    "thetalab.heisenberg",
    "thetalab.schrodinger",
    "thetalab.suite",
    "thetalab.symplectic4",
    "thetalab.thetanum",
    "thetalab.weilrep",
)

CLI_CHILD = """
import json, sys
from thetalab.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def run_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(thetalab.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    (
        ("congruence", "member", "--group", "theta12", "--gamma", "0,-1,1,0"),
        ("congruence", "index", "--group", "gamma0", "--n", "4"),
        ("congruence", "des", "--m", "2", "--gamma", "1,1,4,5"),
        ("mp", "mul", "--left", "0,-1,1,0:+", "--right", "0,-1,1,0:+"),
        ("--help",),
    ),
)
def test_light_subcommands_import_no_heavy_module(argv):
    done = run_child(CLI_CHILD, *argv)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr.strip().splitlines()[-1])
    assert report["code"] == 0
    assert not set(HEAVY) & set(report["modules"])


def test_verify_suite_in_a_fresh_process_passes():
    done = run_child(CLI_CHILD, "verify", "suite", "--level", "quick")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.strip().splitlines()[-1])["code"] == 0
    assert json.loads(done.stdout)["pass"] is True


def test_full_verify_suite_does_not_load_numpy_ma():
    """Importing `numpy.ma` costs a process about 10 ms.  numpy 2.4's
    `np.unique` imports it (unless asked for `return_index`), so the battery
    finds duplicate ranks with a sort instead."""
    done = run_child(CLI_CHILD, "verify", "suite", "--level", "full")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stderr.strip().splitlines()[-1])
    assert report["code"] == 0 and json.loads(done.stdout)["pass"] is True
    assert "numpy" in report["modules"] and "numpy.ma" not in report["modules"]


def test_package_resolves_every_submodule():
    assert thetalab.heisenberg.__name__ == "thetalab.heisenberg"
    from thetalab import weilrep

    assert weilrep is sys.modules["thetalab.weilrep"]
    assert set(SUBMODULES) <= set(dir(thetalab))
    assert thetalab.__all__ == [*SUBMODULES, "__version__"]
    with pytest.raises(AttributeError, match="no_such_module"):
        thetalab.no_such_module  # noqa: B018


def test_version_is_read_without_numpy():
    done = run_child(
        "import sys, thetalab; print(thetalab.__version__, 'numpy' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [thetalab.__version__, "False"]
