"""What the benchmark (`perfbench/run.py`) reads from the library: the names
its traced run (`--trace 1`) wraps, and the results its gates expect.
`perfbench/` lies outside the test paths, so without these tests a renamed
function, a renamed suite check or an added one breaks only benchmark runs."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from test_imports import run_child
from thetalab import suite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py, loaded by file path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_are_functions_of_their_modules():
    """`tracing.instrument` wraps each listed name in a span; a generator
    function would close its span before the caller consumed it."""
    tracing = load_perfbench("tracing")
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"thetalab.{layer}")
        for name in names:
            # a cached function is a function behind its cache wrapper
            fn = inspect.unwrap(getattr(module, name, None))
            assert inspect.isfunction(fn), f"thetalab.{layer}.{name} is not a function"
            assert fn.__module__ == module.__name__, f"thetalab.{layer}.{name} is imported"
            assert not inspect.isgeneratorfunction(fn), f"thetalab.{layer}.{name} is a generator"


def test_cli_and_suite_imports_load_every_traced_layer():
    """A traced worker imports `thetalab.cli` and `thetalab.suite`, then
    `tracing.instrument` raises "thetalab.X is not imported" for any layer
    those imports left unloaded; the submodules load lazily, so this is
    checked in a fresh process."""
    tracing = load_perfbench("tracing")
    child = (
        "import sys, thetalab.cli, thetalab.suite; "
        "print(' '.join(l for l in sys.argv[1:] if f'thetalab.{l}' not in sys.modules))"
    )
    done = run_child(child, *tracing.LAYER_FUNCTIONS)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], "not loaded by the traced worker's imports"


# what `workloads.layer_samples` reads from the traced spans: for suite-cli,
# spans of these functions anywhere in a full suite run; for numeric-verify,
# spans of the metaplectic ones under `verify_transformation`
SUITE_SPANS = (
    "congruence.theta_action_factor",
    "congruence.splitting_action_factor",
    "thetanum.halfform_cocycle",
    "thetanum.shimura_cocycle",
    "_kernels.riemann_theta_sum",
    "symplectic4.discriminant",
    "metaplectic.mp_mul",
    "metaplectic.mp_from_word",
)
VERIFY_SPANS = (
    "metaplectic.mp_lift_word",
    "metaplectic.phi_eval",
    "metaplectic.mp_mul",
    "metaplectic.mp_from_word",
)
TRACED_SUITE_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import thetalab.cli, thetalab.suite
tracer = tracing.Tracer("contract")
tracing.instrument(tracer)
thetalab.suite.run_suite("full", 0)
suite_spans, verify_spans = sys.argv[2].split(","), sys.argv[3].split(",")
print(json.dumps({
    "suite": {n: len(tracer.spans(n)) for n in suite_spans},
    "verify": {
        n: len(tracer.spans(n, under="thetanum.verify_transformation")) for n in verify_spans
    },
}))
"""


def test_traced_full_suite_opens_every_span_the_benchmark_reads():
    """A function the traced run reads that the library stops calling (a hot
    loop moved onto integers, say) makes `run.py --trace 1` fail with "traced
    run did not yield ..."; here it fails a test instead.  The suite runs
    traced in a fresh process, as in the benchmark's traced worker."""
    done = run_child(
        TRACED_SUITE_CHILD, str(PERFBENCH), ",".join(SUITE_SPANS), ",".join(VERIFY_SPANS)
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    assert [n for n, k in counts["suite"].items() if k == 0] == []
    assert [n for n, k in counts["verify"].items() if k == 0] == []


TRACED_THETA_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import thetalab.cli, thetalab.suite
from thetalab import thetanum
tracer = tracing.Tracer("contract")
tracing.instrument(tracer)
for re in (0.3, 1023.999):
    with tracer.span("bench.theta.m6"):
        thetanum.theta_constants(6, complex(re, 0.12))
print(json.dumps({
    n: len(tracer.spans(n, under="bench.theta.m6"))
    for n in ("thetanum.theta_constants", "_kernels.theta_class_sums")
}))
"""


def test_traced_theta_constants_opens_the_class_sum_span():
    """Numeric-verify reads `kernels.theta_class_sums.m*_us` from the
    `_kernels.theta_class_sums` spans under `bench.theta.m*`: a traced
    `theta_constants` must open one per call, Re tau shifted or not."""
    workloads = (PERFBENCH / "workloads.py").read_text()
    assert '"_kernels.theta_class_sums", under=under' in workloads
    assert 'under = f"bench.theta.m{m}"' in workloads
    done = run_child(TRACED_THETA_CHILD, str(PERFBENCH))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "thetanum.theta_constants": 2,
        "_kernels.theta_class_sums": 2,
    }


def test_cli_launch_ends_stderr_with_the_speed_marks():
    """suite-cli times `thetalab.cli` under `cli_launch.py`, whose atexit
    handler writes the speed marks as stderr's last line; the CLI's exit path
    must leave that handler running."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", THETA_LAB_SEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_launch.py"), "verify", "suite", "--level", "quick"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True
    last = done.stderr.splitlines()[-1]
    assert last.startswith("SPEED ") and isinstance(json.loads(last[len("SPEED "):]), dict)


def test_every_suite_check_has_a_layer_metric():
    metrics = load_perfbench("metrics")
    missing = [name for name, _ in suite.CHECK_ORDER if f"suite.{name}_s" not in metrics.LAYER]
    assert not missing


def test_suite_check_counts_match_the_suite_cli_gates(monkeypatch):
    """suite-cli gates every `verify suite` process on `SUITE_CHECKS` entries,
    under a seed drawn from [0, 2**31); a check added to the battery without
    raising the gate would fail only in the benchmark."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run imports metrics, summary, workloads
    run = load_perfbench("run")
    for level in ("quick", "full"):
        report = suite.run_suite(level, 2**31 - 1)
        assert report["pass"], [c for c in report["checks"] if not c["pass"]]
        assert len(report["checks"]) == run.SUITE_CHECKS[level], level


def test_exact_enum_gates_pass(monkeypatch):
    """One exact-enum pass with a short lookup walk: its gates check the group
    orders, the Lagrangian count, the orbit index and the multiplicativity of
    the discriminant against what `symplectic4` and `heisenberg` return."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports `speed`
    workloads = load_perfbench("workloads")
    spec = dict(workloads.EXACT, lookup_pairs=50)
    rec = workloads.Recorder()
    workloads.exact_pass(rec, spec, workloads.exact_inputs(0, spec)[0], 0.0)
    assert rec.attempted > 0 and rec.failed == 0, rec.failures
