"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every metric named in metrics.py (and BENCHMARK.json) is
emitted with its unit, that a corrupted expected value trips a gate and
makes the run exit nonzero, and that the benchmark refuses to run without
the source tree.  Takes about 15 s on two CPUs: the traced full suite is
the one full-size step.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

TINY_EXACT = {
    "groups": {(1, "even"): 16, (1, "odd"): 48},
    "maxiso_type": (2, 2),
    "maxiso_count": 15,
    "orbit_type": (2,),
    "aut_count": 24,
    "stab_count": 4,
    "orbit_index": 6,
    "lookup_g": 1,
    "lookup_pairs": 20,
    "kernel_gens": 4,
}
TINY_NUMERIC = {
    "verify": (6, 64, 512),
    "weil": (512,),
    "theta": (6, 512),
    "rounds": 1,
    "token_mix": {1: 1, 3: 1},
    "theta_taus": 4,
    "w60_pairs": 4,
}


def test_benchmark_json_matches_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.LAYER.items()
    }


def _check_named(r: run.Run) -> None:
    named = run.named_metrics(r)
    assert {k: v["unit"] for k, v in named.items()} == {
        k: spec[0] for k, spec in metrics.NAMED[r.workload].items()
    }
    assert all(v["value"] is not None and v["n"] >= 1 for v in named.values())
    e2e = run.end_to_end(r)
    want = {k: spec[0] for k, spec in metrics.END_TO_END.items()}
    assert {k: v["unit"] for k, v in e2e.items()} == want
    assert all(v["value"] > 0 for v in e2e.values())


def _as_run(workload: str, rec: wl.Recorder) -> run.Run:
    r = run.Run(workload)
    r.setup = [0.1, 0.2]
    r.absorb(rec.result(), 1.0)
    return r


def test_exact_enum_tiny_emits_every_named_metric():
    rec = wl.Recorder()
    pairs, rows = wl.exact_inputs(0, TINY_EXACT)
    groups = wl.exact_pass(rec, TINY_EXACT, pairs)
    wl.kernel_probe(rec, groups[(1, "odd")], rows)
    assert rec.failed == 0, rec.failures
    _check_named(_as_run("exact-enum", rec))


def test_numeric_verify_tiny_emits_every_named_metric():
    spec = {**wl.NUMERIC, **TINY_NUMERIC}
    rec = wl.Recorder()
    inputs = wl.NumericInputs(0, spec)
    wl.numeric_warm(spec, inputs)
    wl.numeric_pass(rec, spec, inputs, 0)
    assert rec.failed == 0, rec.failures
    _check_named(_as_run("numeric-verify", rec))


def test_suite_cli_tiny_emits_every_named_metric():
    r = run.Run("suite-cli")
    r.setup = [0.1]
    rec = wl.Recorder()
    speedo = speed.Speedometer(("interp",))
    member, answer = run.member_query(random.Random(0))
    quick = ["verify", "suite", "--level", "quick"]
    commands = [
        ("cli_start", member, {"member": answer}),
        ("suite_quick", quick, {"checks": 31}),
        # tiny stand-in for the full level: the quick suite under the full suite's name
        ("suite_full", quick, {"checks": 31}),
    ]
    run.cli_iteration(r, rec, commands, run.child_env(), 0, speedo)
    speedo.mark()
    rec.at_speed(speedo)
    run.take_samples(r, rec)
    assert r.failed == 0, r.failures
    assert r.pass_means["cli_start"] == r.samples["cli_start"]
    assert set(r.raw_samples) == {"cli_start", "suite_quick", "suite_full", "pass"}
    assert run.end_to_end(r.raw_run())["pass_s"]["value"] > 0
    _check_named(r)


def test_speedometer_scales_by_the_nearest_kernel_times(monkeypatch):
    monkeypatch.setattr(speed, "NEAREST", 1)
    nominal = speed.NOMINAL_S["interp"]
    s = speed.Speedometer(("interp",))
    # marks 0.1 s long at t = 0 and 10 (kernel at nominal speed), 20 and 30 (half speed)
    for t, took in ((0, nominal), (10, nominal), (20, 2 * nominal), (30, 2 * nominal)):
        s.starts.append(t)
        s.ends.append(t + 0.1)
        s.took["interp"].append(took)
    assert s.scaled("interp", 1, 2) == pytest.approx(1.0)
    assert s.scaled("interp", 21, 22) == pytest.approx(0.5)
    # piecewise across the marks at 10 and 20, their own 0.1 s left out
    assert s.scaled("interp", 5, 25) == pytest.approx(5 + 9.9 + 4.9 / 2)


def test_numeric_pass_at_speed_sums_scaled_operations(monkeypatch):
    spec = {**wl.NUMERIC, **TINY_NUMERIC}
    rec = wl.Recorder()
    inputs = wl.NumericInputs(0, spec)
    wl.numeric_warm(spec, inputs)
    speedo = speed.Speedometer()
    for k in range(2):
        speedo.mark()
        wl.numeric_pass(rec, spec, inputs, k)
    speedo.mark()
    wall = {kind: list(v) for kind, v in rec.samples.items()}
    # kernels at twice their nominal time: every operation reads half its wall time
    for kind in speedo.kinds:
        speedo.took[kind] = [2 * speed.NOMINAL_S[kind]] * len(speedo.starts)
    rec.at_speed(speedo, wl.DENSE)
    assert rec.raw == wall
    for kind, values in wall.items():
        assert rec.samples[kind] == pytest.approx([v / 2 for v in values])
    ops = [k for k in rec.samples if k != "pass"]
    assert sum(rec.samples["pass"]) == pytest.approx(sum(sum(rec.samples[k]) for k in ops))
    assert set(rec.reference_s) == {"dense", "interp"}


def test_corrupted_expectation_trips_the_gate(capsys, monkeypatch):
    rec = wl.Recorder()
    pairs, _ = wl.exact_inputs(0, TINY_EXACT)
    corrupt = {**TINY_EXACT, "groups": {(1, "even"): 17, (1, "odd"): 48}}
    wl.exact_pass(rec, corrupt, pairs)
    assert rec.failed == 1 and "order 16 != 17" in rec.failures[0]

    wl.check_cli_output(rec, ["verify"], 0, '{"pass": true, "checks": [1, 2]}', {"checks": 3})
    assert rec.failed == 2

    failing = _as_run("exact-enum", rec)
    monkeypatch.setattr(run, "plain_run", lambda *args: failing)
    assert run.main(["--workload", "exact-enum", "--seed", "0", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 2
    assert set(last["metrics"]) == set(metrics.END_TO_END)


def _tiny_worker(spec: dict) -> dict:
    """A worker job with the tiny specs patched in, in its own process."""
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{HERE!r}]\n"
        "import workloads as w\n"
        f"w.EXACT.update({TINY_EXACT!r})\n"
        f"w.NUMERIC.update({TINY_NUMERIC!r})\n"
        f"sys.exit(w.main(['workloads.py', {json.dumps(spec)!r}]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=run.child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_workers_yield_every_layer_metric():
    layer: dict[str, list[float]] = {}
    specs = [
        {"workload": "exact-enum", "job": "traced", "seed": 0, "seconds": 1, "run_id": "t"},
        {"workload": "numeric-verify", "job": "traced", "seed": 0, "seconds": 1, "passes": 1,
         "run_id": "t"},
    ]
    member, answer = run.member_query(random.Random(0))
    for argv, expect in (
        (member, {"member": answer}),
        (["verify", "suite", "--level", "quick"], {"checks": 31}),
        (["verify", "suite", "--level", "full"], {"checks": 34}),
    ):
        specs.append({"workload": "suite-cli", "job": "cli", "run_id": "t", "argv": argv,
                      "expect": expect, "suite_seed": 0})
    for spec in specs:
        result = _tiny_worker(spec)
        assert result["failed"] == 0, result["failures"]
        for name, values in result["layer"].items():
            layer.setdefault(name, []).extend(values)
    # the tiny exact-enum spec builds only the g=1 groups
    full_size_only = {
        f"symplectic4.group_data.g2-{p}_{k}" for p in ("even", "odd") for k in ("s", "order")
    }
    from_run = {"trace.traced_pass_s", "trace.untraced_pass_s", "trace.traced_over_untraced"}
    assert set(layer) == set(metrics.LAYER) - full_size_only - from_run
    layer.update({name: [1.0] for name in full_size_only})
    merged = run.merge_layers(layer, 2.0, 1.0)
    assert list(merged) == list(metrics.LAYER)
    assert merged["trace.traced_over_untraced"] == 2.0


def test_speedometer_marks_on_a_timer_and_merges_across_processes():
    child = speed.Speedometer(("interp",))
    child.start(period=0.02)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    child.stop()
    child.stop()
    assert len(child.starts) >= 5 and child.starts == sorted(child.starts)
    parent = speed.Speedometer(("interp",))
    parent.absorb(json.loads(json.dumps(child.state())))
    assert parent.took == child.took
    assert parent.scaled("interp", t0, t0 + 0.1) > 0
    with pytest.raises(ValueError):
        parent.absorb(child.state())


def test_cli_launch_reports_speed_marks():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cli_launch.py"), "congruence", "member",
         "--group", "theta12", "--gamma=1,0,0,1"],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["member"] is True
    marks = json.loads(proc.stderr.strip().splitlines()[-1][len("SPEED "):])
    assert len(marks["starts"]) >= 2 and len(marks["took"]["interp"]) == len(marks["starts"])


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
