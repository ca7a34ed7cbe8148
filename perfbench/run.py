#!/usr/bin/env python3
"""The thetalab benchmark: one command, three workloads, every output gated.

    python3 perfbench/run.py --workload suite-cli --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15
    python3 perfbench/run.py --workload exact-enum --seed 0 --seconds 15 --trace 1

Run it from anywhere; it benchmarks the `src/` tree next to this directory
and refuses to run without one.  Workloads (see metrics.WORKLOADS):

* suite-cli: fresh CLI processes (`thetalab.cli` as `__main__`, under
  cli_launch.py), one after another:
  `congruence member`, `verify suite --level quick`, `--level full`.
* exact-enum: one cold worker process runs the enumerations, then
  discriminant lookups on seeded products.
* numeric-verify: one warm worker process runs passes, each one round of
  seeded words through verify_transformation and dense weil_rep and every
  seeded tau through theta_constants.

Only one workload process runs at a time, and every process is pinned to
the same one CPU; BLAS runs one thread, and the count is recorded.

Every time a plain run reports is scaled to a fixed machine speed by
reference kernels timed alongside (speed.py); the wall-clock values are
printed beside the scaled end-to-end metrics.

With `--trace 0` the report gives each workload's named metrics (median,
the highest percentile with at least ten samples beyond it, sample count)
and the last line carries the end-to-end metrics of BENCHMARK.json.  With
`--trace 1` the requested workload runs once untraced and once traced (the
difference is the tracing overhead), the other two run traced, and the last
line carries the per-layer metrics.  `--out FILE` appends the full record
of the run as one JSON line, for compare.py.  The exit code is 0 when every
gate passed, 1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
import uuid

import metrics
import summary
import workloads as wl
from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = tuple(metrics.WORKLOADS)
SETUP_RUNS = 5  # fresh set-ups per run; setup_s is their median
# One BLAS thread: every process of a run is pinned to one CPU (see main).
# Before pinning, two threads made the m=512 products about 1.8x faster but
# spread more over five seeds (IQR/median of verify at m=6: 12% against 3%).
BLAS_THREADS = 1
SUITE_CHECKS = {"quick": 31, "full": 34}
COLD_STARTS = 5  # `congruence member` processes per suite-cli iteration


class Child:
    """A child process whose stdout lines are timestamped as they arrive."""

    def __init__(self, argv: list[str], env: dict):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True
        )
        self.lines: list[str] = []
        self._err: list[str] = []
        self._reader = threading.Thread(target=lambda: self._err.append(self.proc.stderr.read()))
        self._reader.start()

    def wait_for(self, word: str) -> float:
        """Seconds from start until the child printed `word` on a line of its own."""
        for line in self.proc.stdout:
            if line.strip() == word:
                return time.perf_counter() - self.t0
            self.lines.append(line)
        self.finish()
        raise RuntimeError(f"child ended before {word}: {''.join(self._err)[-2000:]}")

    def finish(self) -> tuple[int, float, float]:
        """Reap the child: (exit code, seconds since start, peak RSS in MB)."""
        self.lines.extend(self.proc.stdout)
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join()
        self.proc.stdout.close()
        self.proc.stderr.close()
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish()

    @property
    def stderr(self) -> str:
        return "".join(self._err)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(spec: dict, env: dict) -> Child:
    return Child([sys.executable, os.path.join(HERE, "workloads.py"), json.dumps(spec)], env)


def worker_result(child: Child) -> tuple[dict, float]:
    """(parsed result, peak RSS in MB) of a worker; raises if it failed."""
    code, _, rss = child.finish()
    if code != 0 or not child.lines:
        raise RuntimeError(f"worker exited {code}: {child.stderr[-2000:]}")
    return json.loads(child.lines[-1]), rss


class Run:
    """Everything one workload run measured."""

    def __init__(self, workload: str):
        self.workload = workload
        self.setup: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.pass_means: dict[str, list[float]] = {}
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.meta: dict = {}
        self.extra: dict = {}
        # wall-clock samples behind the scaled ones (see speed.py)
        self.raw_samples: dict[str, list[float]] = {}
        self.raw_pass_means: dict[str, list[float]] = {}
        self.raw_setup: list[float] = []

    def raw_run(self) -> "Run":
        """This run with wall-clock samples in place of the scaled ones."""
        raw = Run(self.workload)
        raw.samples = {**self.samples, **self.raw_samples}
        raw.pass_means = {**self.pass_means, **self.raw_pass_means}
        raw.setup, raw.rss = self.raw_setup or self.setup, self.rss
        return raw

    def absorb(self, result: dict, rss: float) -> None:
        for kind, vals in result.get("samples", {}).items():
            self.samples.setdefault(kind, []).extend(vals)
        for kind, vals in result.get("pass_means", {}).items():
            self.pass_means.setdefault(kind, []).extend(vals)
        self.attempted += result.get("attempted", 0)
        self.failed += result.get("failed", 0)
        self.failures += result.get("failures", [])
        self.rss += [rss, result.get("peak_rss_mb", rss)]
        self.meta = result.get("meta", self.meta)
        if result.get("reference_s"):
            self.extra["reference_s"] = result["reference_s"]
        raw = result.get("raw") or {}
        for kind, vals in raw.get("samples", {}).items():
            self.raw_samples.setdefault(kind, []).extend(vals)
        for kind, vals in raw.get("pass_means", {}).items():
            self.raw_pass_means.setdefault(kind, []).extend(vals)

    def take_gates(self, rec: wl.Recorder) -> None:
        self.attempted += rec.attempted
        self.failed += rec.failed
        self.failures += rec.failures


def setup_probes(run: Run, seed: int, env: dict, count: int, speedo: Speedometer) -> list:
    """Time `count` fresh set-ups; their (start, ready) windows.  `speedo` takes their marks."""
    windows = []
    for _ in range(count):
        child = worker({"workload": run.workload, "job": "setup", "seed": seed}, env)
        try:
            windows.append((child.t0, child.t0 + child.wait_for("READY")))
            result, rss = worker_result(child)
        finally:
            child.kill()
        run.absorb(result, rss)
        speedo.absorb(result["speed"])
    return windows


def setup_at_speed(run: Run, windows: list, speedo: Speedometer) -> None:
    run.raw_setup = [t1 - t0 for t0, t1 in windows]
    run.setup = [speedo.scaled("interp", t0, t1) for t0, t1 in windows]


# --- suite-cli ------------------------------------------------------------------------------

_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))
_TI = ((1, -1), (0, 1))


def member_query(rng: random.Random) -> tuple[list[str], bool]:
    """A seeded `congruence member` query and its answer, decided here from the definitions."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(0, 12)):
        (p, q), (r, s) = rng.choice((_S, _T, _TI))
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    kind = rng.choice(("gamma", "gamma0", "gamma-m-2m", "theta12"))
    level = rng.choice((2, 4)) if kind == "gamma-m-2m" else rng.randint(2, 6)
    if kind == "gamma":
        answer = (a - 1) % level == 0 and (d - 1) % level == 0 and b % level == 0 and c % level == 0
    elif kind == "gamma0":
        answer = c % level == 0
    elif kind == "gamma-m-2m":
        two = 2 * level
        answer = (a - 1) % level == 0 and (d - 1) % level == 0 and b % two == 0 and c % two == 0
    else:
        answer = (a * b) % 2 == 0 and (c * d) % 2 == 0
    argv = ["congruence", "member", "--group", kind, f"--gamma={a},{b},{c},{d}"]
    if kind != "theta12":
        argv.append(f"--{'m' if kind == 'gamma-m-2m' else 'n'}={level}")
    return argv, answer


def suite_commands(rng: random.Random) -> tuple[int, list[tuple[str, list[str], dict]]]:
    """One suite-cli iteration: its THETA_LAB_SEED and (kind, argv, expected) per command.

    A process start is short and noisy, so each iteration samples it
    COLD_STARTS times, with a different query each time.
    """
    queries = [member_query(rng) for _ in range(COLD_STARTS)]
    return rng.randrange(2**31), [
        *(("cli_start", member, {"member": answer}) for member, answer in queries),
        ("suite_quick", ["verify", "suite", "--level", "quick"], {"checks": SUITE_CHECKS["quick"]}),
        ("suite_full", ["verify", "suite", "--level", "full"], {"checks": SUITE_CHECKS["full"]}),
    ]


def cli_process(
    run: Run, rec: wl.Recorder, kind: str, argv, expect, env, suite_seed, speedo=None
) -> float:
    """Run one CLI process to its end, gate its output; a sample of `kind` in `rec`.

    The process runs `thetalab.cli` under cli_launch.py, which reports the
    speed marks it took; `speedo`, when given, takes them.
    """
    argv = [sys.executable, os.path.join(HERE, "cli_launch.py"), *argv]
    child = Child(argv, {**env, "THETA_LAB_SEED": str(suite_seed)})
    try:
        code, wall, rss = child.finish()
    finally:
        child.kill()
    rec.add(kind, child.t0, child.t0 + wall)
    run.rss.append(rss)
    wl.check_cli_output(rec, argv, code, "".join(child.lines), expect)
    if speedo is not None:
        marks = [line for line in child.stderr.splitlines() if line.startswith("SPEED ")]
        if not marks:
            raise RuntimeError(f"{' '.join(argv)} reported no speed marks: {child.stderr[-2000:]}")
        speedo.absorb(json.loads(marks[-1][len("SPEED "):]))
    return wall


def cli_iteration(run: Run, rec: wl.Recorder, commands, env, suite_seed, speedo) -> None:
    """One pass: the CLI processes of `commands`, one after another."""
    begin = rec.begin_pass()
    for cmd in commands:
        cli_process(run, rec, *cmd, env, suite_seed, speedo)
    rec.end_pass(begin)


def take_samples(run: Run, rec: wl.Recorder) -> None:
    run.samples.update(rec.samples)
    run.pass_means.update(rec.pass_means())
    run.raw_samples.update(rec.raw)
    run.raw_pass_means.update(rec.raw_pass_means)
    run.extra["reference_s"] = rec.reference_s
    run.take_gates(rec)


def suite_cli(run: Run, seed: int, seconds: float, env: dict, speedo: Speedometer) -> None:
    rng = random.Random(seed)
    rec = wl.Recorder()
    deadline = time.perf_counter() + seconds
    while not rec.passes or time.perf_counter() < deadline:
        suite_seed, commands = suite_commands(rng)
        cli_iteration(run, rec, commands, env, suite_seed, speedo)
    rec.at_speed(speedo)
    take_samples(run, rec)


# --- plain runs -------------------------------------------------------------------------------

def plain_run(workload: str, seed: int, seconds: float, env: dict) -> Run:
    """Set-ups and a measured run of `workload`, times scaled to the nominal speed.

    Every child process takes speed marks (speed.py) and reports them; this
    process scales set-ups and CLI processes by them, and a measuring worker
    scales its own operations.
    """
    run = Run(workload)
    speedo = Speedometer(("interp",))
    if workload == "suite-cli":
        windows = setup_probes(run, seed, env, SETUP_RUNS, speedo)
        suite_cli(run, seed, seconds, env, speedo)
        setup_at_speed(run, windows, speedo)
        return run
    windows = setup_probes(run, seed, env, SETUP_RUNS - 1, speedo)
    spec = {"workload": workload, "job": "measure", "seed": seed, "seconds": seconds}
    child = worker(spec, env)
    try:
        windows.append((child.t0, child.t0 + child.wait_for("READY")))
        child.wait_for("PASS")
        result, rss = worker_result(child)
    finally:
        child.kill()
    speedo.absorb(result["speed"])
    setup_at_speed(run, windows, speedo)
    run.absorb(result, rss)
    counts = result["counts"]
    if workload == "numeric-verify":
        run.extra["word_length"] = histogram(counts["word_length"])
        run.extra["radius"] = {k: histogram(v) for k, v in counts.items() if k.startswith("radius")}
    return run


def histogram(values) -> dict:
    out: dict[str, int] = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def _rate(latencies: list[float]) -> tuple:
    """Operations per second spent in them, with the latencies behind the rate."""
    return "1/s", latencies, len(latencies) / sum(latencies)


def named_metrics(run: Run) -> dict:
    """The workload's named metrics: value, unit, and the distribution behind it."""
    s = run.samples
    out = {"setup_s": ("s", run.setup), "peak_rss_mb": ("MB", [max(run.rss)])}
    if run.workload == "suite-cli":
        for kind in ("cli_start", "suite_quick", "suite_full"):
            out[f"{kind}_s"] = ("s", s[kind])
    elif run.workload == "exact-enum":
        out["enum_s"] = ("s", s["enum"])
        lookups = s["discriminant"]
        out["disc_lookup_per_s"] = ("1/s", lookups, len(lookups) / s["lookup_phase"][0])
    else:
        for m in wl.NUMERIC["verify"]:
            out[f"verify_per_s.m{m}"] = _rate(s[f"verify.m{m}"])
        for m in wl.NUMERIC["weil"]:
            out[f"weil_matrix_per_s.m{m}"] = _rate(s[f"weil.m{m}"])
        for m in wl.NUMERIC["theta"]:
            out[f"theta_eval_per_s.m{m}"] = _rate(s[f"theta.m{m}"])
    out["ops_failed_ratio"] = ("ratio", [run.failed / max(run.attempted, 1)])
    report = {}
    for name, (unit, values, *rate) in out.items():
        entry = summary.describe(values)
        entry["value"] = rate[0] if rate else entry["median"]
        entry["unit"] = unit
        entry["dist_unit"] = "s" if rate else unit  # a rate's distribution is its latencies
        report[name] = entry
    return report


def end_to_end(run: Run) -> dict:
    s = run.samples
    short, long_ = {
        "suite-cli": ("cli_start", "suite_full"),
        "exact-enum": ("discriminant", "enum"),
        "numeric-verify": ("verify.m6", "verify.m512"),
    }[run.workload]
    # an operation's latency is the median over passes of its mean in a pass, where
    # passes run the same mix of inputs; exact-enum's lookups are not in its pass
    per_pass = {kind: run.pass_means.get(kind) or s[kind] for kind in (short, long_)}
    values = {
        "setup_s": summary.median(run.setup),
        "peak_rss_mb": max(run.rss),
        "pass_s": summary.median(s["pass"]),
        "short_op_ms": summary.median(per_pass[short]) * 1e3,
        "long_op_ms": summary.median(per_pass[long_]) * 1e3,
    }
    return {k: {"value": v, "unit": metrics.END_TO_END[k][0]} for k, v in values.items()}


# --- traced run ---------------------------------------------------------------------------------

def traced_run(workload: str, seed: int, seconds: float, env: dict) -> tuple[Run, dict]:
    """Untraced then traced pass of `workload`, traced passes of the others; per-layer metrics."""
    run = Run(workload)
    run_id = uuid.uuid4().hex[:12]
    layer: dict[str, list[float]] = {}
    passes = {"untraced": one_pass(run, workload, seed, seconds, env, None)}
    for name in WORKLOADS:
        seconds_traced = one_pass(run, name, seed, seconds, env, run_id, layer)
        if name == workload:
            passes["traced"] = seconds_traced
    run.extra["tracing_overhead_s"] = passes["traced"] - passes["untraced"]
    run.extra["trace_dir"] = TRACE_DIR
    return run, merge_layers(layer, passes["traced"], passes["untraced"])


def merge_layers(layer: dict[str, list[float]], traced: float, untraced: float) -> dict:
    """One value per metrics.LAYER name: self times and span counts add up, the rest are medians."""
    merged = {}
    for name, values in layer.items():
        additive = name.endswith(".self_s") or name == "trace.spans"
        merged[name] = sum(values) if additive else summary.median(values)
    merged["trace.traced_pass_s"] = traced
    merged["trace.untraced_pass_s"] = untraced
    merged["trace.traced_over_untraced"] = traced / untraced
    missing = sorted(set(metrics.LAYER) - set(merged))
    if missing:
        raise RuntimeError(f"traced run did not yield {missing}")
    return {k: merged[k] for k in metrics.LAYER}


def one_pass(
    run: Run, name: str, seed: int, seconds: float, env: dict, run_id, layer=None
) -> float:
    """Time one pass of workload `name`; traced when `run_id` is given.  Returns its seconds."""
    traced = run_id is not None
    if name == "suite-cli":
        rng = random.Random(seed)
        suite_seed, commands = suite_commands(rng)
        rec = wl.Recorder()
        total = 0.0
        for i, (kind, argv, expect) in enumerate(commands):
            if not traced:
                total += cli_process(run, rec, kind, argv, expect, env, suite_seed)
                continue
            spec = {"workload": name, "job": "cli", "run_id": run_id, "part": f"{i}-{kind}",
                    "argv": argv, "expect": expect, "suite_seed": suite_seed,
                    "trace_dir": TRACE_DIR}
            total += traced_worker(run, spec, env, layer, from_start=True)
        run.take_gates(rec)
        return total
    spec = {"workload": name, "job": "traced" if traced else "measure", "seed": seed,
            "seconds": seconds, "passes": wl.TRACE_PASSES, "run_id": run_id,
            "trace_dir": TRACE_DIR}
    if traced:
        return traced_worker(run, spec, env, layer, from_start=False)
    child = worker(spec, env)
    try:
        ready = child.wait_for("READY")
        done = child.wait_for("PASS")
        run.absorb(*worker_result(child))
    finally:
        child.kill()
    return done - ready


def traced_worker(run: Run, spec: dict, env: dict, layer: dict, from_start: bool) -> float:
    child = worker(spec, env)
    try:
        ready = child.wait_for("READY")
        done = child.wait_for("PASS")
        result, rss = worker_result(child)
    finally:
        child.kill()
    run.absorb(result, rss)
    for name, values in result["layer"].items():
        layer.setdefault(name, []).extend(values)
    return done if from_start else done - ready


# --- reporting -------------------------------------------------------------------------------

def machine_meta(run: Run, seed: int, seconds: float, trace: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": run.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "blas_thread_cap": BLAS_THREADS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        **run.meta,
        **git_state(),
    }


def git_state() -> dict:
    """Commit and dirty flag of the checkout; None when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        head, dirty = (
            subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
            for args in (["rev-parse", "HEAD"], ["status", "--porcelain"])
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def report(run: Run, meta: dict, named: dict | None, e2e: dict | None, layer: dict | None) -> None:
    print(f"== {run.workload}  seed={meta['seed']}  seconds={meta['seconds']}  "
          f"trace={meta['trace']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in (named or {}).items():
        kind = "latency median" if m["dist_unit"] != m["unit"] else "median"
        dist = f"{kind} {fmt(m['median'])} {m['dist_unit']}"
        high = f"p{m['p']} {fmt(m['p_value'])}" if m["p"] is not None else "no percentile (n <= 10)"
        print(f"  {name:26s} {fmt(m['value']):>12s} {m['unit']:6s} [{dist}, {high}, n={m['n']}]")
    raw = end_to_end(run.raw_run()) if e2e and run.raw_samples else {}
    for name, m in (e2e or {}).items():
        wall = f"   (wall clock {fmt(raw[name]['value'])})" if name in raw else ""
        print(f"  e2e {name:22s} {fmt(m['value']):>12s} {m['unit']:3s}{wall}")
    for name, value in (layer or {}).items():
        print(f"  layer {name:50s} {fmt(value):>12s} {metrics.LAYER[name][0]}")
    for key, value in run.extra.items():
        print(f"  {key}: {json.dumps(value) if not isinstance(value, float) else fmt(value)}")
    print(f"  gates: attempted {run.attempted}, failed {run.failed}")
    for failure in run.failures[:20]:
        print(f"  FAILED: {failure}")


def result_line(attempted: int, failed: int, values: dict) -> str:
    return json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                       "failed": failed, "metrics": values})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the run's full record to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.workload == "all" and args.trace:
        ap.error("--trace 1 takes one workload: the traced run covers every layer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thetalab", "__init__.py")):
        print(f"error: no thetalab source tree at {SRC}", file=sys.stderr)
        return 2
    # Every process of the benchmark runs on one CPU: on a 2-vCPU Xeon VM
    # shared with other tenants the vCPUs differed in speed (a pure-Python
    # loop by 12%), and which one a worker landed on split run-to-run
    # timings into two groups.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    records = []
    try:
        if args.trace:
            run, layer = traced_run(args.workload, args.seed, args.seconds, env)
            records.append((run, None, None, layer))
        else:
            for workload in WORKLOADS if args.workload == "all" else (args.workload,):
                run = plain_run(workload, args.seed, args.seconds, env)
                records.append((run, named_metrics(run), end_to_end(run), None))
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = failed = 0
    final: dict = {}
    for run, named, e2e, layer in records:
        meta = machine_meta(run, args.seed, args.seconds, args.trace)
        report(run, meta, named, e2e, layer)
        attempted += run.attempted
        failed += run.failed
        if layer is not None:
            final.update({k: {"value": v, "unit": metrics.LAYER[k][0]} for k, v in layer.items()})
        elif len(records) == 1:
            final.update(e2e)
        else:
            final.update({f"{run.workload}.{k}": v for k, v in e2e.items()})
        if args.out:
            with open(args.out, "a") as fh:
                wall = end_to_end(run.raw_run()) if e2e and run.raw_samples else None
                record = {"meta": meta, "named": named, "end_to_end": e2e,
                          "end_to_end_wall": wall, "layer": layer,
                          "attempted": run.attempted, "failed": run.failed,
                          "failures": run.failures, "extra": run.extra}
                fh.write(json.dumps(record) + "\n")
    print(result_line(attempted, failed, final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
