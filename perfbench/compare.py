#!/usr/bin/env python3
"""Compare two sets of benchmark runs: the parent commit's and a change's.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records `run.py --out FILE` appends, one per workload
run.  Make at least ten runs per side and workload with the same
`--seconds`, alternating parent and change, each pair on its own seed.  The
i-th parent run of a workload is paired with its i-th change run.

For every workload, and for every end-to-end metric of BENCHMARK.json and
every named metric of the workload, one row gives each side's median and
quartiles, the share of pairs the change wins (ties count for neither),
and a verdict:

  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  regression  the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's own quartile spread is wider than the bound and
              not every change run beats every parent run
  same        none of the above

The exit code is 1 when a row is a regression, else 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import metrics
import summary


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> per-run values, in file order."""
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("end_to_end") is None:
                continue  # traced runs carry per-layer metrics only
            workload = rec["meta"]["workload"]
            for name, m in rec["end_to_end"].items():
                out[workload][name].append(m["value"])
            for name, m in rec["named"].items():
                out[workload][f"named:{name}"].append(m["value"])
    return out


def spec(workload: str, key: str) -> tuple[str, str, float]:
    if key.startswith("named:"):
        return metrics.NAMED[workload][key[6:]]
    return metrics.END_TO_END[key]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = summary.quartiles(parent)
    c1, cm, c3 = summary.quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    spread = p3 - p1
    scale = abs(pm) if pm else 1.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_share >= 0.9 and abs(cm - pm) > spread and sign * (cm - pm) > 0:
        label = "gain"
    elif sign * (pm - cm) > bound * scale:
        label = "regression"
    elif spread > bound * scale and not all_better:
        label = "unresolved"
    else:
        label = "same"
    return {
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "wins": win_share,
        "pairs": len(pairs),
        "verdict": label,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    regressions = 0
    for workload in metrics.WORKLOADS:
        if workload not in parent or workload not in change:
            print(f"== {workload}: missing from {'parent' if workload not in parent else 'change'}")
            continue
        print(f"== {workload}")
        head = f"{'parent Q1/med/Q3':>32s} {'change Q1/med/Q3':>32s}"
        print(f"  {'metric':28s} {'unit':6s} {head}  wins  verdict")
        for key in sorted(set(parent[workload]) & set(change[workload])):
            unit, better, bound = spec(workload, key)
            v = verdict(parent[workload][key], change[workload][key], better, bound)
            regressions += v["verdict"] == "regression"
            p = "/".join(f"{x:.4g}" for x in v["parent"])
            c = "/".join(f"{x:.4g}" for x in v["change"])
            print(f"  {key:28s} {unit:6s} {p:>32s} {c:>32s}  {v['wins']:.2f}  {v['verdict']}"
                  f" (n={v['pairs']}, bound {bound:g}, {better} is better)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
