"""Order statistics used by every report of the benchmark."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    vals = list(values)
    if len(vals) < 2:
        v = float(vals[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return float(q1), float(q2), float(q3)


def high_percentile(values) -> tuple[float, float] | None:
    """The highest percentile that has at least ten samples beyond it, and its value.

    With n samples that is p = 100 (n - 10) / n, read at the nearest rank;
    with ten samples or fewer there is none.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= 10:
        return None
    p = 100.0 * (n - 10) / n
    rank = max(1, math.ceil(p / 100.0 * n))
    return p, float(vals[rank - 1])


def describe(values) -> dict:
    """Median, high percentile and sample count of one metric's samples."""
    hp = high_percentile(values)
    return {
        "median": median(values),
        "p": None if hp is None else round(hp[0], 2),
        "p_value": None if hp is None else hp[1],
        "n": len(values),
    }
