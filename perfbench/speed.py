"""Operation times scaled to a fixed machine speed.

On a 2-vCPU Xeon VM shared with other tenants the speed of a vCPU drifts by
up to 2x over tens of seconds (CPU time tracks wall time, so this is not
steal).  In a slow spell, medians over 30 s windows of one fixed loop of
thetalab calls spread 18-27% (IQR/median), so longer runs alone do not
steady the benchmark.  Work of one kind drifts together, so a fixed
reference kernel of that kind, timed between the operations, tracks it:

* `dense`, two dense complex products of order 256, for the operations
  made of m=512 products.  15-20 s window medians of `verify_transformation`
  at m=512 spread 4.5-6.5% as wall time and 0.7-4.1% as a ratio to it, in
  three recordings of two to four minutes; over five fresh processes, 17%
  and 3%.
* `interp`, tuples, dicts, strings and int arithmetic, for everything else.
  Over eight fresh processes, the mean `verify_transformation` at m=6 spread
  34% and its ratio to this kernel 3%.  It does no floating point: in one
  spell a kernel of complex arithmetic drifted by 35% on its own while the
  m=6 calls held still.  The match is looser than for `dense` (this kernel
  too has drifted alone by up to 1.5x between runs), so a run's interleaved
  operations are scaled over the same stretch of time as its marks.

Every measuring process runs a Speedometer: an interval timer (SIGALRM,
every MARK_PERIOD s) times the kernels in the main thread between bytecodes,
also inside long library calls.  An operation that ran from t0 to t1 is
reported as

    scaled = (t1 - t0) * NOMINAL_S[kind] / (median kernel time of the NEAREST marks to [t0, t1])

and an interval with marks inside is scaled piecewise, their own time left
out.  Marks are taken on the monotonic clock that time.perf_counter reads,
which all processes share, so a parent can scale the lifetime of a child
with the marks the child reports.  NOMINAL_S is a kernel's time on that VM when it ran fast, so a scaled
time reads as the wall time on a quiet machine.  The wall times are
reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

NOMINAL_S = {"dense": 0.0052, "interp": 0.0024}
NEAREST = 2  # marks pooled for one operation: the one before and the one after
MARK_PERIOD = 0.3  # seconds between marks; a mark of both kernels costs about 9 ms
DENSE_DIM = 256
INTERP_LOOPS = 8000

_matrix = None


def dense_kernel() -> complex:
    """Two dense complex products of order DENSE_DIM, on a freshly allocated operand.

    The operations it stands for allocate their matrices on every call, so
    the kernel does too: an operand allocated once would time one memory
    placement for the whole process.
    """
    global _matrix
    import numpy as np

    if _matrix is None:
        rng = np.random.default_rng(0)
        shape = (DENSE_DIM, DENSE_DIM)
        _matrix = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / DENSE_DIM
    a = _matrix.copy()
    return complex((a @ a @ a)[0, 0])


def interp_kernel() -> int:
    """Interpreter work: tuples, dict and list stores, strings, int arithmetic.

    The cyclic garbage collector is off while it runs: a collection its
    allocations set off would walk the whole heap of the process, so the
    kernel would time the heap and not the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table, acc = {}, []
        for i in range(INTERP_LOOPS):
            item = (i, i + 1, str(i & 63))
            table[item[2]] = item
            acc.append(len(table) + item[0])
        return sum(acc)
    finally:
        if enabled:
            gc.enable()


KERNELS = {"dense": dense_kernel, "interp": interp_kernel}


class Speedometer:
    """Kernel times at marks, and operation times scaled by them."""

    def __init__(self, kinds=("dense", "interp")):
        self.kinds = tuple(kinds)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.took: dict[str, list[float]] = {kind: [] for kind in self.kinds}
        self.running = False

    def mark(self) -> None:
        """Time each kernel once, now."""
        self.starts.append(time.perf_counter())
        for kind in self.kinds:
            t0 = time.perf_counter()
            KERNELS[kind]()
            self.took[kind].append(time.perf_counter() - t0)
        self.ends.append(time.perf_counter())

    def start(self, period: float = MARK_PERIOD) -> None:
        """Mark now and then every `period` seconds, until stop()."""
        self.mark()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        self.running = True

    def stop(self) -> None:
        """Stop the timer and mark once more; a no-op when it is not running."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False
        self.mark()

    def state(self) -> dict:
        return {"starts": self.starts, "ends": self.ends, "took": self.took}

    def absorb(self, state: dict) -> None:
        """Add the marks another process reported (they must come after these)."""
        if state["starts"] and self.ends and state["starts"][0] < self.ends[-1]:
            raise ValueError("speed marks out of order")
        self.starts += state["starts"]
        self.ends += state["ends"]
        for kind in self.kinds:
            self.took[kind] += state["took"][kind]

    def factor(self, kind: str, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel time of the NEAREST marks to [t0, t1]."""
        right = bisect.bisect_left(self.starts, t1)  # first mark starting at or after t1
        left = right - 1  # marks before that one, nearest first
        picked = []
        while len(picked) < NEAREST and (left >= 0 or right < len(self.starts)):
            before = t0 - self.ends[left] if left >= 0 else float("inf")
            after = self.starts[right] - t1 if right < len(self.starts) else float("inf")
            if before <= after:
                picked.append(self.took[kind][left])
                left -= 1
            else:
                picked.append(self.took[kind][right])
                right += 1
        return NOMINAL_S[kind] / statistics.median(picked)

    def scaled(self, kind: str, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the nominal speed, less the marks taken inside."""
        total, start = 0.0, t0
        lo = bisect.bisect_right(self.starts, t0)
        hi = bisect.bisect_left(self.ends, t1)
        for i in range(lo, hi):
            total += (self.starts[i] - start) * self.factor(kind, start, self.starts[i])
            start = self.ends[i]
        return total + (t1 - start) * self.factor(kind, start, t1)

    def medians(self) -> dict[str, float]:
        """Median kernel time per kind over all marks."""
        return {kind: statistics.median(v) for kind, v in self.took.items() if v}
