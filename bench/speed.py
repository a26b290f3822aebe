"""How fast the host runs Python right now, from a fixed workload.

On a shared virtual machine with 2 vCPUs (Python 3.11), the speed of
plain Python code drifted by up to 2x within minutes (20-second medians
of a fixed set of queries ranged 1.5x, in wall and CPU time alike), far
more than the bounds of the end-to-end metrics. Calibrations run between
the queries of a run, and each query's time is scaled to a reference
speed by the calibrations around it.

The calibration is frozen code of its own, which neither gpc nor the
output checks share: a walk enumerator over a fixed graph (tuples, dicts,
lists, as in the engine) and a plain arithmetic loop. Over five minutes
on that host, the ratio of 20-second medians of query time to either kind
of loop ranged 1.1-1.2x, where the raw query times ranged 1.5x; the
enumerators of `cases` on small graphs, used before, ranged 1.3-1.5x.
Editing this file rescales every reported time and rate.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# Calibration time on the reference host; times are reported as if the
# calibration had taken exactly this long.
REFERENCE_S = 0.0015
EVERY_S = 0.1  # calibrate once per this much measuring time
# A query is scaled by the calibrations within this distance of it: the
# host's speed moved by a third within seconds, so one factor for a whole
# run would leave the slow stretches in the upper percentiles.
WINDOW_S = 2.0

# A fixed graph of 12 nodes, each with edges to two others.
_STEPS = {u: ((2 * u, (u * 5 + 1) % 12), (2 * u + 1, (u * 7 + 3) % 12)) for u in range(12)}


def _walks(start: int, length: int) -> int:
    """The walks of up to `length` edges from `start`, built as tuples."""
    count, stack = 0, [(start,)]
    while stack:
        walk = stack.pop()
        count += 1
        if len(walk) // 2 < length:
            stack += [walk + step for step in _STEPS[walk[-1]]]
    return count


def _arithmetic(n: int) -> int:
    x = 0
    for i in range(n):
        x = (x * 31 + i) % 1000003
    return x


def _calibration() -> None:
    for start in (0, 4, 8):
        _walks(start, 8)
    _arithmetic(8000)


class Speedometer:
    def __init__(self):
        self.samples: list[float] = []
        self.when: list[float] = []  # the end of each sample, ascending
        self.last = 0.0

    def sample(self) -> None:
        """One calibration; the collector is off so that garbage left by
        the program under test cannot slow it down."""
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
            self.when.append(self.last)
        finally:
            gc.enable()

    def maybe_sample(self) -> None:
        """Calibrate if EVERY_S has passed since the last calibration."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def burst(self, count: int = 20) -> list[float]:
        """Several calibrations in a row, for a speed at one moment."""
        for _ in range(count):
            self.sample()
        return self.samples[-count:]

    def factor(self, samples: list[float] | None = None) -> float:
        """Reference time over measured time: scales a time to the reference host."""
        return REFERENCE_S / statistics.median(samples or self.samples)

    def factor_at(self, moment: float) -> float:
        """The factor from the calibrations within WINDOW_S of `moment`."""
        lo = bisect.bisect_left(self.when, moment - WINDOW_S)
        hi = bisect.bisect_right(self.when, moment + WINDOW_S)
        return self.factor(self.samples[lo:hi])
