"""Host-speed calibration: report times as on a nominal host.

The benchmark runs on shared machines whose effective CPU speed drifts
by tens of percent over seconds to minutes while this process runs
alone (identical binary64 sweeps took 0.46-0.71 s back to back).  A
fixed pure-Python loop slows down with the workload: over 8 blocks of
15 s, raw sweep time moved by up to 40% between blocks while sweep time
over the loop's time moved by 2-5%.

So each timed unit that is mostly computation (a sweep, ten lints, a
closed-loop segment) is bracketed by calibration slices, and its time
is divided by the slowdown those slices measured: the loop's measured
time over its nominal time.  Those times and rates are therefore the
ones of a host on which one slice takes :data:`NOMINAL_S`.  Each record
keeps the slowdowns beside them.
"""

from __future__ import annotations

import time

#: one slice's duration on the reference host (a 2-vCPU VM in its fast
#: state); only the scale of reported numbers depends on it
NOMINAL_S = 0.015
_ITERATIONS = 60_000


def _loop(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        if acc & 1:
            acc ^= len(table)
    return acc


def slowdown(slices: int = 1) -> float:
    """Measured over nominal slice time, the median of ``slices`` slices
    (above 1: the host is slower than nominal right now)."""
    times = []
    for _ in range(slices):
        started = time.perf_counter()
        _loop(_ITERATIONS)
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2] / NOMINAL_S


class Bracket:
    """Slowdowns measured between consecutive timed units: each unit's
    factor is the mean of the slowdowns just before and just after it."""

    def __init__(self, first: float) -> None:
        self.last = first
        self.factors: list[float] = []

    def factor(self, after: float) -> float:
        """The slowdown over the unit that ran since the previous call,
        given the slowdown measured now."""
        factor = (self.last + after) / 2
        self.last = after
        self.factors.append(factor)
        return factor
