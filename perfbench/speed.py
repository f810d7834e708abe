"""Timings normalised by the interpreter speed measured while they ran.

On a shared 2-core x86-64 cloud guest (Python 3.11) the speed of one process
was seen to change by up to 1.7x from one second to the next (other guests
contend for the same cores; the change shows up neither as steal time nor in
process CPU time), so plain wall times of identical work spread by +-35%
between runs.  A :class:`SpeedMeter`
therefore interrupts the process every ``INTERVAL_S`` seconds (SIGALRM, no
threads) and times a fixed pure-Python calibration loop, integer tuple
arithmetic like nikulat's own.  :meth:`SpeedMeter.seconds` turns an interval
of the measured program into *normalised seconds*: the interval's time
outside the meter's own ticks, multiplied by the mean of
``CAL_NOMINAL_S / loop time`` over the ticks during it.  That is the time the
work would take on an interpreter that runs the loop in ``CAL_NOMINAL_S``
(about that guest at its fastest).  Both the raw and the normalised
times go into the run report.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate

perf = time.perf_counter

CAL_ITERATIONS = 150
CAL_NOMINAL_S = 0.0005
INTERVAL_S = 0.025
#: at least this many ticks estimate the speed of a short interval
MIN_TICKS = 5

_X = (1, 0, 2, -1, 0, 0, 1, 2, -2, 0, 1, 0, 0, 1, -1, 0)
_R = (0, 1, -1, 0, 2, 0, 0, 1, 0, -1, 0, 0, 1, 0, 0, 1)


def calibration_loop() -> float:
    """Seconds taken by the fixed calibration work."""
    t0 = perf()
    seen = set()
    for k in range(CAL_ITERATIONS):
        c = sum(a * b for a, b in zip(_X, _R)) + k
        seen.add(tuple(a + c * b for a, b in zip(_X, _R)))
    return perf() - t0


class SpeedMeter:
    """Context manager sampling the interpreter speed; see the module docstring."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf()
        loop = calibration_loop()
        self.starts.append(t0)
        self.loops.append(loop)
        self.ends.append(perf())

    def __enter__(self) -> SpeedMeter:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # each tick's speed is taken from the median of its neighbours, so one
        # interrupted loop does not count; prefix sums make every query O(log n)
        loops = self.loops
        smooth = [CAL_NOMINAL_S / statistics.median(loops[max(i - 2, 0):i + 3]) for i in range(len(loops))]
        self._speed_sums = list(accumulate(smooth, initial=0.0))
        self._tick_sums = list(accumulate((e - s for s, e in zip(self.starts, self.ends)), initial=0.0))

    def settle(self) -> None:
        """Sleep until there are MIN_TICKS ticks and one after this call, so
        that the speed of a short interval that just ended can be estimated."""
        now = perf()
        while len(self.loops) < MIN_TICKS or self.starts[-1] < now:
            time.sleep(INTERVAL_S / 2)

    def raw(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the meter's own ticks (after exit)."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - (self._tick_sums[hi] - self._tick_sums[lo])

    def speed(self, t0: float, t1: float) -> float:
        """Mean relative speed over [t0, t1], from at least MIN_TICKS ticks."""
        n = len(self.loops)
        if n < MIN_TICKS:
            raise RuntimeError(f"only {n} speed samples; the measured work is too short")
        lo, hi = bisect_left(self.starts, t0), bisect_right(self.starts, t1)
        while hi - lo < MIN_TICKS:
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return (self._speed_sums[hi] - self._speed_sums[lo]) / (hi - lo)

    def seconds(self, t0: float, t1: float) -> float:
        """Normalised seconds of the interval [t0, t1]."""
        return self.raw(t0, t1) * self.speed(t0, t1)

