"""Scaling measured times to a reference machine speed.

Small shared machines change speed by up to about 1.8x over seconds to
minutes, as other tenants load the host; every instruction of the run
slows alike, so process CPU time does not help.  To compare runs made
at different moments, the benchmark times a fixed calibration kernel
(interpreted integer arithmetic plus small int64 array operations, the
same kind of work as crtour's) every ``EVERY_S`` seconds of a measured
round, from a timer signal so that long calls are sampled too.  The
kernel's own time is taken out of every interval it falls in, and each
interval is scaled by

    REF_S / median(calibration times within WINDOW_S of the interval)

so reported times read as if the kernel had taken exactly ``REF_S``.
The raw times and the scale are printed beside every result.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

REF_S = 1e-3  # reference-speed duration of one calibration kernel
EVERY_S = 0.02
WINDOW_S = 0.3
NEAREST = 6  # samples used when the window holds fewer


def kernel() -> int:
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    s = 0
    for k in range(3000):
        s += k * k % 7
    for _ in range(200):
        a = (a * 3 + 1) // 2 % 1000
    return s + int(a.sum())


class Speed:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    @contextmanager
    def ticking(self):
        """Sample every EVERY_S seconds of wall time inside the block."""
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    def inside(self, start: float, end: float) -> float:
        """Calibration time spent within [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        return sum(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor taking a raw interval [start, end] to reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, mid - NEAREST // 2)
            hi = min(len(self.at), lo + NEAREST)
        return REF_S / statistics.median(self.took[lo:hi])
