"""Reference time: wall time rescaled by a calibration kernel sampled beside it.

The two-vCPU host this benchmark was tuned on switches, for seconds to
minutes at a time, between a fast state and one in which the same code runs
about twice as slowly: one 0.3 s solve, repeated, took from 124 ms to 340 ms
within a minute, with CPU time equal to wall time and no steal time.  A fixed
piece of Python and small-array numpy work slows down by the same factor, so

    reference time = measured time * REFERENCE_KERNEL_S / kernel time around it

holds still while the host changes state.  While a ``ReferenceClock`` is
entered, an interval timer interrupts the process every ``INTERVAL_S`` and
times the kernel once.  A request's reference time is its wall time, less
the kernel samples taken inside it, scaled by the mean kernel time of the
samples within ``INTERVAL_S`` of it.  On the tuning host's fast state the
kernel takes about ``REFERENCE_KERNEL_S``, so reference seconds read as
fast-state seconds there.  The kernel does not touch the package, so a
change to the package moves reference times as it moves wall times.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from typing import Callable

import numpy as np

REFERENCE_KERNEL_S = 1.4e-3
INTERVAL_S = 0.05

_STEP = np.array([[1.0, 1e-3, 0.0], [0.0, 1.0, 1e-3], [0.0, 0.0, 1.0]])


def kernel() -> float:
    a = np.eye(3)
    s = 0.0
    for i in range(300):
        a = a @ _STEP
        s += math.sqrt(i + 1.0) + float(np.max(np.abs(a)))
    return s


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class ReferenceClock:
    """Kernel samples on a timer, and the conversion of intervals to reference time."""

    def __init__(self, timer: Callable[[], float] = kernel):
        self._timer = timer
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None
        timer()  # the first call pays numpy's lazy set-up

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self._timer()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "ReferenceClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference(self, t0: float, t1: float) -> float:
        """Reference duration of the wall-clock interval [t0, t1]."""
        inside = slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo == hi:  # no sample near: take the nearest one
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        around = self.durations[lo:hi]
        busy = t1 - t0 - sum(self.durations[inside])
        return busy * REFERENCE_KERNEL_S * len(around) / sum(around)
