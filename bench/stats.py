"""Arithmetic of the benchmark: percentiles, span self time and failure counts.

Kept free of any dependency on the package under test so that
``test_harness.py`` can check it on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Optional, Sequence

#: Percentiles considered for the tail latency, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """Number of the ``n`` sorted samples that lie above rank ceil(n * p / 100)."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile of the ladder with at least ``MIN_BEYOND`` samples beyond it."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> list[float]:
    """Self time of every span: its duration minus the part its children cover.

    Spans are listed in the order they were opened, so a parent precedes its
    children and the children of one parent appear in order of start time.
    ``parents[i]`` is the index of the parent span, or -1 for a root.  Child
    intervals are clipped to the parent and merged, so overlapping children
    are not subtracted twice.
    """
    n = len(starts)
    covered = [0.0] * n
    covered_until = [-math.inf] * n
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], covered_until[p], starts[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > covered_until[p]:
            covered_until[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.reasons: Counter[str] = Counter()

    def record(self, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.reasons[reason] += 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    @property
    def failed_ratio(self) -> float:
        if self.attempted < 1:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted
