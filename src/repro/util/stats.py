"""Small statistics helpers: the nearest-rank percentile that telemetry histograms
and flow summaries share, and a fixed-bin histogram."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of an ascending sample
    list: the ``ceil(q/100 * n)``-th smallest, 0.0 when empty."""
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


@dataclass
class Histogram:
    """Fixed-bin linear histogram over ``[lo, hi)`` with overflow bins."""

    lo: float
    hi: float
    nbins: int = 32
    counts: list[int] = field(default_factory=list)
    under: int = 0
    over: int = 0

    def __post_init__(self) -> None:
        if self.hi <= self.lo:
            raise ValueError("Histogram requires hi > lo")
        if self.nbins <= 0:
            raise ValueError("Histogram requires nbins > 0")
        if not self.counts:
            self.counts = [0] * self.nbins

    def add(self, value: float) -> None:
        if value < self.lo:
            self.under += 1
            return
        if value >= self.hi:
            self.over += 1
            return
        idx = int((value - self.lo) / (self.hi - self.lo) * self.nbins)
        self.counts[min(idx, self.nbins - 1)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts) + self.under + self.over

    def bin_edges(self) -> list[float]:
        width = (self.hi - self.lo) / self.nbins
        return [self.lo + i * width for i in range(self.nbins + 1)]
