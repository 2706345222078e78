"""Streaming statistics containers used by profiling modules.

The analysis engine reduces unbounded event streams into fixed-size summaries;
these containers are the reduction targets (Welford running moments and a
fixed-bin histogram).
"""

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


class RunningStats:
    """Welford online mean/variance with min/max and total tracking."""

    __slots__ = ("count", "total", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "RunningStats") -> None:
        """Fold another summary into this one (parallel reduction step)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total_n = n1 + n2
        self._mean += delta * n2 / total_n
        self._m2 += other._m2 + delta * delta * n1 * n2 / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunningStats(count={self.count}, total={self.total:.6g}, "
            f"mean={self.mean:.6g}, min={self.min:.6g}, max={self.max:.6g})"
        )


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
