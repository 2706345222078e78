"""Instrument primitives: counters, gauges and histograms.

Every sample is stamped with the owning :class:`~repro.telemetry.Telemetry`'s
clock — virtual kernel seconds inside a simulation, host seconds for
standalone components such as the blackboard thread pool.  Gauges keep a
bounded ``(time, value)`` series (decimated in place once full) so buffer
occupancy and queue depth can be exported as Chrome trace counter tracks;
histograms keep a bounded sample reservoir for exact percentiles over the
retained samples.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.util.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry


class Counter:
    """A monotonically increasing sum (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-value gauge with a decimated time series for trace export."""

    #: series length at which every other sample is dropped
    MAX_SAMPLES = 4096

    __slots__ = ("name", "pid", "value", "max", "samples", "_stride", "_phase", "_tel")

    def __init__(self, name: str, tel: "Telemetry", pid: int = 0):
        self.name = name
        self.pid = pid
        self.value = 0.0
        self.max = 0.0
        self.samples: list[tuple[float, float]] = []
        self._stride = 1
        self._phase = 0
        self._tel = tel

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        self.samples.append((self._tel.now(), value))
        if len(self.samples) >= self.MAX_SAMPLES:
            # Keep every other retained sample and halve the sampling rate.
            del self.samples[::2]
            self._stride *= 2


class HistogramMetric:
    """Distribution summary with exact percentiles over retained samples."""

    #: reservoir length at which every other sample is dropped
    MAX_SAMPLES = 65536

    __slots__ = ("name", "count", "total", "min", "max", "samples", "_stride", "_phase")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self._stride = 1
        self._phase = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        self.samples.append(value)
        if len(self.samples) >= self.MAX_SAMPLES:
            del self.samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over retained samples."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile wants q in [0, 100], got {q}")
        return nearest_rank(sorted(self.samples), q)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class NullCounter:
    """No-op counter; a single shared instance backs disabled telemetry."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass


class NullGauge:
    """No-op gauge for disabled telemetry."""

    __slots__ = ()
    name = "null"
    pid = 0
    value = 0.0
    max = 0.0
    samples: list = []

    def set(self, value: float) -> None:
        pass


class NullHistogram:
    """No-op histogram for disabled telemetry."""

    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0
    mean = 0.0
    samples: list = []

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
