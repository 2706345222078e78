"""Ring-buffer time series over the telemetry instruments.

The monitor's data plane, and the session's one ring of samples: at every
tick of the :class:`~repro.telemetry.monitor.HealthMonitor` a
:class:`Timeline` snapshots every counter, gauge and histogram of one
:class:`~repro.telemetry.Telemetry` into fixed-capacity ring buffers stamped
in virtual kernel time, so the online detectors (and the report's watched
series) can ask windowed questions — rate over the last window, trend slope,
high-water mark — with strictly bounded memory regardless of run length.
It keeps what that one reader reads and nothing else.

Two series kinds exist: ``"cum"`` series hold cumulative values (counter
values, histogram count/total) whose first derivative is the interesting
signal, and ``"level"`` series hold instantaneous levels (gauge values).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry

#: cumulative series: monotone totals, differentiate for rates
CUMULATIVE = "cum"
#: level series: instantaneous values, aggregate over the window
LEVEL = "level"


class TimeSeries:
    """Fixed-capacity ring of ``(t, value)`` samples in virtual time."""

    __slots__ = ("name", "kind", "_buf", "high_water")

    def __init__(self, name: str, kind: str = LEVEL, capacity: int = 256):
        if kind not in (CUMULATIVE, LEVEL):
            raise ConfigError(f"unknown series kind {kind!r}")
        if capacity < 2:
            raise ConfigError(f"series capacity must be >= 2, got {capacity}")
        self.name = name
        self.kind = kind
        self._buf: deque[tuple[float, float]] = deque(maxlen=capacity)
        self.high_water = -math.inf  # survives eviction

    def append(self, t: float, value: float) -> None:
        value = float(value)
        if value > self.high_water:
            self.high_water = value
        self._buf.append((t, value))

    def __len__(self) -> int:
        return len(self._buf)

    def points(self) -> list[tuple[float, float]]:
        """Retained samples in chronological order."""
        return list(self._buf)

    def latest(self) -> tuple[float, float] | None:
        return self._buf[-1] if self._buf else None

    def window(self, t_lo: float, t_hi: float = math.inf) -> list[tuple[float, float]]:
        """Retained samples with ``t_lo <= t <= t_hi``."""
        return [(t, v) for t, v in self.points() if t_lo <= t <= t_hi]

    # -- windowed aggregates -----------------------------------------------------

    def window_stats(self, t_lo: float, t_hi: float = math.inf) -> dict[str, float]:
        """Sample count, newest value and rate over one window.

        ``rate`` is the first derivative over the window endpoints — the
        natural reading of a cumulative series (events/s, bytes/s, stalled
        seconds per second); for level series it is the net drift rate.
        """
        pts = self.window(t_lo, t_hi)
        if not pts:
            return {"n": 0, "last": 0.0, "rate": 0.0}
        t_first, v_first = pts[0]
        t_last, v_last = pts[-1]
        dt = t_last - t_first
        rate = (v_last - v_first) / dt if dt > 0 else 0.0
        return {"n": float(len(pts)), "last": v_last, "rate": rate}

    def slope(self, t_lo: float) -> float:
        """Least-squares trend (value units per second) since ``t_lo``."""
        pts = self.window(t_lo)
        if len(pts) < 2:
            return 0.0
        n = len(pts)
        mean_t = sum(t for t, _v in pts) / n
        mean_v = sum(v for _t, v in pts) / n
        num = sum((t - mean_t) * (v - mean_v) for t, v in pts)
        den = sum((t - mean_t) ** 2 for t, _v in pts)
        return num / den if den > 0 else 0.0

    def decimated(self, max_points: int = 16) -> list[tuple[float, float]]:
        """At most ``max_points`` evenly spaced retained samples (for tables)."""
        if max_points < 1:
            raise ConfigError(f"max_points must be >= 1, got {max_points}")
        pts = self.points()
        if len(pts) <= max_points:
            return pts
        stride = len(pts) / max_points
        picked = [pts[int(i * stride)] for i in range(max_points)]
        picked[-1] = pts[-1]  # always keep the newest sample
        return picked


class Timeline:
    """Snapshots of every instrument into bounded ring series.

    Series keys: ``counter.<name>`` (cumulative), ``gauge.<name>`` (level,
    summed across tracks so multi-rank gauges read as totals) and
    ``hist.<name>.count`` / ``hist.<name>.total`` (cumulative).  The owner
    decides when to sample; there is no cadence of the timeline's own.
    """

    def __init__(self, telemetry: "Telemetry", capacity: int = 256):
        self.telemetry = telemetry
        self.capacity = capacity
        self.series: dict[str, TimeSeries] = {}
        self.samples_taken = 0

    def _series(self, key: str, kind: str) -> TimeSeries:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = TimeSeries(key, kind, self.capacity)
        return series

    def get(self, key: str) -> TimeSeries | None:
        return self.series.get(key)

    def sample(self, now: float) -> None:
        """Snapshot all instruments, stamped ``now``."""
        tel = self.telemetry
        self.samples_taken += 1
        for name, counter in tel.counters.items():
            self._series(f"counter.{name}", CUMULATIVE).append(now, counter.value)
        by_name: dict[str, float] = {}
        for gauge in tel.gauges.values():
            by_name[gauge.name] = by_name.get(gauge.name, 0.0) + gauge.value
        for name, total in by_name.items():
            self._series(f"gauge.{name}", LEVEL).append(now, total)
        for name, hist in tel.histograms.items():
            self._series(f"hist.{name}.count", CUMULATIVE).append(now, hist.count)
            self._series(f"hist.{name}.total", CUMULATIVE).append(now, hist.total)
