"""Ring-buffer time series and periodic instrument snapshots."""

import math

import pytest

from repro.errors import ConfigError
from repro.telemetry.core import Telemetry
from repro.telemetry.timeline import CUMULATIVE, LEVEL, Timeline, TimeSeries


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def tel(clock):
    return Telemetry(clock=clock)


class TestTimeSeries:
    def test_rejects_bad_kind_and_capacity(self):
        with pytest.raises(ConfigError):
            TimeSeries("x", kind="weird")
        with pytest.raises(ConfigError):
            TimeSeries("x", capacity=1)

    def test_append_and_points_in_order(self):
        ts = TimeSeries("x", LEVEL, capacity=8)
        for i in range(5):
            ts.append(float(i), float(i * 10))
        assert len(ts) == 5
        assert ts.points() == [(float(i), float(i * 10)) for i in range(5)]
        assert ts.latest() == (4.0, 40.0)

    def test_ring_wraps_and_stays_bounded(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=4)
        for i in range(10):
            ts.append(float(i), float(i))
        assert len(ts) == 4
        # Oldest retained samples are dropped, chronology is preserved.
        assert ts.points() == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert ts.latest() == (9.0, 9.0)

    def test_watermarks_survive_eviction(self):
        ts = TimeSeries("x", LEVEL, capacity=2)
        ts.append(0.0, 100.0)
        ts.append(1.0, 1.0)
        ts.append(2.0, 2.0)  # evicts the 100.0 sample
        assert ts.points() == [(1.0, 1.0), (2.0, 2.0)]
        assert ts.high_water == 100.0

    def test_window_filters_by_time(self):
        ts = TimeSeries("x", LEVEL, capacity=16)
        for i in range(10):
            ts.append(float(i), float(i))
        assert ts.window(3.0, 6.0) == [(3.0, 3.0), (4.0, 4.0), (5.0, 5.0), (6.0, 6.0)]
        assert ts.window(100.0) == []

    def test_window_stats_empty(self):
        ts = TimeSeries("x", LEVEL)
        stats = ts.window_stats(0.0)
        assert stats["n"] == 0
        assert stats["rate"] == 0.0

    def test_window_stats_rate_differentiates_cumulative(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=16)
        # 100 units per second of growth.
        for i in range(5):
            ts.append(i * 0.1, i * 10.0)
        stats = ts.window_stats(0.0)
        assert stats["n"] == 5
        assert stats["last"] == 40.0
        assert stats["rate"] == pytest.approx(100.0)

    def test_slope_least_squares(self):
        ts = TimeSeries("x", LEVEL, capacity=16)
        for i in range(8):
            ts.append(float(i), 3.0 * i + 1.0)
        assert ts.slope(-math.inf) == pytest.approx(3.0)
        flat = TimeSeries("y", LEVEL)
        flat.append(0.0, 5.0)
        assert flat.slope(-math.inf) == 0.0  # fewer than 2 points

    def test_decimated_keeps_newest(self):
        ts = TimeSeries("x", LEVEL, capacity=128)
        for i in range(100):
            ts.append(float(i), float(i))
        picked = ts.decimated(8)
        assert len(picked) == 8
        assert picked[-1] == (99.0, 99.0)
        assert picked == sorted(picked)
        with pytest.raises(ConfigError):
            ts.decimated(0)


class TestTimeline:
    def test_series_keys_and_kinds(self, tel, clock):
        tel.counter("kernel.events").inc(7)
        tel.gauge("depth", pid=1).set(3)
        tel.gauge("depth", pid=2).set(4)
        tel.histogram("lat").observe(0.5)
        tl = Timeline(tel)
        tl.sample(clock())
        assert tl.samples_taken == 1
        assert tl.get("counter.kernel.events").kind == CUMULATIVE
        assert tl.get("gauge.depth").kind == LEVEL
        assert tl.get("hist.lat.count").kind == CUMULATIVE
        assert tl.get("hist.lat.total").kind == CUMULATIVE
        # Multi-track gauges are summed into one total series.
        assert tl.get("gauge.depth").latest()[1] == 7.0
        assert tl.get("counter.kernel.events").latest()[1] == 7.0
        assert tl.get("missing") is None

    def test_every_sample_is_taken_and_stamped_by_the_caller(self, tel, clock):
        # No cadence of the timeline's own: two samples at one instant both land.
        ctr = tel.counter("bytes")
        tl = Timeline(tel, capacity=4)
        for _ in range(2):
            ctr.inc(100)
            tl.sample(clock())
        clock.advance(0.01)
        tl.sample(0.5)  # the stamp is the argument, not the telemetry clock
        assert tl.get("counter.bytes").points() == [(0.0, 100.0), (0.0, 200.0), (0.5, 200.0)]
        assert tl.samples_taken == 3


class TestWindowEdgeCases:
    """Windowing corners the monitor's detectors lean on."""

    def test_empty_window_between_samples(self):
        ts = TimeSeries("x", CUMULATIVE, capacity=8)
        ts.append(0.0, 1.0)
        ts.append(10.0, 2.0)
        stats = ts.window_stats(3.0, 7.0)  # a gap with no samples at all
        assert stats["n"] == 0
        assert stats["rate"] == 0.0
        assert stats["last"] == 0.0
        assert ts.window(3.0, 7.0) == []

    def test_single_sample_rate_is_zero(self):
        ts = TimeSeries("x", LEVEL, capacity=8)
        ts.append(1.0, 42.0)
        stats = ts.window_stats(0.0, 2.0)
        assert stats == {"n": 1, "last": 42.0, "rate": 0.0}  # dt == 0: no division

    def test_slope_on_constant_series_is_zero(self):
        ts = TimeSeries("x", LEVEL, capacity=32)
        for i in range(10):
            ts.append(float(i), 7.5)
        assert ts.slope(-math.inf) == 0.0
        # Constant *time* (all samples at one instant) must not blow up
        # either: the denominator degenerates to zero.
        stacked = TimeSeries("y", LEVEL, capacity=8)
        for value in (1.0, 2.0, 3.0):
            stacked.append(5.0, value)
        assert stacked.slope(-math.inf) == 0.0

    def test_wraparound_during_open_window(self):
        # The ring evicts the oldest samples while a window is still open:
        # stats must reflect only retained points, in chronological order.
        ts = TimeSeries("x", CUMULATIVE, capacity=8)
        for i in range(20):
            ts.append(float(i), float(i) * 10.0)
        pts = ts.window(-math.inf)
        assert len(pts) == 8  # bounded by capacity
        assert pts == sorted(pts)  # chronological despite the wrap
        assert pts[0] == (12.0, 120.0)  # oldest retained, not t=0
        stats = ts.window_stats(-math.inf)
        assert stats["n"] == 8
        assert stats["last"] == 190.0
        assert stats["rate"] == pytest.approx(10.0)  # from 120.0 at t=12, not 0.0 at t=0
        # The watermark still remembers evicted extremes.
        assert ts.high_water == 190.0
