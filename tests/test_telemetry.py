"""Unit tests for the self-telemetry subsystem (repro.telemetry)."""

import json
import math

import pytest

from repro.telemetry.core import KERNEL_PID, NULL_TELEMETRY, Telemetry, rank_pid
from repro.telemetry.metrics import NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM, Gauge, HistogramMetric
from repro.telemetry.spans import NULL_SPAN


class ManualClock:
    """Deterministic clock for virtual-time assertions."""

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


class TestCounters:
    def test_get_or_create_is_idempotent(self, tel):
        c1 = tel.counter("kernel.events")
        c2 = tel.counter("kernel.events")
        assert c1 is c2

    def test_increments_accumulate(self, tel):
        c = tel.counter("bytes")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_float_increments(self, tel):
        c = tel.counter("cpu_s")
        c.inc(0.25)
        c.inc(0.75)
        assert c.value == pytest.approx(1.0)


class TestGauges:
    def test_keyed_by_name_and_pid(self, tel):
        g0 = tel.gauge("depth", pid=0)
        g1 = tel.gauge("depth", pid=1)
        assert g0 is not g1
        assert tel.gauge("depth", pid=0) is g0

    def test_tracks_last_and_max(self, tel, clock):
        g = tel.gauge("heap")
        g.set(3)
        clock.advance(1.0)
        g.set(7)
        clock.advance(1.0)
        g.set(2)
        assert g.value == 2
        assert g.max == 7
        assert [v for _t, v in g.samples] == [3, 7, 2]
        assert [t for t, _v in g.samples] == [0.0, 1.0, 2.0]

    def test_decimation_bounds_series(self, tel, clock):
        g = tel.gauge("depth")
        n = Gauge.MAX_SAMPLES * 4
        for i in range(n):
            clock.advance(1.0)
            g.set(i)
        assert len(g.samples) < Gauge.MAX_SAMPLES
        assert g.value == n - 1
        assert g.max == n - 1
        # Retained series stays time-ordered after in-place decimation.
        times = [t for t, _v in g.samples]
        assert times == sorted(times)


class TestHistograms:
    def test_percentiles_nearest_rank(self, tel):
        h = tel.histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        assert h.percentile(99) == 99.0
        assert h.percentile(100) == 100.0
        assert h.percentile(0) == 1.0
        assert h.mean == pytest.approx(50.5)
        assert h.count == 100
        assert h.min == 1.0 and h.max == 100.0

    def test_percentile_validates_q(self, tel):
        h = tel.histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_empty_histogram(self, tel):
        h = tel.histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0
        d = h.as_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["max"] == 0.0

    def test_reservoir_is_bounded(self, tel):
        h = tel.histogram("lat")
        for i in range(HistogramMetric.MAX_SAMPLES * 3):
            h.observe(float(i))
        assert len(h.samples) < HistogramMetric.MAX_SAMPLES
        assert h.count == HistogramMetric.MAX_SAMPLES * 3
        assert not math.isinf(h.min)

    def test_as_dict_shape(self, tel):
        h = tel.histogram("lat")
        h.observe(2.0)
        h.observe(4.0)
        d = h.as_dict()
        assert set(d) == {"count", "total", "mean", "min", "max", "p50", "p95", "p99"}
        assert d["mean"] == 3.0


class TestSpans:
    def test_virtual_time_monotonicity(self, tel, clock):
        spans = []
        for _ in range(5):
            s = tel.span("step")
            clock.advance(0.5)
            spans.append(s.end())
        for s in spans:
            assert s.t1 >= s.t0
        # Start times follow the clock: strictly increasing here.
        starts = [s.t0 for s in spans]
        assert starts == sorted(starts)
        assert spans[0].duration == pytest.approx(0.5)

    def test_nesting_by_containment(self, tel, clock):
        outer = tel.span("outer")
        clock.advance(1.0)
        inner = tel.span("inner")
        clock.advance(1.0)
        inner.end()
        clock.advance(1.0)
        outer.end()
        assert outer.t0 <= inner.t0 and inner.t1 <= outer.t1

    def test_double_end_raises(self, tel):
        s = tel.span("x")
        s.end()
        with pytest.raises(RuntimeError):
            s.end()

    def test_duration_before_end_raises(self, tel):
        s = tel.span("x")
        with pytest.raises(RuntimeError):
            _ = s.duration

    def test_end_merges_extra_args(self, tel):
        s = tel.span("x", args={"a": 1})
        s.end(b=2)
        assert s.args == {"a": 1, "b": 2}

    def test_context_manager_auto_ends(self, tel, clock):
        with tel.span("cm") as s:
            clock.advance(2.0)
        assert s.t1 == 2.0
        assert tel.spans == [s]

    def test_context_manager_respects_explicit_end(self, tel, clock):
        with tel.span("cm") as s:
            clock.advance(1.0)
            s.end()
            clock.advance(5.0)
        assert s.duration == pytest.approx(1.0)
        assert len(tel.spans) == 1


class TestDisabled:
    def test_null_singletons(self):
        assert NULL_TELEMETRY.counter("x") is NULL_COUNTER
        assert NULL_TELEMETRY.gauge("x") is NULL_GAUGE
        assert NULL_TELEMETRY.histogram("x") is NULL_HISTOGRAM
        assert NULL_TELEMETRY.span("x") is NULL_SPAN

    def test_nothing_recorded(self):
        NULL_TELEMETRY.counter("x").inc(5)
        NULL_TELEMETRY.gauge("x").set(5)
        NULL_TELEMETRY.histogram("x").observe(5)
        with NULL_TELEMETRY.span("x"):
            pass
        NULL_TELEMETRY.instant("x")
        NULL_TELEMETRY.name_track(1, "rank")
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.gauges == {}
        assert NULL_TELEMETRY.histograms == {}
        assert NULL_TELEMETRY.spans == []
        assert NULL_TELEMETRY.instants == []
        assert NULL_TELEMETRY.track_names == {}

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc(10)
        assert NULL_COUNTER.value == 0
        NULL_GAUGE.set(10)
        assert NULL_GAUGE.value == 0.0 and NULL_GAUGE.samples == []
        NULL_HISTOGRAM.observe(10)
        assert NULL_HISTOGRAM.count == 0
        assert NULL_HISTOGRAM.percentile(50) == 0.0
        assert NULL_SPAN.end(extra=1) is NULL_SPAN
        assert NULL_SPAN.duration == 0.0


class TestChromeTraceExport:
    def _populate(self, tel, clock):
        tel.name_track(KERNEL_PID, "simulation kernel")
        tel.name_track(rank_pid(0), "App[0]")
        s = tel.span("work", pid=rank_pid(0), cat="app", args={"n": 1})
        clock.advance(2.0)
        s.end()
        tel.instant("fire", pid=KERNEL_PID, cat="kernel")
        g = tel.gauge("depth", pid=KERNEL_PID)
        g.set(3)

    def test_event_fields_and_json_roundtrip(self, tel, clock):
        self._populate(tel, clock)
        blob = json.dumps(tel.chrome_trace())
        trace = json.loads(blob)
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        assert {e["ph"] for e in events} == {"M", "X", "i", "C"}
        for e in events:
            assert "ph" in e and "ts" in e and "pid" in e and "name" in e

    def test_span_timestamps_in_microseconds(self, tel, clock):
        self._populate(tel, clock)
        events = tel.chrome_trace()["traceEvents"]
        (x,) = [e for e in events if e["ph"] == "X"]
        assert x["ts"] == 0.0
        assert x["dur"] == pytest.approx(2.0 * 1e6)
        assert x["pid"] == rank_pid(0)
        assert x["args"] == {"n": 1}

    def test_process_name_metadata_rows(self, tel, clock):
        self._populate(tel, clock)
        events = tel.chrome_trace()["traceEvents"]
        meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert meta == {KERNEL_PID: "simulation kernel", rank_pid(0): "App[0]"}

    def test_write_chrome_trace(self, tel, clock, tmp_path):
        self._populate(tel, clock)
        path = tmp_path / "out.trace.json"
        returned = tel.write_chrome_trace(path)
        assert str(returned) == str(path)
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]


class TestJSONLExport:
    def test_record_kinds(self, tel, clock):
        tel.counter("c").inc()
        tel.gauge("g").set(1)
        tel.histogram("h").observe(1)
        tel.span("s").end()
        tel.instant("i")
        kinds = {r["kind"] for r in tel.jsonl_records()}
        assert kinds == {"counter", "gauge", "histogram", "span", "instant"}

    def test_write_jsonl(self, tel, tmp_path):
        tel.counter("c").inc(3)
        tel.span("s").end()
        path = tmp_path / "out.jsonl"
        tel.write_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["kind"] for r in records} == {"counter", "span"}


class TestSummaries:
    def test_headline_defaults(self, tel):
        head = tel.headline()
        assert head == {
            "events_dispatched": 0,
            "bytes_streamed": 0,
            "worker_utilization": None,
            "spans_recorded": 0,
        }

    def test_headline_with_data(self, tel):
        tel.counter("kernel.events_dispatched").inc(10)
        tel.counter("stream.bytes_written").inc(1024)
        tel.counter("blackboard.worker_busy_s").inc(3.0)
        tel.counter("blackboard.worker_idle_s").inc(1.0)
        tel.span("x").end()
        head = tel.headline()
        assert head["events_dispatched"] == 10
        assert head["bytes_streamed"] == 1024
        assert head["worker_utilization"] == pytest.approx(0.75)
        assert head["spans_recorded"] == 1

    def test_summary_shape(self, tel, clock):
        tel.counter("c").inc()
        tel.gauge("g", pid=1).set(4)
        tel.gauge("g", pid=2).set(6)
        tel.histogram("h").observe(1)
        s = tel.span("s")
        clock.advance(1.0)
        s.end()
        summary = tel.summary()
        assert set(summary) == {"headline", "counters", "gauges", "histograms", "spans"}
        assert summary["counters"] == {"c": 1}
        # Per-name gauge aggregation across pids.
        assert summary["gauges"]["g"] == {"last": 10.0, "peak": 6.0, "tracks": 2}
        assert summary["spans"]["s"] == {"count": 1, "total_s": pytest.approx(1.0)}
        json.dumps(summary)  # must be JSON-serializable as-is

    def test_span_totals_accumulate(self, tel, clock):
        for _ in range(3):
            s = tel.span("loop")
            clock.advance(2.0)
            s.end()
        totals = tel.span_totals()
        assert totals["loop"]["count"] == 3
        assert totals["loop"]["total_s"] == pytest.approx(6.0)

    def test_reset_drops_everything(self, tel):
        tel.counter("c").inc()
        tel.span("s").end()
        tel.name_track(1, "x")
        tel.reset()
        assert tel.counters == {} and tel.spans == [] and tel.track_names == {}


class TestClockBinding:
    def test_bind_clock_retimes_new_samples(self, tel):
        tel.bind_clock(lambda: 42.0)
        s = tel.span("x").end()
        assert s.t0 == 42.0 and s.t1 == 42.0

    def test_rank_pid_offset(self):
        assert rank_pid(0) == KERNEL_PID + 1
        assert rank_pid(7) == 8
