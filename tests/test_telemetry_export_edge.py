"""Exporter edge cases: unfinished spans, nested-unclosed spans, empty state."""

import json

import pytest

from repro.telemetry.core import Telemetry
from repro.telemetry.export import chrome_trace_dict, jsonl_records


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


class TestEmptyTelemetry:
    def test_chrome_trace_of_empty_registry_is_valid(self, tel):
        trace = chrome_trace_dict(tel)
        json.dumps(trace)
        assert trace["traceEvents"] == []

    def test_jsonl_of_empty_registry_is_empty_list(self, tel):
        assert jsonl_records(tel) == []

    def test_empty_files_written(self, tel, tmp_path):
        trace_path = tel.write_chrome_trace(str(tmp_path / "t.trace.json"))
        jsonl_path = tel.write_jsonl(str(tmp_path / "t.jsonl"))
        assert json.loads(open(trace_path).read())["traceEvents"] == []
        assert open(jsonl_path).read() == ""


class TestUnfinishedSpans:
    def test_open_span_is_clamped_and_tagged(self, tel, clock):
        span = tel.span("stuck", pid=1, cat="stream")
        clock.advance(2.0)
        trace = chrome_trace_dict(tel)
        json.dumps(trace)
        rows = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(rows) == 1
        assert rows[0]["dur"] == pytest.approx(2.0 * 1e6)  # clamped to now
        assert rows[0]["args"]["unfinished"] is True
        assert span.t1 is None  # export did not close the span

    def test_nested_unclosed_spans_all_export(self, tel, clock):
        outer = tel.span("outer", pid=1)
        clock.advance(1.0)
        tel.span("inner", pid=1)  # nested and never closed
        clock.advance(1.0)
        trace = chrome_trace_dict(tel)
        rows = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        assert set(rows) == {"outer", "inner"}
        assert rows["outer"]["dur"] == pytest.approx(2.0 * 1e6)
        assert rows["inner"]["dur"] == pytest.approx(1.0 * 1e6)
        assert outer.t1 is None

    def test_jsonl_marks_open_spans(self, tel, clock):
        tel.span("open", pid=1)
        clock.advance(0.5)
        records = jsonl_records(tel)
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == 1
        assert spans[0]["t1"] is None
        assert spans[0]["unfinished"] is True
        json.dumps(records)

    def test_mixed_closed_and_open(self, tel, clock):
        done = tel.span("done", pid=1)
        clock.advance(1.0)
        done.end()
        tel.span("open", pid=1)
        clock.advance(1.0)
        records = [r for r in jsonl_records(tel) if r["kind"] == "span"]
        by_name = {r["name"]: r for r in records}
        assert by_name["done"]["t1"] == 1.0
        assert "unfinished" not in by_name["done"]
        assert by_name["open"]["unfinished"] is True

    def test_ending_after_export_moves_span_to_closed(self, tel, clock):
        span = tel.span("late", pid=1)
        clock.advance(1.0)
        chrome_trace_dict(tel)  # export while open
        span.end()
        assert tel.open_spans() == []
        rows = [
            e for e in chrome_trace_dict(tel)["traceEvents"] if e["ph"] == "X"
        ]
        assert len(rows) == 1  # not duplicated
        assert "args" not in rows[0] or "unfinished" not in rows[0].get("args", {})

    def test_open_span_counts_once(self, tel, clock):
        tel.span("only", pid=1)
        clock.advance(1.0)
        rows = [
            e for e in chrome_trace_dict(tel)["traceEvents"] if e["ph"] == "X"
        ]
        assert len(rows) == 1

    def test_reset_clears_open_spans(self, tel, clock):
        tel.span("gone", pid=1)
        tel.reset()
        assert tel.open_spans() == []
        assert jsonl_records(tel) == []

    def test_open_span_before_clock_regression_keeps_nonnegative_dur(self, tel, clock):
        # A span opened "in the future" relative to the export clock (clock
        # rebind mid-run) must still clamp to a non-negative duration.
        clock.advance(5.0)
        tel.span("future", pid=1)
        clock.t = 1.0
        rows = [
            e for e in chrome_trace_dict(tel)["traceEvents"] if e["ph"] == "X"
        ]
        assert rows[0]["dur"] == 0.0
