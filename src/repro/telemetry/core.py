"""The telemetry facade: registry of instruments + span tracer + summaries.

One :class:`Telemetry` instance is shared by a whole simulation (kernel,
streams, mapping, blackboard, analysis engine); its clock is bound to the
kernel's virtual time at construction of the :class:`~repro.simt.Kernel`, so
every metric and span is stamped in simulated seconds.  Standalone
components (e.g. the blackboard thread pool) fall back to the host
monotonic clock.

The disabled singleton :data:`NULL_TELEMETRY` hands out shared no-op
instruments; hot call sites additionally guard on ``tel.enabled`` so a
simulation without telemetry pays one attribute load and one branch per
instrumentation point.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.obs.sinks import write_records
from repro.telemetry.export import chrome_trace_dict, jsonl_records
from repro.telemetry.hostprof import host_now
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    HistogramMetric,
)
from repro.telemetry.spans import NULL_SPAN, Span

#: Chrome-trace process row of the simulation kernel itself.
KERNEL_PID = 0


def rank_pid(global_rank: int) -> int:
    """Trace process row of a simulated rank (offset past the kernel row)."""
    return global_rank + 1


class Telemetry:
    """Metrics registry + span tracer with Chrome-trace and JSONL export."""

    def __init__(self, enabled: bool = True, clock: Callable[[], float] | None = None):
        self.enabled = enabled
        # Fallback to the injectable hostprof clock (standalone components
        # without a kernel); bind_clock() points it at virtual time.
        self._clock = clock or host_now
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[tuple[str, int], Gauge] = {}
        self.histograms: dict[str, HistogramMetric] = {}
        self.spans: list[Span] = []
        self.instants: list[dict[str, Any]] = []
        self.track_names: dict[int, str] = {}
        self._open: dict[int, Span] = {}
        #: Attached FlowRegistry (causal pack tracing), when a session runs
        #: with provenance enabled; exporters draw flow arrows from it.
        self.flows = None

    def attach_flows(self, registry) -> None:
        """Bind a flow registry so exports include provenance flow events."""
        self.flows = registry

    # -- clock -------------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the clock at a time source (the kernel binds virtual time)."""
        self._clock = clock

    # -- instruments -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, pid: int = KERNEL_PID) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        gauge = self.gauges.get((name, pid))
        if gauge is None:
            gauge = self.gauges[(name, pid)] = Gauge(name, self, pid=pid)
        return gauge

    def histogram(self, name: str) -> HistogramMetric:
        if not self.enabled:
            return NULL_HISTOGRAM
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = HistogramMetric(name)
        return histogram

    # -- tracing ------------------------------------------------------------------

    def span(
        self,
        name: str,
        pid: int = KERNEL_PID,
        cat: str = "",
        args: dict[str, Any] | None = None,
    ) -> Span:
        """Open a span at the current clock; caller ends it."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, pid=pid, tid=0, cat=cat, args=args)

    def _open_span(self, span: Span) -> None:
        self._open[id(span)] = span

    def _record_span(self, span: Span) -> None:
        self._open.pop(id(span), None)
        self.spans.append(span)

    def open_spans(self) -> list[Span]:
        """Spans begun but not yet ended, in start order (mid-run view)."""
        return sorted(self._open.values(), key=lambda s: s.t0)

    def instant(
        self,
        name: str,
        cat: str = "",
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a zero-duration marker event on the kernel's track."""
        if not self.enabled:
            return
        self.instants.append(
            {"name": name, "pid": KERNEL_PID, "cat": cat, "t": self.now(), "args": args}
        )

    def name_track(self, pid: int, label: str) -> None:
        """Label one trace process row (rank or kernel)."""
        if self.enabled:
            self.track_names[pid] = label

    # -- summaries ----------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per-span-name count and summed virtual duration."""
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            # A span recorded without an end (exporter robustness path)
            # counts as zero-duration rather than crashing the summary.
            if span.t1 is not None:
                entry["total_s"] += span.t1 - span.t0
        return totals

    def headline(self) -> dict[str, Any]:
        """The key self-telemetry figures (bench JSON summary block)."""
        busy = self.counters.get("blackboard.worker_busy_s")
        idle = self.counters.get("blackboard.worker_idle_s")
        utilization = None
        if busy is not None and idle is not None and busy.value + idle.value > 0:
            utilization = busy.value / (busy.value + idle.value)
        events = self.counters.get("kernel.events_dispatched")
        streamed = self.counters.get("stream.bytes_written")
        return {
            "events_dispatched": events.value if events else 0,
            "bytes_streamed": streamed.value if streamed else 0,
            "worker_utilization": utilization,
            "spans_recorded": len(self.spans),
        }

    def summary(self) -> dict[str, Any]:
        """Everything reduced to plain dicts (report section, bench JSON)."""
        gauges: dict[str, dict[str, float]] = {}
        for gauge in self.gauges.values():
            # ``last`` sums the final values across tracks (total occupancy);
            # ``peak`` is the highest single-track value ever seen.
            entry = gauges.setdefault(gauge.name, {"last": 0.0, "peak": 0.0, "tracks": 0})
            entry["last"] += gauge.value
            entry["peak"] = max(entry["peak"], gauge.max)
            entry["tracks"] += 1
        return {
            "headline": self.headline(),
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": dict(sorted(gauges.items())),
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
            "spans": dict(sorted(self.span_totals().items())),
        }

    # -- export --------------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        return chrome_trace_dict(self)

    def jsonl_records(self) -> list[dict[str, Any]]:
        return jsonl_records(self)

    def write_chrome_trace(self, path: str) -> str:
        """Write the Perfetto/``chrome://tracing``-loadable trace file."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return path

    def write_jsonl(self, path: str) -> str:
        """Write one JSON object per line."""
        return write_records(path, self.jsonl_records())

    # -- lifecycle -----------------------------------------------------------------

    def reset(self) -> None:
        """Drop all recorded data (instrument handles become stale)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self.instants.clear()
        self.track_names.clear()
        self._open.clear()


#: Shared disabled instance: the default for every kernel/world/blackboard.
NULL_TELEMETRY = Telemetry(enabled=False)
