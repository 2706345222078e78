"""Export views: Chrome trace-event JSON and JSONL records.

The Chrome format (one ``traceEvents`` array of ``ph``-tagged dicts) loads
directly in Perfetto or ``chrome://tracing``: spans become complete ``"X"``
events, instants ``"i"`` events, gauge series ``"C"`` counter tracks, and
every named track gets a ``process_name`` metadata row — one process row per
simulated rank.  Timestamps are virtual seconds scaled to microseconds, the
unit both viewers expect.

JSONL is one self-describing record per line (spans, instants, counters,
gauges, histograms, flows), convenient for ad-hoc ``jq``/pandas digestion.
Every record carries the ``repro.telemetry/1`` schema tag so downstream
consumers can detect layout changes; the per-kind record formats are
documented in DESIGN §10.  :class:`~repro.telemetry.core.Telemetry` writes both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.registry import TELEMETRY_SCHEMA, make_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry

_US = 1e6  # trace-event timestamps are microseconds


def chrome_trace_dict(tel: "Telemetry") -> dict[str, Any]:
    """The full trace as one JSON-serializable dict.

    Valid for any telemetry state, not just a finished run: spans that are
    still open (or were recorded without an end) are clamped to the current
    clock and tagged ``unfinished`` so a mid-run export loads cleanly.
    """
    events: list[dict[str, Any]] = []
    now = tel.now()
    for pid, label in sorted(tel.track_names.items()):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": label},
            }
        )
    for span in list(tel.spans) + tel.open_spans():
        t1 = span.t1
        unfinished = t1 is None
        if unfinished:
            t1 = max(now, span.t0)
        event: dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": span.cat or "span",
            "pid": span.pid,
            "tid": span.tid,
            "ts": span.t0 * _US,
            "dur": (t1 - span.t0) * _US,
        }
        if span.args or unfinished:
            event["args"] = dict(span.args or {})
            if unfinished:
                event["args"]["unfinished"] = True
        events.append(event)
    for inst in tel.instants:
        event = {
            "ph": "i",
            "name": inst["name"],
            "cat": inst.get("cat") or "instant",
            "pid": inst["pid"],
            "tid": 0,
            "ts": inst["t"] * _US,
            "s": "p",
        }
        if inst.get("args"):
            event["args"] = inst["args"]
        events.append(event)
    for gauge in tel.gauges.values():
        for t, value in gauge.samples:
            events.append(
                {
                    "ph": "C",
                    "name": gauge.name,
                    "pid": gauge.pid,
                    "tid": 0,
                    "ts": t * _US,
                    "args": {"value": value},
                }
            )
    events.extend(flow_events(tel))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def flow_events(tel: "Telemetry") -> list[dict[str, Any]]:
    """Provenance flows as Chrome flow events (``ph:"s"/"f"`` arrows).

    Each traced pack that both left its producer and reached a consumer
    draws one arrow from the producer rank's track (at send time) to the
    analyzer rank's track (at read time), so causal pack movement is
    visible between process rows in Perfetto.  Requires a flow registry
    attached via :meth:`Telemetry.attach_flows`; otherwise empty.
    """
    registry = getattr(tel, "flows", None)
    if registry is None:
        return []
    from repro.telemetry.core import rank_pid

    events: list[dict[str, Any]] = []
    for record in registry.records():
        t_send = record.t_send if record.t_send is not None else record.t_enqueue
        t_read = record.t_read
        if t_send is None or t_read is None or record.consumer_global is None:
            continue
        common = {"name": "pack_flow", "cat": "flow", "id": record.flow_id, "tid": 0}
        events.append(
            {
                **common,
                "ph": "s",
                "pid": rank_pid(record.origin_global),
                "ts": t_send * _US,
            }
        )
        if record.t_arrive is not None:
            events.append(
                {
                    **common,
                    "ph": "t",
                    "pid": rank_pid(record.consumer_global),
                    "ts": record.t_arrive * _US,
                }
            )
        events.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "pid": rank_pid(record.consumer_global),
                "ts": t_read * _US,
            }
        )
    return events


def jsonl_records(tel: "Telemetry") -> list[dict[str, Any]]:
    """One self-describing record per telemetry datum.

    Works on any state, including a completely empty registry (the result
    is an empty list — a valid, empty JSONL document) and mid-run exports
    with open spans (``t1`` null, ``unfinished`` true).
    """
    records: list[dict[str, Any]] = []
    for span in list(tel.spans) + tel.open_spans():
        record = make_record(
            TELEMETRY_SCHEMA,
            "span",
            name=span.name,
            cat=span.cat,
            pid=span.pid,
            t0=span.t0,
            t1=span.t1,
            args=span.args,
        )
        if span.t1 is None:
            record["unfinished"] = True
        records.append(record)
    for inst in tel.instants:
        records.append(make_record(TELEMETRY_SCHEMA, "instant", **inst))
    for counter in tel.counters.values():
        records.append(
            make_record(
                TELEMETRY_SCHEMA, "counter", name=counter.name, value=counter.value
            )
        )
    for gauge in tel.gauges.values():
        records.append(
            make_record(
                TELEMETRY_SCHEMA,
                "gauge",
                name=gauge.name,
                pid=gauge.pid,
                last=gauge.value,
                max=gauge.max,
                samples=gauge.samples,
            )
        )
    for histogram in tel.histograms.values():
        records.append(
            make_record(
                TELEMETRY_SCHEMA,
                "histogram",
                name=histogram.name,
                **histogram.as_dict(),
            )
        )
    registry = getattr(tel, "flows", None)
    if registry is not None:
        for flow in registry.records():
            records.append(make_record(TELEMETRY_SCHEMA, "flow", **flow.as_dict()))
    return records
