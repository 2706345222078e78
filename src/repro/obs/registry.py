"""The schema table: every record plane's tag and kinds, and the one rule.

The only module that names a schema tag or a kind set.  Five planes:

========================  =======================================================
schema                    record kinds
========================  =======================================================
``repro.telemetry/1``     span, instant, counter, gauge, histogram, flow
``repro.hostprof/1``      meta, timer, count, span, gc, process
``repro.pop-metrics/1``   window, phase, run_summary
``repro.health/1``        one kind per alert kind (windowed detectors, fault
                          watch, application alerts) plus the paired
                          ``<kind>.cleared`` edge events
``repro.steering/1``      decision
========================  =======================================================

:data:`SCHEMAS` maps each tag to its kind set, and :func:`screen` is the
one judgement of whether a record is interpretable — the bus refuses what
it labels, every reader skips or fails on it.  The plane modules import
their constants *from here*, so a schema bump happens in exactly one
place, and :func:`make_record` is the one way any plane stamps a
``{"schema": ..., "kind": ...}`` record — the payload key order is
preserved, which is what pins the byte format of every stream.

This module deliberately imports nothing from :mod:`repro.telemetry` (the
telemetry modules import *it*), so it can never participate in a cycle.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping

# -- schema tags (bump on layout change) -------------------------------------------

#: virtual-time telemetry records (spans, instants, counters, gauges,
#: histograms, provenance flows)
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: host-time self-profiling records (wall-clock timers, GC, RSS)
HOSTPROF_SCHEMA = "repro.hostprof/1"

#: time-resolved POP efficiency stream (windows, phases, run summary)
METRICS_SCHEMA = "repro.pop-metrics/1"

#: online health alerts (one record per raised/cleared alert)
HEALTH_SCHEMA = "repro.health/1"

#: adaptive-steering decision journal entries
STEERING_SCHEMA = "repro.steering/1"

# -- alert kinds (the health plane's kind set) -------------------------------------

#: Kinds raised by the health monitor's *windowed* detectors — conditions
#: that persist while their window statistic stays above threshold.  These
#: (and only these) get a paired edge-triggered ``<kind>.cleared`` alert.
WINDOWED_ALERT_KINDS = frozenset(
    {
        "stream_stall",
        "backlog_growth",
        "load_imbalance",
        "worker_starvation",
        "critical_path",
    }
)

#: Suffix of the paired clear event of a windowed alert kind.
CLEARED_SUFFIX = ".cleared"

#: Kinds raised edge-triggered from cumulative fault/defence counters
#: (the monitor's ``FAULT_WATCH`` table maps series onto these).
FAULT_ALERT_KINDS = frozenset(
    {
        "analyzer_crash",
        "analyzer_failover",
        "link_degraded",
        "pack_corruption",
        "pack_drop",
        "analyzer_stall",
        "pack_checksum_reject",
        "stream_write_timeout",
        "stream_overflow_drop",
    }
)

#: Application-level alert kinds (:mod:`repro.analysis.alerts`).
APP_ALERT_KINDS = frozenset({"waiting", "message_rate", "silence"})

HEALTH_KINDS = frozenset(
    WINDOWED_ALERT_KINDS
    | FAULT_ALERT_KINDS
    | APP_ALERT_KINDS
    | {kind + CLEARED_SUFFIX for kind in WINDOWED_ALERT_KINDS}
)

#: Record keys tried, in order, when a consumer needs "the" virtual
#: timestamp of a record (``repro.obs tail --since`` and friends).
TIME_KEYS = ("t_detect", "t", "t1", "t0", "t1_s", "t0_s")


#: The five record planes: each tag and its kind set.  Read-only — a
#: record is interpretable when :func:`screen` finds its tag and kind here.
SCHEMAS: Mapping[str, frozenset[str]] = MappingProxyType(
    {
        TELEMETRY_SCHEMA: frozenset(
            {"span", "instant", "counter", "gauge", "histogram", "flow"}
        ),
        HOSTPROF_SCHEMA: frozenset({"meta", "timer", "count", "span", "gc", "process"}),
        METRICS_SCHEMA: frozenset({"window", "phase", "run_summary"}),
        HEALTH_SCHEMA: HEALTH_KINDS,
        STEERING_SCHEMA: frozenset({"decision"}),
    }
)

#: One line per plane, as ``python -m repro.obs schemas`` prints it.
_DESCRIPTIONS = {
    TELEMETRY_SCHEMA: "virtual-time spans, counters, gauges, histograms, flows",
    HOSTPROF_SCHEMA: "host-time self-profiling (wall-clock timers, GC, RSS)",
    METRICS_SCHEMA: "time-resolved POP efficiency windows and phases",
    HEALTH_SCHEMA: "online health alerts (raised and cleared)",
    STEERING_SCHEMA: "adaptive-steering decision journal",
}


def screen(record: Any) -> str | None:
    """None if a consumer can interpret ``record``, else the label to count it under.

    Interpretable is a dict whose ``schema`` is a key of :data:`SCHEMAS`
    and whose ``kind`` is in that schema's set.  The label is the foreign
    tag, ``"<missing>"``, or ``"<schema>:<kind>"``.
    """
    tag = record.get("schema") if isinstance(record, dict) else None
    if not isinstance(tag, str):
        return "<missing>"
    kinds = SCHEMAS.get(tag)
    if kinds is None:
        return tag
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        return f"{tag}:{kind if isinstance(kind, str) else '<missing>'}"
    return None


def make_record(schema: str, kind: str, **payload: Any) -> dict[str, Any]:
    """Assemble one schema-tagged record: ``{"schema", "kind", **payload}``.

    This is the single record-assembly point every plane goes through
    (telemetry JSONL, hostprof JSONL, the POP metrics stream, the bus's
    health/steering bridges).  Keyword order is preserved and is part of
    each stream's byte format.  The payload may not itself carry
    ``schema`` or ``kind`` keys — pass them positionally.
    """
    return {"schema": schema, "kind": kind, **payload}


def record_time(record: dict[str, Any]) -> float | None:
    """The record's virtual timestamp, or None for time-less records.

    Planes stamp time under different keys (``t_detect`` for alerts,
    ``t`` for decisions and instants, ``t0``/``t1`` for spans and
    windows); consumers filtering on time (``repro.obs tail --since``)
    use the first key present, preferring end-of-interval stamps so a
    window is "at or after" ``--since`` when it *closed* then.
    """
    for key in TIME_KEYS:
        value = record.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None
