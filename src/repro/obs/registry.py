"""The central schema registry: one authority for every record plane.

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

The plane modules import their constants *from here*, so a schema bump
happens in exactly one place, and :func:`make_record` is the one way any
plane stamps a ``{"schema": ..., "kind": ...}`` record — the payload key
order is preserved, which is what pins the byte format of every stream.

This module deliberately imports nothing from :mod:`repro.telemetry` (the
telemetry modules import *it*), so it can never participate in a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ConfigError

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

# -- per-schema kind sets ----------------------------------------------------------

TELEMETRY_KINDS = frozenset(
    {"span", "instant", "counter", "gauge", "histogram", "flow"}
)

HOSTPROF_KINDS = frozenset({"meta", "timer", "count", "span", "gc", "process"})

METRICS_KINDS = frozenset({"window", "phase", "run_summary"})

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

STEERING_KINDS = frozenset({"decision"})

#: Record keys tried, in order, when a consumer needs "the" virtual
#: timestamp of a record (``repro.obs tail --since`` and friends).
TIME_KEYS = ("t_detect", "t", "t1", "t0", "t1_s", "t0_s")


@dataclass(frozen=True)
class SchemaSpec:
    """One registered record plane: its tag, kinds, and provenance."""

    name: str  # e.g. "repro.telemetry/1"
    kinds: frozenset[str]
    description: str = ""

    def __post_init__(self) -> None:
        if "/" not in self.name:
            raise ConfigError(
                f"schema tag {self.name!r} must look like 'family/version'"
            )
        if not self.kinds:
            raise ConfigError(f"schema {self.name!r} registered with no kinds")


class SchemaRegistry:
    """Registry of every record plane a bus or reader may encounter."""

    def __init__(self, specs: Iterable[SchemaSpec] = ()):
        self._specs: dict[str, SchemaSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: SchemaSpec) -> SchemaSpec:
        if spec.name in self._specs:
            raise ConfigError(f"schema {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> SchemaSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigError(
                f"unknown schema {name!r}; known: {', '.join(self.known())}"
            ) from None

    def known(self) -> tuple[str, ...]:
        """Every registered schema tag, sorted."""
        return tuple(sorted(self._specs))

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def kinds_for(self, name: str) -> frozenset[str]:
        return self.get(name).kinds

    def validate(self, record: Any) -> SchemaSpec:
        """Check one record against the registry; returns its spec.

        Raises :class:`ConfigError` on anything a downstream consumer could
        not safely render: a non-dict record, a missing or unregistered
        ``schema`` tag, or a ``kind`` outside the schema's kind set.
        """
        if not isinstance(record, dict):
            raise ConfigError(
                f"observability record must be a dict, got {type(record).__name__}"
            )
        schema = record.get("schema")
        if not isinstance(schema, str):
            raise ConfigError(f"record carries no schema tag: {record!r:.120}")
        spec = self.get(schema)
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in spec.kinds:
            raise ConfigError(
                f"schema {schema!r} has no record kind {kind!r} "
                f"(known: {', '.join(sorted(spec.kinds))})"
            )
        return spec


def default_registry() -> SchemaRegistry:
    """A fresh registry pre-loaded with all five built-in record planes."""
    return SchemaRegistry(
        [
            SchemaSpec(
                TELEMETRY_SCHEMA,
                TELEMETRY_KINDS,
                "virtual-time spans, counters, gauges, histograms, flows",
            ),
            SchemaSpec(
                HOSTPROF_SCHEMA,
                HOSTPROF_KINDS,
                "host-time self-profiling (wall-clock timers, GC, RSS)",
            ),
            SchemaSpec(
                METRICS_SCHEMA,
                METRICS_KINDS,
                "time-resolved POP efficiency windows and phases",
            ),
            SchemaSpec(
                HEALTH_SCHEMA,
                HEALTH_KINDS,
                "online health alerts (raised and cleared)",
            ),
            SchemaSpec(
                STEERING_SCHEMA,
                STEERING_KINDS,
                "adaptive-steering decision journal",
            ),
        ]
    )


#: The shared default registry (the five built-in planes).  Callers that
#: grow private schemas should build their own via :func:`default_registry`
#: and :meth:`SchemaRegistry.register` rather than mutating this one.
REGISTRY = default_registry()


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
