"""The ObservabilityBus: one streaming record plane for every exporter.

The paper's thesis — measurements should flow as *streams* consumed online,
not post-mortem files — applied to the reproduction's own observability
output.  Every plane (virtual-time telemetry, host-time profiling, POP
efficiency windows, health alerts, steering decisions) publishes
schema-tagged records into one bus; pluggable sinks fan them out:

* :class:`~repro.obs.sinks.FileSink` — JSONL/NDJSON files, the one place
  a record becomes a line on disk;
* :class:`~repro.obs.sinks.RingSink` — a bounded in-memory ring for live
  queries mid-run;
* :class:`~repro.obs.sinks.TailServer` — a line-delimited TCP/Unix-socket
  feed for live tailing (``python -m repro.obs tail HOST:PORT``) and the
  future analyzer service.

Publishing **validates**: a record :func:`~repro.obs.registry.screen`
labels (no known schema tag, or a kind outside its schema's kind set) is
rejected with :class:`~repro.errors.ConfigError` naming the label, and
counted — garbage never reaches a sink.  Each sink is wrapped in a
:class:`SinkBinding` that tracks delivery, drops (a full ring, a slow tail
client) and write errors per sink, so the observability layer reports on
itself: :meth:`ObservabilityBus.summary` is what
:attr:`~repro.core.session.SessionResult.obs` and the report's
"Observability" section render.

The bus is synchronous and allocation-light: one dict lookup per publish
for validation, one ``emit`` per subscribed sink.  When a session does not
call ``enable_observability()`` no bus exists at all — zero cost — and an
enabled bus never touches the simulation (sinks only *observe*), so an
enabled-but-idle run is bit-identical to the seed.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ConfigError
from repro.obs.registry import SCHEMAS, screen

__all__ = ["ObservabilityBus", "SinkBinding"]


class SinkBinding:
    """One subscribed sink plus its per-sink delivery accounting."""

    __slots__ = ("sink", "name", "schemas", "delivered", "dropped", "errors")

    def __init__(self, sink: Any, name: str, schemas: frozenset[str] | None):
        self.sink = sink
        self.name = name
        #: None = subscribe to every schema; else the subscribed subset
        self.schemas = schemas
        self.delivered = 0
        self.dropped = 0
        self.errors = 0

    def wants(self, schema: str) -> bool:
        return self.schemas is None or schema in self.schemas

    def stats(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "sink": self.name,
            "schemas": sorted(self.schemas) if self.schemas is not None else "all",
            "delivered": self.delivered,
            "dropped": self.dropped,
            "errors": self.errors,
        }
        extra = getattr(self.sink, "stats", None)
        if callable(extra):
            out.update(extra())
        return out


class ObservabilityBus:
    """Validate-on-publish fan-out hub for schema-tagged records.

    A sink is any object with ``emit(record) -> bool`` (True = delivered,
    False = dropped by the sink's own backpressure policy) and optionally
    ``close()`` and ``stats() -> dict``.  An ``emit`` that *raises* is
    counted as a sink error and swallowed: one broken sink must not take
    down the others, and never the simulation.
    """

    def __init__(self) -> None:
        self.bindings: list[SinkBinding] = []
        #: records accepted, per (schema, kind)
        self.counts: dict[tuple[str, str], int] = {}
        self.published = 0
        self.rejected = 0
        self._closed = False

    # -- wiring -------------------------------------------------------------------

    def add_sink(
        self,
        sink: Any,
        schemas: Iterable[str] | None = None,
        name: str | None = None,
    ) -> SinkBinding:
        """Subscribe a sink, optionally to a subset of schemas.

        Every schema in ``schemas`` must be in :data:`SCHEMAS` — subscribing
        to a typo'd tag would otherwise silently deliver nothing forever.
        """
        if not callable(getattr(sink, "emit", None)):
            raise ConfigError(f"observability sink {sink!r} lacks an emit method")
        subset: frozenset[str] | None = None
        if schemas is not None:
            subset = frozenset(schemas)
            for schema in subset:
                if schema not in SCHEMAS:
                    raise ConfigError(
                        f"unknown schema {schema!r}; known: {', '.join(sorted(SCHEMAS))}"
                    )
        binding = SinkBinding(sink, name or type(sink).__name__, subset)
        self.bindings.append(binding)
        return binding

    # -- publish path -------------------------------------------------------------

    def publish(self, record: dict[str, Any]) -> dict[str, Any]:
        """Validate one record and deliver it to every subscribed sink.

        Returns the record (for chaining).  Raises
        :class:`~repro.errors.ConfigError` on a malformed record — after
        counting the rejection, so the bus's self-accounting survives the
        caller catching the error.
        """
        if self._closed:
            raise ConfigError("observability bus is closed")
        label = screen(record)
        if label is not None:
            self.rejected += 1
            raise ConfigError(f"uninterpretable record ({label}): {record!r:.120}")
        schema, kind = record["schema"], record["kind"]
        self.published += 1
        key = (schema, kind)
        self.counts[key] = self.counts.get(key, 0) + 1
        for binding in self.bindings:
            if not binding.wants(schema):
                continue
            try:
                delivered = binding.sink.emit(record)
            except Exception:
                binding.errors += 1
                continue
            if delivered is False:
                binding.dropped += 1
            else:
                binding.delivered += 1
        return record

    def emit(self, record: dict[str, Any]) -> bool:
        """The sink protocol's spelling of :meth:`publish`: the bus is a sink."""
        self.publish(record)
        return True

    def publish_all(self, records: Iterable[dict[str, Any]]) -> int:
        """Publish a batch; returns how many were accepted."""
        n = 0
        for record in records:
            self.publish(record)
            n += 1
        return n

    # -- introspection ------------------------------------------------------------

    def count(self, schema: str, kind: str | None = None) -> int:
        """Accepted records for one schema (optionally one kind)."""
        if kind is not None:
            return self.counts.get((schema, kind), 0)
        return sum(n for (s, _k), n in self.counts.items() if s == schema)

    def by_schema(self) -> dict[str, dict[str, int]]:
        """Accepted record counts nested as ``{schema: {kind: n}}``."""
        out: dict[str, dict[str, int]] = {}
        for (schema, kind), n in sorted(self.counts.items()):
            out.setdefault(schema, {})[kind] = n
        return out

    def summary(self) -> dict[str, Any]:
        """JSON-serializable self-accounting for reports and bench artefacts."""
        return {
            "published": self.published,
            "rejected": self.rejected,
            "schemas": self.by_schema(),
            "sinks": [binding.stats() for binding in self.bindings],
        }

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Close every sink that has a close method; idempotent."""
        if self._closed:
            return
        self._closed = True
        for binding in self.bindings:
            close = getattr(binding.sink, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:
                    binding.errors += 1
