"""Unified observability bus: one streaming record plane for the system.

The reproduction grew five observability planes PR by PR — virtual-time
telemetry JSONL, host-time profiling, the POP efficiency NDJSON stream,
health alerts, steering decisions — each with its own schema tag, writer
and file format.  This package gives them a single in-situ feed, in the
spirit of the paper's own thesis (measurements as online streams, not
post-mortem files):

* :mod:`repro.obs.registry` — :data:`SCHEMAS`, the read-only table of
  all five ``schema`` tags and their kind sets; ``screen``, the one rule
  for whether a record is interpretable; and :func:`make_record`, the one
  record-assembly point;
* :mod:`repro.obs.bus` — :class:`ObservabilityBus`, validate-on-publish
  fan-out with per-sink delivery/drop/error accounting;
* :mod:`repro.obs.sinks` — NDJSON :class:`FileSink` (the one writer of
  record lines), bounded :class:`RingSink` for live query, and
  :class:`TailServer`, a line-delimited TCP/Unix-socket live-tail feed;
* :mod:`repro.obs.archive` — torn-tail-tolerant NDJSON reading, the strict
  :func:`read_records` loader and the run-archive query engine behind
  ``python -m repro.obs``.

Wire-up is one call on a session::

    session = CouplingSession(telemetry=Telemetry())
    bus = session.enable_observability(path="run.ndjson", tail="127.0.0.1:0")
    ...
    result = session.run()       # result.obs carries the bus summary
    # meanwhile:  python -m repro.obs tail run.ndjson --schema repro.health/1
"""

from repro.obs.archive import ArchiveScan, iter_archive, iter_ndjson, match_record, read_records
from repro.obs.bus import ObservabilityBus, SinkBinding
from repro.obs.registry import (
    HEALTH_SCHEMA,
    HOSTPROF_SCHEMA,
    METRICS_SCHEMA,
    SCHEMAS,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
    make_record,
    record_time,
)
from repro.obs.sinks import FileSink, RingSink, TailServer, parse_address

__all__ = [
    "ObservabilityBus",
    "SinkBinding",
    "SCHEMAS",
    "make_record",
    "record_time",
    "TELEMETRY_SCHEMA",
    "HOSTPROF_SCHEMA",
    "METRICS_SCHEMA",
    "HEALTH_SCHEMA",
    "STEERING_SCHEMA",
    "FileSink",
    "RingSink",
    "TailServer",
    "parse_address",
    "iter_ndjson",
    "iter_archive",
    "match_record",
    "read_records",
    "ArchiveScan",
]
