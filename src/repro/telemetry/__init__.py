"""Self-telemetry: the measurement system measuring itself.

The reproduction's thesis is that performance measurement should be online
and file-system-free — this package applies the same standard to the
simulator's own pipelines.  A :class:`~repro.telemetry.core.Telemetry`
instance carries counters, gauges and histograms stamped in **virtual
kernel time**, plus a span tracer, and exports either a Chrome trace-event
JSON (one process row per simulated rank; open in Perfetto or
``chrome://tracing``) or JSONL.

Telemetry is off by default everywhere
(:data:`~repro.telemetry.core.NULL_TELEMETRY`, a shared no-op registry)
and costs one branch per instrumentation point when disabled.  Enable it
by passing a live instance down the stack::

    from repro import CouplingSession
    from repro.telemetry import Telemetry

    tel = Telemetry()
    session = CouplingSession(seed=1, telemetry=tel)
    ...
    tel.write_chrome_trace("session.trace.json")

Everything else is imported from its module: :mod:`~repro.telemetry.core`
(registry, pids), ``metrics`` / ``spans`` (instruments), ``export``,
``hostprof`` (host time), ``provenance`` / ``flow`` (per-pack flows),
``timeline``, ``monitor`` (health alerts) and ``popmetrics`` (POP stream).
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.monitor import MonitorConfig
from repro.telemetry.popmetrics import PopConfig

__all__ = ["MonitorConfig", "PopConfig", "Telemetry"]
