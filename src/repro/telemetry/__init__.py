"""Self-telemetry: the measurement system measuring itself.

The reproduction's thesis is that performance measurement should be online
and file-system-free — this package applies the same standard to the
simulator's own pipelines.  A :class:`Telemetry` instance carries counters,
gauges and histograms stamped in **virtual kernel time**, plus a span
tracer, and exports either a Chrome trace-event JSON (one process row per
simulated rank; open in Perfetto or ``chrome://tracing``) or JSONL.

Telemetry is off by default everywhere (:data:`NULL_TELEMETRY`, a shared
no-op registry) and costs one branch per instrumentation point when
disabled.  Enable it by passing a live instance down the stack::

    from repro import CouplingSession
    from repro.telemetry import Telemetry

    tel = Telemetry()
    session = CouplingSession(seed=1, telemetry=tel)
    ...
    tel.write_chrome_trace("session.trace.json")
"""

from repro.telemetry.core import KERNEL_PID, NULL_TELEMETRY, Telemetry, rank_pid
from repro.telemetry.hostprof import (
    HostProfiler,
    HostTimer,
    fake_host_clock,
    host_environment,
    host_now,
    set_host_clock,
)
from repro.telemetry.flow import (
    critical_path,
    stage_stats,
    summarize_flows,
    waterfall,
    watermarks,
)
from repro.telemetry.provenance import (
    STAGES,
    FlowRecord,
    FlowRegistry,
    make_flow_id,
    split_flow_id,
)
from repro.telemetry.monitor import (
    WATCHED_SERIES,
    HealthAlert,
    HealthMonitor,
    MonitorConfig,
)
from repro.telemetry.timeline import CUMULATIVE, LEVEL, Timeline, TimeSeries
from repro.telemetry.export import chrome_trace_dict, jsonl_records
from repro.telemetry.popmetrics import (
    METRIC_KEYS,
    PopConfig,
    PopMetricsEngine,
    metrics_from_sums,
)
from repro.telemetry.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    HistogramMetric,
)
from repro.telemetry.spans import NULL_SPAN, Span

__all__ = [
    "Telemetry",
    "HostProfiler",
    "HostTimer",
    "host_now",
    "set_host_clock",
    "fake_host_clock",
    "host_environment",
    "FlowRegistry",
    "FlowRecord",
    "STAGES",
    "make_flow_id",
    "split_flow_id",
    "summarize_flows",
    "stage_stats",
    "critical_path",
    "watermarks",
    "waterfall",
    "Timeline",
    "TimeSeries",
    "CUMULATIVE",
    "LEVEL",
    "HealthMonitor",
    "HealthAlert",
    "MonitorConfig",
    "WATCHED_SERIES",
    "NULL_TELEMETRY",
    "KERNEL_PID",
    "rank_pid",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "Span",
    "NULL_SPAN",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "chrome_trace_dict",
    "jsonl_records",
    "PopMetricsEngine",
    "PopConfig",
    "METRIC_KEYS",
    "metrics_from_sums",
]
