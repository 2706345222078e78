"""Time-resolved POP efficiency metrics with online phase detection.

End-of-run aggregates hide everything interesting: an application that is
90% efficient for nine tenths of the run and collapses in the last tenth
reports the same average as one that is uniformly mediocre.  This engine
computes the POP standard efficiency metrics *online*, over fixed windows
of virtual time, from the per-rank accounting the instrumentation layer
already keeps:

* **parallel efficiency** — useful compute per active rank-second,
* **load balance** — mean over max of per-rank useful time,
* **communication efficiency** — share of the busiest rank's active time
  spent outside MPI (``PE = LB x CommE`` holds exactly by construction),
* **serialization efficiency** — active time not lost to stream
  backpressure stalls,
* **instrumentation share** — the measurement system's own footprint,

plus stream-health rates (EAGAIN storms, streamed bytes, analyzer pack
throughput, blackboard backlog) read from the live instruments when a
window closes: a rate is the counter's growth since the previous close (or
since ``attach``) over the window length, the backlog is the gauge as it
stands.  The engine keeps one float per counter between closes, no ring.

Accounting is *sum-based end to end*: every window stores per-rank sums of
active/useful/MPI/instrumentation/stall seconds, phases accumulate those
sums, and the end-of-run totals are the same sums once more — so per-phase
metrics recombine to the end-of-run metrics exactly (the telescoping
property the bench gate asserts to 1e-6).  A window that straddles an MPI
call charges the whole call to the window where it completed; boundary
windows can therefore read slightly above 1.0 or below 0.0 — sums, not the
per-window ratios, are the ground truth.

Phase boundaries are detected with an online change-point test: each new
window's signal (parallel efficiency, ``SIGNAL``) is z-scored against the
running Welford mean/std of the open phase; a window that is both
statistically surprising (``z > Z_THRESHOLD``) and practically different
(``|shift| > SHIFT_MIN``, guarding near-constant series) becomes a
*pending* boundary, confirmed only after ``CONFIRM_WINDOWS`` consecutive
outliers — single-window glitches fold back into the open phase.

The engine is an observer in the same sense as the health monitor: it
rides :meth:`Kernel.call_every`, never schedules events, and a run with
the engine attached is bit-identical to one without.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigError
from repro.obs.registry import METRICS_SCHEMA, make_record
from repro.telemetry.core import KERNEL_PID, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.instrument.interceptor import StreamingInstrumentation
    from repro.simt.kernel import Kernel, PeriodicHook

#: metric keys computed for every window, phase and the whole run
METRIC_KEYS = (
    "parallel_efficiency",
    "load_balance",
    "communication_efficiency",
    "serialization_efficiency",
    "instrumentation_share",
)

#: per-rank accounting dimensions (virtual seconds), summed everywhere
SUM_KEYS = ("active_s", "useful_s", "mpi_s", "instr_s", "stall_s")

#: counters differenced between window closes for the stream-health block
STREAM_HEALTH_SERIES = {
    "eagain_per_s": "stream.eagain_returns",
    "stream_bytes_per_s": "stream.bytes_written",
    "packs_analyzed_per_s": "analysis.packs_decoded",
}

#: gauge names mirrored per window (exported as Chrome ``ph:"C"`` tracks)
GAUGE_PREFIX = "pop."

#: Change-point settings: no run sets another value, so they are not
#: :class:`PopConfig` fields.  Read at each use, so a test may patch one.
SIGNAL = "parallel_efficiency"  # change-point input metric
MIN_PHASE_WINDOWS = 3  # windows before a phase can split
Z_THRESHOLD = 3.0  # surprise bar (running z-score)
SHIFT_MIN = 0.05  # practical-difference bar (abs units)
CONFIRM_WINDOWS = 2  # consecutive outliers to confirm a boundary


@dataclass
class PopConfig:
    """Window cadence (virtual seconds)."""

    window: float = 0.005  # metric window / tick interval

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigError(f"metrics window must be > 0, got {self.window}")


def metrics_from_sums(per_rank: dict[Any, dict[str, float]]) -> dict[str, float]:
    """The POP metric set from per-rank second sums (shared by every level).

    Uses the classic POP decomposition with the mean active time as the
    elapsed reference, so ``PE = LB x CommE`` is an identity::

        PE    = sum(useful) / sum(active)
        LB    = mean(useful) / max(useful)
        CommE = max(useful) / mean(active)
    """
    ranks = [s for s in per_rank.values() if s["active_s"] > 0]
    if not ranks:
        return {key: 0.0 for key in METRIC_KEYS}
    n = len(ranks)
    active = sum(s["active_s"] for s in ranks)
    useful = sum(s["useful_s"] for s in ranks)
    stall = sum(s["stall_s"] for s in ranks)
    instr = sum(s["instr_s"] for s in ranks)
    max_useful = max(s["useful_s"] for s in ranks)
    mean_active = active / n
    pe = useful / active
    if max_useful > 0:
        lb = (useful / n) / max_useful
        comm = max_useful / mean_active
    else:
        lb = 0.0
        comm = 0.0
    return {
        "parallel_efficiency": pe,
        "load_balance": lb,
        "communication_efficiency": comm,
        "serialization_efficiency": 1.0 - stall / active,
        "instrumentation_share": instr / active,
    }


def _zero_sums() -> dict[str, float]:
    return {key: 0.0 for key in SUM_KEYS}


def _total_sums(per_rank: dict[Any, dict[str, float]]) -> dict[str, float]:
    """Each accounting dimension summed over the ranks."""
    totals = _zero_sums()
    for sums in per_rank.values():
        for key in SUM_KEYS:
            totals[key] += sums[key]
    return totals


def _merge_sums(
    into: dict[Any, dict[str, float]], update: dict[Any, dict[str, float]]
) -> None:
    for rank_key, sums in update.items():
        entry = into.setdefault(rank_key, _zero_sums())
        for key in SUM_KEYS:
            entry[key] += sums[key]


@dataclass
class WindowMetrics:
    """One closed window: metrics, sums and stream health."""

    index: int
    t0: float
    t1: float
    nranks: int
    metrics: dict[str, float]
    sums: dict[str, float]
    stream: dict[str, float]
    #: per-rank sums, keyed ``"app/rank"`` (kept for phase accumulation)
    per_rank: dict[str, dict[str, float]] = field(repr=False, default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "elapsed_s": self.t1 - self.t0,
            "nranks": self.nranks,
            "metrics": dict(self.metrics),
            "sums": dict(self.sums),
            "stream": dict(self.stream),
        }


class PhaseStats:
    """One detected phase: accumulated per-rank sums + signal statistics."""

    def __init__(self, index: int, t0: float):
        self.index = index
        self.t0 = t0
        self.t1 = t0
        self.windows = 0
        self.per_rank: dict[str, dict[str, float]] = {}
        # Welford running statistics of the change-point signal.
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def absorb(self, window: WindowMetrics, signal_value: float) -> None:
        self.windows += 1
        self.t1 = window.t1
        _merge_sums(self.per_rank, window.per_rank)
        self._n += 1
        delta = signal_value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (signal_value - self._mean)

    @property
    def signal_mean(self) -> float:
        return self._mean

    @property
    def signal_std(self) -> float:
        if self._n < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._n - 1))

    def metrics(self) -> dict[str, float]:
        return metrics_from_sums(self.per_rank)

    def sums(self) -> dict[str, float]:
        return _total_sums(self.per_rank)

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "t0": self.t0,
            "t1": self.t1,
            "elapsed_s": self.t1 - self.t0,
            "windows": self.windows,
            "signal_mean": self.signal_mean,
            "signal_std": self.signal_std,
            "metrics": self.metrics(),
            "sums": self.sums(),
            "ranks": {key: dict(sums) for key, sums in sorted(self.per_rank.items())},
        }


class PopMetricsEngine:
    """Online POP-metric computation over kernel-hook windows."""

    def __init__(self, telemetry: Telemetry, config: PopConfig | None = None):
        if not telemetry.enabled:
            raise ConfigError(
                "pop metrics need live telemetry; pass telemetry=Telemetry()"
            )
        self.tel = telemetry
        self.config = config or PopConfig()
        self.windows: list[WindowMetrics] = []
        self.phases: list[PhaseStats] = []
        self._totals: dict[str, dict[str, float]] = {}
        self._registry: dict[str, list["StreamingInstrumentation"]] | None = None
        self._prev: dict[str, tuple[float, float, float]] = {}
        #: stream-health counter values at the previous close (or attach)
        self._health_prev = dict.fromkeys(STREAM_HEALTH_SERIES, 0.0)
        self._sinks: list[Any] = []
        self._hook: "PeriodicHook | None" = None
        self._t_last = 0.0
        self._current: PhaseStats | None = None
        self._pending: list[tuple[WindowMetrics, float]] = []
        self._finalized = False

    # -- wiring -------------------------------------------------------------------

    def add_sink(self, sink: Any) -> Any:
        """Register a sink (the bus protocol, ``emit(record)``: a
        ``FileSink``, a ``RingSink``, the bus itself) for every sealed
        window, phase and the run summary, in emission order."""
        if not callable(getattr(sink, "emit", None)):
            raise ConfigError(f"metrics sink {sink!r} lacks an emit method")
        self._sinks.append(sink)
        return sink

    def _emit(self, kind: str, payload: dict[str, Any]) -> None:
        record = make_record(METRICS_SCHEMA, kind, **payload)
        for sink in self._sinks:
            sink.emit(record)

    def bind_sources(self, registry: dict[str, list["StreamingInstrumentation"]]) -> None:
        """Point the engine at the session's interceptor registry.

        The registry's lists fill lazily as instrumented programs reach
        ``MPI_Init``, so the engine re-enumerates them at every tick; a
        rank that joined mid-window contributes from zero baselines.
        """
        self._registry = registry

    def attach(self, kernel: "Kernel") -> "PeriodicHook":
        """Subscribe to the kernel's periodic hook on the window grid."""
        if self._hook is not None:
            raise ConfigError("metrics engine already attached to a kernel")
        if kernel.telemetry is not self.tel:
            raise ConfigError("metrics engine and kernel must share one Telemetry")
        window = self.config.window
        # Align boundaries to the window grid regardless of attach time.
        first = math.floor(kernel.now / window + 1e-9) * window + window
        self._t_last = first - window
        # Baseline: cumulative counters carried from earlier use of this
        # Telemetry must not be charged to the first window's rates.
        self._health_prev = self._health_counters()
        self._hook = kernel.call_every(window, self._close_window, first=first)
        return self._hook

    def detach(self) -> None:
        if self._hook is not None:
            self._hook.cancel()
            self._hook = None

    # -- window pipeline ----------------------------------------------------------

    def finalize(self, now: float | None = None) -> None:
        """Close the partial tail window and the open phase (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if now is None:
            now = self.tel.now()
        if now - self._t_last > 1e-12:
            self._close_window(now)
        # A pending boundary that never confirmed belongs to the open phase.
        current = self._current
        for window, signal_value in self._pending:
            if current is None:
                current = self._current = PhaseStats(0, window.t0)
            current.absorb(window, signal_value)
        self._pending.clear()
        if current is not None:
            self._seal_phase(current)
            self._current = None
        self._emit("run_summary", self.summary())

    def _interceptors(self):
        if not self._registry:
            return
        for app, interceptors in self._registry.items():
            for interceptor in interceptors:
                yield f"{app}/{interceptor.builder.rank}", interceptor

    def _close_window(self, now: float) -> None:
        t0, t1 = self._t_last, now
        self._t_last = now
        per_rank: dict[str, dict[str, float]] = {}
        for key, interceptor in self._interceptors():
            cum = (
                interceptor.mpi_time_s,
                interceptor.overhead_s,
                interceptor.stream.write_stall_s,
            )
            prev = self._prev.get(key, (0.0, 0.0, 0.0))
            self._prev[key] = cum
            d_mpi, d_instr, d_stall = (c - p for c, p in zip(cum, prev))
            start = interceptor.t_active_start
            if start is None:
                continue
            end = interceptor.t_active_end
            active = min(t1, end if end is not None else t1) - max(t0, start)
            active = max(0.0, active)
            if active <= 0.0 and d_mpi == 0.0 and d_instr == 0.0 and d_stall == 0.0:
                continue
            per_rank[key] = {
                "active_s": active,
                # Unclamped on purpose: a call completing just after a
                # boundary charges here, keeping the sums telescoping.
                "useful_s": active - d_mpi - d_instr,
                "mpi_s": d_mpi,
                "instr_s": d_instr,
                "stall_s": d_stall,
            }
        metrics = metrics_from_sums(per_rank)
        window = WindowMetrics(
            index=len(self.windows),
            t0=t0,
            t1=t1,
            nranks=len(per_rank),
            metrics=metrics,
            sums=_total_sums(per_rank),
            stream=self._stream_health(t1 - t0),
            per_rank=per_rank,
        )
        self.windows.append(window)
        _merge_sums(self._totals, per_rank)
        for name in METRIC_KEYS:
            self.tel.gauge(GAUGE_PREFIX + name, pid=KERNEL_PID).set(metrics[name])
        self._detect_phase(window)
        self._emit("window", window.as_dict())

    def _health_counters(self) -> dict[str, float]:
        """The live value of each stream-health counter (0.0 until it exists:
        cumulative counters start from zero)."""
        counters = self.tel.counters
        return {
            label: float(counters[name].value) if name in counters else 0.0
            for label, name in STREAM_HEALTH_SERIES.items()
        }

    def _stream_health(self, dt: float) -> dict[str, float]:
        prev, now = self._health_prev, self._health_counters()
        self._health_prev = now
        out = {
            label: (now[label] - prev[label]) / dt if dt > 0 else 0.0
            for label in STREAM_HEALTH_SERIES
        }
        depth = 0.0  # the FIFO gauge, summed over its tracks
        for gauge in self.tel.gauges.values():
            if gauge.name == "blackboard.fifo_depth":
                depth += gauge.value
        out["backlog_depth"] = depth
        return out

    # -- phase detection ----------------------------------------------------------

    def _detect_phase(self, window: WindowMetrics) -> None:
        signal_value = window.metrics[SIGNAL]
        current = self._current
        if current is None:
            current = self._current = PhaseStats(0, window.t0)
        if current.windows >= MIN_PHASE_WINDOWS:
            shift = abs(signal_value - current.signal_mean)
            std = max(current.signal_std, 1e-9)
            if shift / std > Z_THRESHOLD and shift > SHIFT_MIN:
                self._pending.append((window, signal_value))
                if len(self._pending) >= CONFIRM_WINDOWS:
                    self._split_phase()
                return
        # Not an outlier (or phase still warming up): any pending windows
        # were a glitch — fold them back in before absorbing this one.
        for pending_window, pending_value in self._pending:
            current.absorb(pending_window, pending_value)
        self._pending.clear()
        current.absorb(window, signal_value)

    def _split_phase(self) -> None:
        confirmed = self._pending
        self._pending = []
        self._seal_phase(self._current)
        fresh = PhaseStats(len(self.phases), confirmed[0][0].t0)
        self._current = fresh
        for window, signal_value in confirmed:
            fresh.absorb(window, signal_value)

    def _seal_phase(self, phase: PhaseStats) -> None:
        if phase.windows == 0:
            return
        phase.index = len(self.phases)
        self.phases.append(phase)
        self._emit("phase", phase.as_dict())

    # -- presentation -------------------------------------------------------------

    def end_of_run(self) -> dict[str, float]:
        """The POP metrics over the whole run (from the global sums)."""
        return metrics_from_sums(self._totals)

    def summary(self) -> dict[str, Any]:
        """Everything reduced to plain dicts (report section, NDJSON tail)."""
        return {
            "window_s": self.config.window,
            "signal": SIGNAL,
            "windows": len(self.windows),
            "phases": [phase.as_dict() for phase in self.phases],
            "end_of_run": self.end_of_run(),
            "totals": _total_sums(self._totals),
            "nranks": len(self._totals),
            "stream_last": self.windows[-1].stream if self.windows else {},
        }
