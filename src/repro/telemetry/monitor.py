"""Online health monitor: streaming detectors over the telemetry timeline.

Telemetry alone is post-mortem — collected during the run, inspected after.
This module closes the loop in the paper's own spirit: a
:class:`HealthMonitor` attaches to the simulation kernel's periodic-callback
hook, snapshots every instrument into the bounded
:class:`~repro.telemetry.timeline.Timeline` at each tick of *virtual* time,
runs online detectors against the windows, and then calls its
``after_tick`` subscribers — its tick is the session's one fast clock and
its timeline the one ring of samples.  The detectors:

* **stream_stall** — sustained ``EAGAIN`` storms (empty non-blocking reads
  per second) or a high share of writer time lost to rendezvous
  backpressure stalls;
* **backlog_growth** — the blackboard FIFO depth trending upward over a
  sliding window while already above a floor (the analyzer is falling
  behind its producers);
* **load_imbalance** / **worker_starvation** — span-derived busy time per
  rank track diverging across the partition within the window;
* **critical_path** — one instrumentation layer (``stream``, ``analysis``,
  ``blackboard``, …) owning more than a threshold share of all span time
  in the window.

Alerts are plain frozen dataclasses stamped in virtual time.  They can be
fanned out through an :class:`repro.analysis.alerts.AlertRouter` and — when
a :class:`~repro.core.session.CouplingSession` is live — published as data
entries onto the analyzer's blackboard, so the paper's knowledge-source
engine analyzes the monitor's own event stream (the architecture eating its
own dog food).

The monitor is read-only with respect to the simulation: it never schedules
events, so results are bit-identical with the monitor on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.obs.registry import CLEARED_SUFFIX
from repro.telemetry.core import KERNEL_PID, Telemetry
from repro.telemetry.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel, PeriodicHook

#: the timeline series each detector reads (also what the report tabulates)
WATCHED_SERIES = (
    "counter.stream.eagain_returns",
    "counter.kernel.events_dispatched",
    "gauge.blackboard.fifo_depth",
    "gauge.kernel.heap_depth",
    "hist.stream.write_stall_s.total",
    "counter.faults.injected",
    "counter.stream.blocks_dropped",
    "counter.analysis.packs_rejected",
    "counter.vmpi.rank_remaps",
)

#: Cumulative fault/defence counters watched edge-triggered: any increase
#: between ticks raises the mapped alert kind at the given severity.  These
#: series only exist once a fault (or a defensive reaction) happened, so the
#: detector is free on healthy runs.
FAULT_WATCH = (
    ("counter.faults.analyzer_crash", "analyzer_crash", "critical"),
    ("counter.vmpi.rank_remaps", "analyzer_failover", "critical"),
    ("counter.faults.link_degraded", "link_degraded", "warn"),
    ("counter.faults.pack_corrupted", "pack_corruption", "warn"),
    ("counter.faults.pack_dropped", "pack_drop", "warn"),
    ("counter.faults.analyzer_stalled", "analyzer_stall", "warn"),
    ("counter.analysis.packs_rejected", "pack_checksum_reject", "warn"),
    ("counter.stream.write_timeouts", "stream_write_timeout", "warn"),
    ("counter.stream.blocks_dropped", "stream_overflow_drop", "warn"),
)

#: Fixed detector thresholds: no caller sets another value, so they are not
#: :class:`MonitorConfig` fields.
STALL_SHARE_THRESHOLD = 0.25  # stalled writer-seconds per second
BACKLOG_SLOPE_THRESHOLD = 20.0  # FIFO jobs per second of growth
STARVATION_SHARE = 0.02  # busy below this share of mean = starved
MIN_BUSY_SHARE = 0.05  # of window mean busy before judging balance


@dataclass(frozen=True)
class HealthAlert:
    """One online health finding, stamped in virtual kernel time."""

    kind: str  # "stream_stall" | "backlog_growth" | "load_imbalance" |
    #            "worker_starvation" | "critical_path" | the FAULT_WATCH
    #            kinds (analyzer_crash, analyzer_failover, link_degraded,
    #            pack_corruption, pack_drop, analyzer_stall,
    #            pack_checksum_reject, stream_write_timeout,
    #            stream_overflow_drop) | "<windowed>.cleared" edge events
    #            at severity "info" when a windowed condition subsides
    t_detect: float
    severity: str  # "warn" | "critical"
    value: float
    threshold: float
    detail: dict = field(default_factory=dict)
    source: str = "health_monitor"

    def describe(self) -> str:
        extra = ""
        if self.detail:
            extra = " (" + ", ".join(f"{k}={v}" for k, v in sorted(self.detail.items())) + ")"
        return (
            f"[{self.t_detect:.6f}s] {self.severity.upper()} {self.kind}: "
            f"{self.value:.3g} vs threshold {self.threshold:.3g}{extra}"
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "t_detect": self.t_detect,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
            "detail": dict(self.detail),
            "source": self.source,
        }


@dataclass
class MonitorConfig:
    """Detector thresholds and sampling cadence (virtual seconds)."""

    interval: float = 0.005  # tick/sampling resolution
    window: float = 0.025  # sliding detector window
    capacity: int = 512  # ring length per timeline series
    cooldown: float | None = None  # per-kind re-raise spacing; None -> window
    eagain_rate_threshold: float = 200.0  # empty non-blocking reads per second
    backlog_depth_floor: float = 8.0  # FIFO depth below which trend is ignored
    imbalance_ratio_threshold: float = 4.0  # max/mean busy-time across tracks
    critical_path_share: float = 0.85  # single-layer share of all span time

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.window <= 0:
            raise ConfigError("monitor interval and window must be positive")
        if self.window < self.interval:
            raise ConfigError("monitor window must be >= interval")
        if self.capacity < 2:
            raise ConfigError("monitor capacity must be >= 2")
        if self.cooldown is not None and self.cooldown < 0:
            raise ConfigError("monitor cooldown must be >= 0")
        if self.eagain_rate_threshold <= 0:
            raise ConfigError("eagain_rate_threshold must be positive")
        if self.imbalance_ratio_threshold <= 1:
            raise ConfigError("imbalance_ratio_threshold must be > 1")
        if not (0 < self.critical_path_share <= 1):
            raise ConfigError("critical_path_share must be in (0, 1]")

    @property
    def effective_cooldown(self) -> float:
        return self.window if self.cooldown is None else self.cooldown


class HealthMonitor:
    """Streaming anomaly detection over a live :class:`Telemetry`."""

    def __init__(
        self,
        telemetry: Telemetry,
        config: MonitorConfig | None = None,
        router: Any | None = None,
    ):
        if not telemetry.enabled:
            raise ConfigError(
                "HealthMonitor needs live telemetry; pass telemetry=Telemetry()"
            )
        self.tel = telemetry
        self.config = config or MonitorConfig()
        self.router = router
        self.timeline = Timeline(telemetry, capacity=self.config.capacity)
        #: callables run with ``now`` straight after each tick's detectors,
        #: in subscription order — how a plane that must see a tick's alerts
        #: (the steering relax pass) rides this clock instead of its own hook
        self.after_tick: list[Callable[[float], None]] = []
        self.alerts: list[HealthAlert] = []
        self.ticks = 0
        self.published = 0
        self._raised_until: dict[str, float] = {}
        self._fault_seen: dict[str, float] = {}
        # Edge tracking for the paired cleared events: which windowed kinds
        # fired this tick (above threshold, cooldown or not), and which have
        # an emitted alert that has not cleared yet.
        self._firing: set[str] = set()
        self._active: dict[str, HealthAlert] = {}
        self._publish: Callable[[HealthAlert], None] | None = None
        self._pending_publish: list[HealthAlert] = []
        self._hook: "PeriodicHook | None" = None
        self._span_floor = 0  # spans older than this index are outside windows

    # -- kernel wiring ------------------------------------------------------------

    def attach(self, kernel: "Kernel") -> "PeriodicHook":
        """Subscribe to the kernel's periodic-callback hook."""
        if self._hook is not None:
            raise ConfigError("health monitor already attached to a kernel")
        if kernel.telemetry is not self.tel:
            raise ConfigError("monitor and kernel must share one Telemetry")
        self._hook = kernel.call_every(self.config.interval, self._tick)
        return self._hook

    def detach(self) -> None:
        if self._hook is not None:
            self._hook.cancel()
            self._hook = None

    def _tick(self, now: float) -> None:
        self.ticks += 1
        self.timeline.sample(now)
        self.evaluate(now)
        for fn in self.after_tick:
            fn(now)

    # -- detection ----------------------------------------------------------------

    def evaluate(self, now: float) -> list[HealthAlert]:
        """Run every detector against the trailing window ending at ``now``."""
        new: list[HealthAlert] = []
        self._firing.clear()
        new += self._detect_stream_stall(now)
        new += self._detect_backlog(now)
        busy, by_layer = self._window_busy(now)
        new += self._detect_worker_balance(now, busy)
        new += self._detect_critical_path(now, by_layer)
        new += self._detect_faults(now)
        new += self._detect_cleared(now)
        for alert in new:
            self._emit(alert)
        return new

    def _detect_cleared(self, now: float) -> list[HealthAlert]:
        """Paired edge events: an active windowed condition dropped below
        threshold this tick.

        ``_firing`` holds every windowed kind whose condition held this
        tick regardless of the raise cooldown, so a suppressed-but-still
        -firing condition does not clear.  Fault-watch kinds are cumulative
        edge events with no "below threshold" state and never clear.
        """
        out: list[HealthAlert] = []
        for kind in sorted(set(self._active) - self._firing):
            raised = self._active.pop(kind)
            out.append(
                HealthAlert(
                    kind=kind + CLEARED_SUFFIX, t_detect=now, severity="info",
                    value=raised.value, threshold=raised.threshold,
                    detail={
                        "raised_at": raised.t_detect,
                        "active_s": round(now - raised.t_detect, 9),
                    },
                )
            )
        return out

    def _detect_faults(self, now: float) -> list[HealthAlert]:
        """Edge-triggered watch over cumulative fault/defence counters.

        Unlike the windowed detectors, these series are born mid-run at the
        first fault, so rates over a fixed window would be meaningless —
        any increase since the last tick is the signal.
        """
        out: list[HealthAlert] = []
        for series, kind, severity in FAULT_WATCH:
            ts = self.timeline.get(series)
            if ts is None:
                continue
            value = ts.latest()[1]  # a series is born with its first sample
            last = self._fault_seen.get(series, 0.0)
            if value <= last:
                continue
            self._fault_seen[series] = value
            if self._raised_until.get(kind, -1.0) > now:
                continue
            self._raised_until[kind] = now + self.config.effective_cooldown
            out.append(
                HealthAlert(
                    kind=kind, t_detect=now, severity=severity,
                    value=value, threshold=0.0,
                    detail={"series": series, "delta": value - last},
                )
            )
        return out

    def _detect_stream_stall(self, now: float) -> list[HealthAlert]:
        cfg = self.config
        out: list[HealthAlert] = []
        t_lo = now - cfg.window
        eagain = self.timeline.get("counter.stream.eagain_returns")
        if eagain is not None:
            rate = eagain.window_stats(t_lo)["rate"]
            if rate > cfg.eagain_rate_threshold:
                out += self._raise(
                    "stream_stall", now, rate, cfg.eagain_rate_threshold,
                    {"signal": "eagain_rate"},
                )
        stall = self.timeline.get("hist.stream.write_stall_s.total")
        if stall is not None:
            share = stall.window_stats(t_lo)["rate"]  # stalled seconds / second
            if share > STALL_SHARE_THRESHOLD:
                out += self._raise(
                    "stream_stall", now, share, STALL_SHARE_THRESHOLD,
                    {"signal": "write_stall_share"},
                )
        return out

    def _detect_backlog(self, now: float) -> list[HealthAlert]:
        cfg = self.config
        depth = self.timeline.get("gauge.blackboard.fifo_depth")
        if depth is None:
            return []
        stats = depth.window_stats(now - cfg.window)
        if stats["n"] < 2 or stats["last"] < cfg.backlog_depth_floor:
            return []
        slope = depth.slope(now - cfg.window)
        if slope <= BACKLOG_SLOPE_THRESHOLD:
            return []
        return self._raise(
            "backlog_growth", now, slope, BACKLOG_SLOPE_THRESHOLD,
            {"depth": stats["last"], "high_water": depth.high_water},
        )

    def _window_busy(self, now: float) -> tuple[dict[int, float], dict[str, float]]:
        """Span-derived busy seconds inside the window, per rank track and
        per layer (span category), from one walk over the span suffix.

        Nested spans double count; the ratioed detectors only compare
        tracks (or layers) against each other, so consistent inflation
        cancels out.
        """
        t_lo = now - self.config.window
        spans = self.tel.spans
        windowed = []  # closed spans newest first, then the open ones
        # Spans are appended in end order, so everything before the first
        # index whose t1 >= t_lo stays out of this and all later windows.
        for idx in range(len(spans) - 1, self._span_floor - 1, -1):
            span = spans[idx]
            if span.t1 is not None and span.t1 < t_lo:
                self._span_floor = idx
                break
            windowed.append(span)
        windowed += self.tel.open_spans()
        busy: dict[int, float] = {}
        by_layer: dict[str, float] = {}
        for span in windowed:
            if span.pid == KERNEL_PID:
                continue
            t1 = now if span.t1 is None else min(span.t1, now)
            overlap = t1 - max(span.t0, t_lo)
            if overlap > 0:
                busy[span.pid] = busy.get(span.pid, 0.0) + overlap
                layer = span.cat or "uncategorized"
                by_layer[layer] = by_layer.get(layer, 0.0) + overlap
        return busy, by_layer

    def _detect_worker_balance(
        self, now: float, busy: dict[int, float]
    ) -> list[HealthAlert]:
        cfg = self.config
        if len(busy) < 2:
            return []
        mean = sum(busy.values()) / len(busy)
        if mean < MIN_BUSY_SHARE * cfg.window:
            return []  # everybody mostly idle: nothing to balance
        out: list[HealthAlert] = []
        worst_pid, worst = max(busy.items(), key=lambda kv: kv[1])
        ratio = worst / mean
        if ratio > cfg.imbalance_ratio_threshold:
            out += self._raise(
                "load_imbalance", now, ratio, cfg.imbalance_ratio_threshold,
                {"pid": worst_pid, "busy_s": round(worst, 9), "tracks": len(busy)},
            )
        starved = sorted(
            pid for pid, b in busy.items() if b <= STARVATION_SHARE * mean
        )
        if starved:
            out += self._raise(
                "worker_starvation", now, float(len(starved)), 0.0,
                {"pids": starved[:8], "mean_busy_s": round(mean, 9)},
            )
        return out

    def _detect_critical_path(
        self, now: float, by_layer: dict[str, float]
    ) -> list[HealthAlert]:
        cfg = self.config
        if len(by_layer) < 2:
            return []  # a single layer trivially owns 100 %
        total = sum(by_layer.values())
        if total <= 0:
            return []
        layer, layer_time = max(by_layer.items(), key=lambda kv: kv[1])
        share = layer_time / total
        if share <= cfg.critical_path_share:
            return []
        return self._raise(
            "critical_path", now, share, cfg.critical_path_share,
            {"layer": layer, "layer_s": round(layer_time, 9)},
        )

    # -- alert plumbing -----------------------------------------------------------

    def _raise(
        self, kind: str, now: float, value: float, threshold: float, detail: dict
    ) -> list[HealthAlert]:
        self._firing.add(kind)
        if self._raised_until.get(kind, -1.0) > now:
            return []
        self._raised_until[kind] = now + self.config.effective_cooldown
        severity = "critical" if threshold > 0 and value >= 2 * threshold else "warn"
        alert = HealthAlert(
            kind=kind, t_detect=now, severity=severity,
            value=value, threshold=threshold, detail=detail,
        )
        self._active[kind] = alert
        return [alert]

    def _emit(self, alert: HealthAlert) -> None:
        self.alerts.append(alert)
        if self.router is not None:
            self.router.route(alert)
        if self._publish is not None:
            self._publish(alert)
            self.published += 1
        else:
            self._pending_publish.append(alert)

    def bind_blackboard(self, submit: Callable[[HealthAlert], None]) -> None:
        """Route alerts (including ones raised before binding) into a
        blackboard submit function — the dogfooding path."""
        self._publish = submit
        pending, self._pending_publish = self._pending_publish, []
        for alert in pending:
            submit(alert)
            self.published += 1

    # -- summaries ----------------------------------------------------------------

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.kind] = out.get(alert.kind, 0) + 1
        return out

    def summary(self) -> dict[str, Any]:
        """JSON-serializable state for reports and bench artefacts."""
        cfg = self.config
        series: dict[str, Any] = {}
        for key in WATCHED_SERIES:
            ts = self.timeline.get(key)
            if ts is None:
                continue
            t_last, v_last = ts.latest()
            series[key] = {
                "last": v_last,
                "high_water": ts.high_water,
                "rate": ts.window_stats(t_last - cfg.window)["rate"],
                "points": [[t, v] for t, v in ts.decimated(8)],
            }
        out = {
            "ticks": self.ticks,
            "interval_s": cfg.interval,
            "window_s": cfg.window,
            "samples": self.timeline.samples_taken,
            "series_tracked": len(self.timeline.series),
            "alerts": [a.as_dict() for a in self.alerts],
            "by_kind": self.by_kind(),
            "unresolved": sorted(self._active),
            "published_to_blackboard": self.published,
            "series": series,
        }
        if self.router is not None:
            out["router"] = {
                "routed": self.router.routed,
                "dropped": self.router.dropped,
            }
        return out
