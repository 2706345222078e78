"""Real-time performance alerts — the paper's "real-time" module family.

Section VI mentions modules "performing real-time performance analysis" as
an area of interest.  This module watches the event stream *as it arrives*
and raises alerts the moment a rank crosses a behavioural threshold —
something a post-mortem tool cannot do by construction, and therefore a
good demonstration of what online coupling buys.

Detectors:

* **waiting-fraction** — a rank spends more than ``wait_threshold`` of a
  sliding window inside blocking calls (late-sender symptom);
* **message-rate** — a rank emits more than ``rate_threshold`` p2p messages
  per second of simulated time (runaway communication);
* **silence** — a previously chatty rank produced no events for more than
  ``silence_threshold`` seconds (hang symptom; evaluated on closing).

The :class:`AlertRouter` is the common fan-out bus: application-level
:class:`Alert`\\ s and the self-telemetry monitor's
:class:`~repro.telemetry.monitor.HealthAlert`\\ s share it (both expose a
``kind`` attribute), so one subscriber can watch the applications and the
measurement pipeline itself through a single subscription surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis.batch import BLOCKING_CALLS, SEND_CALLS, EventBatch, per_rank
from repro.errors import ConfigError, ReproError


@dataclass(frozen=True)
class Alert:
    """One raised alert."""

    kind: str  # "waiting" | "message_rate" | "silence"
    app: str
    rank: int
    t_detect: float
    value: float
    threshold: float

    def describe(self) -> str:
        return (
            f"[{self.t_detect:.6f}s] {self.app} rank {self.rank}: "
            f"{self.kind} = {self.value:.3g} exceeds {self.threshold:.3g}"
        )


@dataclass
class AlertConfig:
    wait_threshold: float = 0.6  # fraction of window inside blocking calls
    rate_threshold: float = 1e6  # p2p sends per second
    silence_threshold: float = 5.0  # seconds without events
    window: float = 0.05  # sliding window length, seconds

    def __post_init__(self) -> None:
        if not (0 < self.wait_threshold <= 1):
            raise ConfigError("wait_threshold must be in (0, 1]")
        if self.rate_threshold <= 0 or self.silence_threshold <= 0:
            raise ConfigError("thresholds must be positive")
        if self.window <= 0:
            raise ConfigError("window must be positive")


class AlertRouter:
    """Fan-out bus for alerts: subscribe handlers, keep bounded history.

    Any object with a ``kind`` attribute routes — both the application
    :class:`Alert` and the monitor's ``HealthAlert``.  Handlers subscribed
    with ``kind=None`` see everything; otherwise only their kind.  History
    is bounded so a pathological alert storm cannot grow without limit.
    """

    def __init__(self, history: int = 1024):
        if history < 1:
            raise ConfigError(f"router history must be >= 1, got {history}")
        self.history = history
        self.alerts: list[Any] = []
        self.routed = 0
        self.dropped = 0
        self._handlers: list[tuple[str | None, Callable[[Any], None]]] = []

    def subscribe(self, handler: Callable[[Any], None], kind: str | None = None) -> None:
        """Register a handler for one alert kind (None = all kinds)."""
        if not callable(handler):
            raise ConfigError("alert handler must be callable")
        self._handlers.append((kind, handler))

    def route(self, alert: Any) -> Any:
        """Record the alert and deliver it to every matching handler."""
        kind = getattr(alert, "kind", None)
        if kind is None:
            raise ReproError(f"cannot route object without a kind: {alert!r}")
        self.routed += 1
        self.alerts.append(alert)
        excess = len(self.alerts) - self.history
        if excess > 0:
            del self.alerts[:excess]
            self.dropped += excess
        for want, handler in self._handlers:
            if want is None or want == kind:
                handler(alert)
        return alert

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.kind] = out.get(alert.kind, 0) + 1
        return out


class AlertMonitor:
    """Mergeable online alert detector (one per application level)."""

    def __init__(
        self,
        app: str,
        app_size: int,
        config: AlertConfig | None = None,
        router: AlertRouter | None = None,
    ):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        self.config = config or AlertConfig()
        self.router = router
        self.alerts: list[Alert] = []
        # rank -> latest event end seen (its keys: the ranks seen)
        self._last_event: dict[int, float] = {}
        # Per (rank, kind) dedup so one condition raises once per window.
        self._raised_until: dict[tuple[int, str], float] = {}

    # -- online path -----------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> list[Alert]:
        """Inspect one batch; returns alerts raised by this batch."""
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        if len(batch) == 0:
            return []
        new: list[Alert] = []
        cfg = self.config
        t_hi = batch.t1
        self._last_event[rank] = max(self._last_event.get(rank, 0.0), t_hi)
        span = max(t_hi - batch.t0, 1e-12)

        call = batch.call
        blocking = float(batch.durations[BLOCKING_CALLS[call]].sum())
        window = max(span, cfg.window)
        wait_fraction = blocking / window
        if wait_fraction > cfg.wait_threshold:
            new += self._raise("waiting", rank, t_hi, wait_fraction, cfg.wait_threshold)

        sends = int(SEND_CALLS[call].sum())
        rate = sends / window
        if rate > cfg.rate_threshold:
            new += self._raise("message_rate", rank, t_hi, rate, cfg.rate_threshold)

        self._record(new)
        return new

    def finalize(self, t_end: float) -> list[Alert]:
        """Closing pass: silence detection against the app end time."""
        new: list[Alert] = []
        for rank in sorted(self._last_event):
            silence = t_end - self._last_event[rank]
            if silence > self.config.silence_threshold:
                new += self._raise(
                    "silence", rank, t_end, silence, self.config.silence_threshold
                )
        self._record(new)
        return new

    def _record(self, new: list[Alert]) -> None:
        self.alerts.extend(new)
        if self.router is not None:
            for alert in new:
                self.router.route(alert)

    def _raise(
        self, kind: str, rank: int, t: float, value: float, threshold: float
    ) -> list[Alert]:
        key = (rank, kind)
        if self._raised_until.get(key, -1.0) >= t:
            return []
        self._raised_until[key] = t + self.config.window
        return [Alert(kind=kind, app=self.app, rank=rank, t_detect=t,
                      value=value, threshold=threshold)]

    # -- reduction --------------------------------------------------------------------

    def merge(self, other: "AlertMonitor") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging alert monitors of different applications")
        self.alerts.extend(other.alerts)
        for rank, t in other._last_event.items():
            self._last_event[rank] = max(self._last_event.get(rank, 0.0), t)

    @property
    def last_event(self) -> np.ndarray:
        """Latest event end per application rank (0.0 where none was seen)."""
        return per_rank(self.app_size, self._last_event)

    @property
    def seen(self) -> np.ndarray:
        """Which application ranks have sent a non-empty batch."""
        seen = dict.fromkeys(self._last_event, True)
        return per_rank(self.app_size, seen, fill=False, dtype=bool)

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for alert in self.alerts:
            out[alert.kind] = out.get(alert.kind, 0) + 1
        return out
