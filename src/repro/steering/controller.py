"""The steering controller: health alerts in, actuation decisions out.

The controller is wired between the :class:`~repro.telemetry.monitor.
HealthMonitor` (via its :class:`~repro.analysis.alerts.AlertRouter`) and
three actuators that already exist in the simulation:

* **reduction escalation** — every writer's
  :meth:`~repro.instrument.interceptor.StreamingInstrumentation.set_reduction`,
  stepping up the policy's chain ladder under congestion alerts.  Because
  each EVF2 frame carries its own codec descriptor, pre- and post-switch
  packs decode without any reader coordination;
* **worker autoscaling** — the analyzer's modelled knowledge-source worker
  pool (:data:`analysis_workers` divides the per-pack analysis CPU charge),
  scaled up under dispatch-backlog alerts;
* **writer rebalancing** — :meth:`~repro.vmpi.stream.VMPIStream.
  retarget_endpoint` driven by :func:`~repro.vmpi.mapping.remap_orphans`,
  levelling the writer-per-reader fan-in under imbalance or after failover.

Escalation is edge-driven (it happens in the alert callback); relaxation is
hysteretic: a relax pass on the monitor's tick steps actions back one level
at a time only after *all* trigger conditions have been clear for
``relax_after_s``, each step gated by its own cooldown, so the policy cannot
flap.

Every act is journalled as a :class:`SteeringDecision` carrying the
triggering alert, the virtual timestamp, and mean end-to-end flow latency
before/after (PR 4 provenance) — and mirrored as a Chrome-trace instant.

When no decision fires, the controller never touches the simulation: the
relax pass is an ``after_tick`` subscriber of the monitor, whose tick is a
kernel :class:`~repro.simt.kernel.PeriodicHook` (observer-only by
construction), so an enabled-but-never-triggered run is bit-identical to
one without steering.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError
from repro.obs.registry import CLEARED_SUFFIX, WINDOWED_ALERT_KINDS
from repro.steering.policy import (
    ESCALATE_REDUCTION,
    REBALANCE_WRITERS,
    RELAX_REDUCTION,
    SCALE_DOWN_WORKERS,
    SCALE_UP_WORKERS,
    SteeringPolicy,
)
from repro.vmpi.mapping import remap_orphans

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import World
    from repro.telemetry.monitor import HealthMonitor

#: Synthetic trigger kind stamped on relax decisions: the "alert" that
#: fired is the sustained absence of congestion, not a monitor event.
QUIESCENCE = "quiescence"


@dataclass
class SteeringDecision:
    """One actuation, journalled with its cause and its effect window."""

    action: str
    t: float
    trigger_kind: str
    trigger_t: float
    trigger_value: float
    detail: dict = field(default_factory=dict)
    #: mean end-to-end latency of flows completed before/after the decision
    #: (None without provenance, or when a window saw no completed flow)
    latency_before_s: float | None = None
    latency_after_s: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class SteeringController:
    """Online policy actuation over one simulated session."""

    def __init__(self, policy: SteeringPolicy | None = None):
        self.policy = policy or SteeringPolicy()
        self.decisions: list[SteeringDecision] = []
        #: optional live subscriber called with each SteeringDecision the
        #: moment it is journaled (the observability bus taps this; the
        #: decision's ``latency_after_s`` is still None at that point —
        #: it is only measurable once later windows close).
        self.on_decision: "Callable[[SteeringDecision], None] | None" = None
        #: modelled analyzer worker pool; the analysis CPU charge divides by
        #: this, and ``1`` (never scaled) leaves the charge untouched.
        self.analysis_workers = 1
        self.alerts_seen = 0
        self._world: "World | None" = None
        self._monitor: "HealthMonitor | None" = None
        self._registries: dict[str, list] = {}
        # Reduction ladder state.  Level 0 is the session's baseline chain
        # (whatever the run was configured with); levels 1.. follow the
        # policy's step table.  ``_base_level`` anchors relaxation when the
        # baseline itself sits mid-ladder.
        self._steps: tuple[str, ...] = self.policy.reduction_steps
        self._base_spec = ""
        self._base_level = 0
        self._level = 0
        # Hysteresis state: windowed trigger kinds currently above threshold
        # and the time any escalate/autoscale trigger last fired.
        self._congested: set[str] = set()
        self._last_trigger_t = float("-inf")
        # Per-actuator cooldown deadlines.
        self._next_escalate_t = float("-inf")
        self._next_relax_t = float("-inf")
        self._next_scale_up_t = float("-inf")
        self._next_scale_down_t = float("-inf")
        self._next_rebalance_t = float("-inf")
        self._rebalances_done = 0
        self._finalized = False

    # -- wiring -------------------------------------------------------------------

    def attach(
        self,
        world: "World",
        monitor: "HealthMonitor",
        registries: dict[str, list],
        initial_chain: str = "",
    ) -> None:
        """Subscribe to the monitor's router and, for the relax pass, its tick.

        ``registries`` is the session's per-application interceptor lists —
        empty at attach time, populated by the programs as they start.  The
        baseline reduction level therefore comes from ``initial_chain``
        (the session-wide :class:`InstrumentationCost` chain spec).
        """
        if self._world is not None:
            raise ConfigError("steering controller already attached")
        if monitor.router is None:
            raise ConfigError("steering needs a monitor with an AlertRouter")
        self._world = world
        self._monitor = monitor
        self._registries = registries
        self._base_spec = initial_chain or ""
        try:
            self._base_level = self._steps.index(self._base_spec)
        except ValueError:
            self._base_level = 0
        self._level = self._base_level
        monitor.router.subscribe(self.on_alert)
        # The monitor calls its subscribers straight after its detectors, so
        # a tick's cleared alerts are already delivered when the pass runs.
        monitor.after_tick.append(self._tick)
        world.steering = self

    def detach(self) -> None:
        if self._monitor is not None and self._tick in self._monitor.after_tick:
            self._monitor.after_tick.remove(self._tick)

    # -- alert path (escalation: edge-driven) -------------------------------------

    def on_alert(self, alert: Any) -> None:
        """Router callback: classify one alert and act on it immediately."""
        kind = getattr(alert, "kind", None)
        if kind is None or getattr(alert, "source", "") != "health_monitor":
            return  # application-level alerts share the router; ignore them
        self.alerts_seen += 1
        if kind.endswith(CLEARED_SUFFIX):
            base = kind[: -len(CLEARED_SUFFIX)]
            self._congested.discard(base)
            if not self._congested:
                # The all-clear edge restarts the relax clock.
                self._last_trigger_t = alert.t_detect
            return
        policy = self.policy
        now = alert.t_detect
        if kind in policy.escalate_on or kind in policy.autoscale_on:
            self._last_trigger_t = now
            if kind in WINDOWED_ALERT_KINDS:
                self._congested.add(kind)
        if policy.enable_reduction and kind in policy.escalate_on:
            self._escalate(now, alert)
        if policy.enable_autoscale and kind in policy.autoscale_on:
            self._scale_up(now, alert)
        if policy.enable_rebalance and kind in policy.rebalance_on:
            self._rebalance(now, alert)

    # -- relax path (hysteresis: level-driven) ------------------------------------

    def _tick(self, now: float) -> None:
        if self._congested:
            return
        if now - self._last_trigger_t < self.policy.relax_after_s:
            return
        if (
            self.policy.enable_reduction
            and self._level > self._base_level
            and now >= self._next_relax_t
        ):
            self._set_level(
                now, self._level - 1, RELAX_REDUCTION,
                trigger_kind=QUIESCENCE,
                trigger_t=self._last_trigger_t,
                trigger_value=now - self._last_trigger_t,
            )
            self._next_relax_t = now + self.policy.relax_cooldown_s
        if (
            self.policy.enable_autoscale
            and self.analysis_workers > 1
            and now >= self._next_scale_down_t
        ):
            before = self.analysis_workers
            self.analysis_workers = max(1, before // self.policy.worker_step)
            self._record(
                SCALE_DOWN_WORKERS, now,
                trigger_kind=QUIESCENCE,
                trigger_t=self._last_trigger_t,
                trigger_value=now - self._last_trigger_t,
                detail={"from": before, "to": self.analysis_workers},
            )
            self._next_scale_down_t = now + self.policy.autoscale_cooldown_s

    # -- actuators ----------------------------------------------------------------

    def _escalate(self, now: float, alert: Any) -> None:
        if now < self._next_escalate_t or self._level >= len(self._steps) - 1:
            return
        self._set_level(
            now, self._level + 1, ESCALATE_REDUCTION,
            trigger_kind=alert.kind,
            trigger_t=alert.t_detect,
            trigger_value=alert.value,
        )
        self._next_escalate_t = now + self.policy.escalate_cooldown_s

    def _spec_at(self, level: int) -> str:
        return self._base_spec if level == self._base_level else self._steps[level]

    def _set_level(self, now: float, level: int, action: str, **trigger) -> None:
        old_spec = self._spec_at(self._level)
        new_spec = self._spec_at(level)
        self._level = level
        switched = 0
        for name in sorted(self._registries):
            for interceptor in self._registries[name]:
                interceptor.set_reduction(new_spec)
                switched += 1
        self._record(
            action, now,
            detail={
                "from": old_spec or "identity",
                "to": new_spec or "identity",
                "level": level,
                "writers": switched,
            },
            **trigger,
        )

    def _scale_up(self, now: float, alert: Any) -> None:
        if now < self._next_scale_up_t:
            return
        before = self.analysis_workers
        after = min(self.policy.max_workers, before * self.policy.worker_step)
        if after == before:
            return
        self.analysis_workers = after
        self._record(
            SCALE_UP_WORKERS, now,
            trigger_kind=alert.kind,
            trigger_t=alert.t_detect,
            trigger_value=alert.value,
            detail={"from": before, "to": after},
        )
        self._next_scale_up_t = now + self.policy.autoscale_cooldown_s

    def _rebalance(self, now: float, alert: Any) -> None:
        if (
            now < self._next_rebalance_t
            or self._rebalances_done >= self.policy.max_rebalances
        ):
            return
        moves = self._rebalance_writers()
        if not moves:
            return
        self._rebalances_done += 1
        self._record(
            REBALANCE_WRITERS, now,
            trigger_kind=alert.kind,
            trigger_t=alert.t_detect,
            trigger_value=alert.value,
            detail={"moves": moves, "round": self._rebalances_done},
        )
        self._next_rebalance_t = now + self.policy.rebalance_cooldown_s

    def _rebalance_writers(self) -> dict[str, int]:
        """Level the writer fan-in across alive, still-open readers.

        Returns ``{writer_global: new_reader_global}`` for the writers
        actually moved (empty when already balanced — then no decision is
        recorded and the simulation is untouched).
        """
        world = self._world
        faults = world.faults
        dead = faults.dead_ranks if faults is not None else frozenset()
        readers = {
            owner: stream
            for owner, stream in world.streams
            if stream.mode == "r" and not stream._closed and owner not in dead
        }
        if len(readers) < 2:
            return {}
        # Fan-in per reader, as (writer_global, writer_stream) assignments.
        load: dict[int, list[tuple[int, Any]]] = {r: [] for r in readers}
        for owner, stream in world.streams:
            if stream.mode != "w" or stream._closed:
                continue
            for endpoint in stream.endpoints:
                if endpoint in load:
                    load[endpoint].append((owner, stream))
        total = sum(len(v) for v in load.values())
        if total == 0:
            return {}
        fair = -(-total // len(readers))  # ceil
        orphans: dict[int, tuple[Any, int]] = {}  # writer -> (stream, old reader)
        for reader in sorted(load):
            assigned = sorted(load[reader], key=lambda kv: kv[0])
            for owner, stream in assigned[fair:]:
                orphans[owner] = (stream, reader)
        underloaded = sorted(r for r in load if len(load[r]) < fair)
        if not orphans or not underloaded:
            return {}
        mapping = remap_orphans(sorted(orphans), underloaded)
        tel = world.telemetry
        moves: dict[str, int] = {}
        for writer in sorted(mapping):
            stream, old = orphans[writer]
            target = mapping[writer]
            if not stream.retarget_endpoint(old, target):
                continue
            readers[target].adopt_peer(writer)
            moves[str(writer)] = target
            if tel.enabled:
                tel.counter("steering.writer_remaps").inc()
        return moves

    # -- journal ------------------------------------------------------------------

    def _record(
        self,
        action: str,
        now: float,
        trigger_kind: str,
        trigger_t: float,
        trigger_value: float,
        detail: dict | None = None,
    ) -> None:
        decision = SteeringDecision(
            action=action,
            t=now,
            trigger_kind=trigger_kind,
            trigger_t=trigger_t,
            trigger_value=trigger_value,
            detail=detail or {},
            latency_before_s=self._mean_latency(upto=now),
        )
        self.decisions.append(decision)
        if self.on_decision is not None:
            self.on_decision(decision)
        tel = self._world.telemetry
        if tel.enabled:
            tel.counter("steering.decisions").inc()
            tel.instant(
                f"steering.{action}",
                cat="steering",
                args={"trigger": trigger_kind, **decision.detail},
            )

    def _mean_latency(
        self, upto: float, after: float = float("-inf")
    ) -> float | None:
        flows = self._world.flows if self._world is not None else None
        if flows is None:
            return None
        samples = [
            f.end_to_end_s
            for f in flows.completed()
            if after < f.t_done <= upto
        ]
        if not samples:
            return None
        return sum(samples) / len(samples)

    def finalize(self, t_end: float) -> None:
        """Stamp each decision's after-window latency (inter-decision)."""
        if self._finalized:
            return
        self._finalized = True
        for i, decision in enumerate(self.decisions):
            t_next = (
                self.decisions[i + 1].t if i + 1 < len(self.decisions) else t_end
            )
            decision.latency_after_s = self._mean_latency(
                upto=t_next, after=decision.t
            )

    # -- summaries ----------------------------------------------------------------

    def by_action(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for decision in self.decisions:
            out[decision.action] = out.get(decision.action, 0) + 1
        return out

    def summary(self) -> dict[str, Any]:
        """JSON-serializable journal for reports and bench artefacts."""
        return {
            "policy": asdict(self.policy),
            "alerts_seen": self.alerts_seen,
            "decisions": [d.as_dict() for d in self.decisions],
            "by_action": self.by_action(),
            "final": {
                "reduction_level": self._level,
                "chain": self._spec_at(self._level) or "identity",
                "workers": self.analysis_workers,
                "rebalances": self._rebalances_done,
            },
        }
