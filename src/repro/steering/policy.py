"""Declarative steering policies.

A :class:`SteeringPolicy` is the control-loop counterpart of a
:class:`~repro.faults.plan.FaultPlan`: a frozen, validated, JSON
round-trippable description of *how* the controller may react — which
alert kinds trigger which actuator, the reduction step table, cooldowns
and hysteresis windows, and per-action enable flags.  The controller
itself (:mod:`repro.steering.controller`) holds no tunables; everything
an experiment might sweep lives here so a policy can be committed next
to a fault plan and replayed bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Iterable

from repro.codec.stages import build_chain
from repro.errors import ConfigError

# Actions a controller can take; each decision records exactly one.
ESCALATE_REDUCTION = "escalate_reduction"
RELAX_REDUCTION = "relax_reduction"
SCALE_UP_WORKERS = "scale_up_workers"
SCALE_DOWN_WORKERS = "scale_down_workers"
REBALANCE_WRITERS = "rebalance_writers"

STEERING_ACTIONS = (
    ESCALATE_REDUCTION,
    RELAX_REDUCTION,
    SCALE_UP_WORKERS,
    SCALE_DOWN_WORKERS,
    REBALANCE_WRITERS,
)

# Default escalation ladder: identity -> lossless -> lossy sampling.
DEFAULT_REDUCTION_STEPS = ("", "delta+dict+zlib", "sample:131072+delta+dict+zlib")


def _as_tuple(value: Iterable[str]) -> tuple[str, ...]:
    if isinstance(value, str):
        raise ConfigError(f"expected a sequence of strings, got {value!r}")
    return tuple(str(v) for v in value)


@dataclass(frozen=True)
class SteeringPolicy:
    """What the controller is allowed to do, and how eagerly.

    The reduction ladder is a step table: level 0 is the session's
    baseline chain, and each escalation moves one level up
    ``reduction_steps``.  Relaxation is the hysteresis path: only after
    *all* escalate-trigger conditions have been clear for
    ``relax_after_s`` does the controller step back down, one level per
    ``relax_cooldown_s``.  Cooldowns ensure the policy cannot flap even
    under an alert storm.
    """

    name: str = "default"
    # -- reduction escalation --------------------------------------------------
    enable_reduction: bool = True
    reduction_steps: tuple[str, ...] = DEFAULT_REDUCTION_STEPS
    escalate_on: tuple[str, ...] = (
        "stream_stall",
        "backlog_growth",
        "stream_write_timeout",
        "stream_overflow_drop",
    )
    escalate_cooldown_s: float = 0.05
    relax_after_s: float = 0.25
    relax_cooldown_s: float = 0.1
    # -- analyzer worker autoscaling -------------------------------------------
    enable_autoscale: bool = True
    autoscale_on: tuple[str, ...] = ("backlog_growth", "analyzer_stall")
    max_workers: int = 4
    worker_step: int = 2
    autoscale_cooldown_s: float = 0.1
    # -- writer rebalancing ----------------------------------------------------
    enable_rebalance: bool = True
    rebalance_on: tuple[str, ...] = (
        "load_imbalance",
        "worker_starvation",
        "analyzer_failover",
    )
    rebalance_cooldown_s: float = 0.2
    max_rebalances: int = 4

    def __post_init__(self):
        object.__setattr__(self, "reduction_steps", _as_tuple(self.reduction_steps))
        object.__setattr__(self, "escalate_on", _as_tuple(self.escalate_on))
        object.__setattr__(self, "autoscale_on", _as_tuple(self.autoscale_on))
        object.__setattr__(self, "rebalance_on", _as_tuple(self.rebalance_on))
        if not self.name:
            raise ConfigError("steering policy needs a non-empty name")
        if not self.reduction_steps:
            raise ConfigError("reduction_steps must hold at least the identity level")
        normalized = []
        for spec in self.reduction_steps:
            try:
                normalized.append(build_chain(spec).spec)
            except Exception as exc:
                raise ConfigError(
                    f"policy {self.name!r}: bad reduction step {spec!r}: {exc}"
                ) from exc
        object.__setattr__(self, "reduction_steps", tuple(normalized))
        for attr in (
            "escalate_cooldown_s",
            "relax_after_s",
            "relax_cooldown_s",
            "autoscale_cooldown_s",
            "rebalance_cooldown_s",
        ):
            if getattr(self, attr) < 0:
                raise ConfigError(f"policy {self.name!r}: {attr} must be >= 0")
        if self.max_workers < 1:
            raise ConfigError(f"policy {self.name!r}: max_workers must be >= 1")
        if self.worker_step < 2:
            raise ConfigError(f"policy {self.name!r}: worker_step must be >= 2")
        if self.max_rebalances < 0:
            raise ConfigError(f"policy {self.name!r}: max_rebalances must be >= 0")

    # -- serialization (FaultPlan idiom) ---------------------------------------

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SteeringPolicy":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad steering policy JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("steering policy JSON must be an object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown steering policy keys: {', '.join(unknown)}")
        return cls(**data)


def static_policy(name: str = "static") -> SteeringPolicy:
    """A policy with every actuator disabled — observe, never act."""
    return SteeringPolicy(
        name=name,
        enable_reduction=False,
        enable_autoscale=False,
        enable_rebalance=False,
    )
