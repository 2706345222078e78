"""Fault plans: deterministic, seeded fault schedules in virtual time.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries —
*what* goes wrong, *when* (virtual seconds), and *how hard*.  Plans are data:
they serialize to/from JSON, compare by value, and contain no simulation
state, so the same plan attached to the same seeded session reproduces the
same faults at the same virtual timestamps, run after run.

Fault kinds
-----------

``analyzer_crash``
    Kill one analyzer rank mid-run (``target`` = analyzer-local rank;
    negative indexes from the end, Python style).  Local rank 0 — the
    mapping pivot and gather root — cannot be killed: the coupling protocol
    needs it, exactly as a real tool daemon needs its root alive.
``link_degrade``
    Cut the NIC bandwidth of the target analyzer's node by ``factor`` and/or
    add ``extra_latency`` seconds to every message touching it.
``pack_corrupt``
    Flip bytes in every ``every``-th event pack at the transport boundary
    (the reader's checksum rejects them).
``pack_drop``
    Silently swallow every ``every``-th event pack at the transport boundary.
``analyzer_stall``
    Freeze the target analyzer's stream consumption for ``duration``
    virtual seconds (a GC pause / OS jitter stand-in).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

from repro.errors import ConfigError

ANALYZER_CRASH = "analyzer_crash"
LINK_DEGRADE = "link_degrade"
PACK_CORRUPT = "pack_corrupt"
PACK_DROP = "pack_drop"
ANALYZER_STALL = "analyzer_stall"

FAULT_KINDS = (
    ANALYZER_CRASH,
    LINK_DEGRADE,
    PACK_CORRUPT,
    PACK_DROP,
    ANALYZER_STALL,
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``target`` is an analyzer-partition *local* rank (negative = from the
    end); it is resolved to a global rank when the plan is attached.
    ``factor``/``extra_latency`` apply to ``link_degrade``, ``every`` to the
    pack faults, ``duration`` to ``analyzer_stall``.
    """

    kind: str
    at: float
    target: int = -1
    factor: float = 1.0
    extra_latency: float = 0.0
    every: int = 0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.at <= 0:
            raise ConfigError(f"fault time must be > 0, got {self.at}")
        if self.kind == ANALYZER_CRASH and self.target == 0:
            raise ConfigError(
                "cannot crash analyzer local rank 0: it is the mapping pivot "
                "and gather root (pick any other rank)"
            )
        if self.kind == LINK_DEGRADE:
            if self.factor <= 0:
                raise ConfigError(f"degrade factor must be > 0, got {self.factor}")
            if self.extra_latency < 0:
                raise ConfigError(f"extra_latency must be >= 0, got {self.extra_latency}")
            if self.factor == 1.0 and self.extra_latency == 0:
                raise ConfigError("link_degrade without factor or extra_latency is a no-op")
        if self.kind in (PACK_CORRUPT, PACK_DROP) and self.every < 1:
            raise ConfigError(f"pack faults need every >= 1, got {self.every}")
        if self.kind == ANALYZER_STALL and self.duration <= 0:
            raise ConfigError(f"stall duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, serializable schedule of faults."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(f"plan entries must be FaultSpec, got {spec!r}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def empty(self) -> bool:
        return not self.specs

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "faults": [asdict(s) for s in self.specs],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str | dict) -> "FaultPlan":
        data = json.loads(text) if isinstance(text, str) else text
        if not isinstance(data, dict) or "faults" not in data:
            raise ConfigError("fault plan JSON needs a top-level 'faults' list")
        try:
            specs = tuple(FaultSpec(**entry) for entry in data["faults"])
        except TypeError as exc:
            raise ConfigError(f"malformed fault spec: {exc}") from exc
        return cls(
            specs=specs,
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "custom")),
        )


#: Canned plans for the chaos bench and smoke tests; ``at`` scales the whole
#: schedule so callers can anchor it to the workload's expected runtime.
CANNED_PLANS = ("crash1", "degrade", "corrupt", "drop", "stall", "mixed")


def make_plan(name: str, *, at: float = 0.5, seed: int = 0) -> FaultPlan:
    """Build a canned fault plan anchored at virtual time ``at``."""
    if at <= 0:
        raise ConfigError(f"plan anchor time must be > 0, got {at}")
    if name == "crash1":
        specs = (FaultSpec(ANALYZER_CRASH, at=at, target=-1),)
    elif name == "degrade":
        specs = (FaultSpec(LINK_DEGRADE, at=at, target=-1, factor=0.25,
                           extra_latency=5e-6),)
    elif name == "corrupt":
        specs = (FaultSpec(PACK_CORRUPT, at=at, every=3),)
    elif name == "drop":
        specs = (FaultSpec(PACK_DROP, at=at, every=4),)
    elif name == "stall":
        specs = (FaultSpec(ANALYZER_STALL, at=at, target=-1, duration=at * 0.5),)
    elif name == "mixed":
        specs = (
            FaultSpec(PACK_CORRUPT, at=at * 0.6, every=5),
            FaultSpec(LINK_DEGRADE, at=at * 0.8, target=-1, factor=0.5),
            FaultSpec(ANALYZER_CRASH, at=at, target=-1),
        )
    else:
        raise ConfigError(f"unknown canned plan {name!r} (have {', '.join(CANNED_PLANS)})")
    return FaultPlan(specs=specs, seed=seed, name=name)
