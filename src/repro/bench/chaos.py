"""Chaos bench: how the coupling behaves when faults are injected mid-run.

Each row runs the same fig14-style coupled workload (an instrumented SP
kernel streaming into a multi-rank analyzer) under one fault plan and
reports whether the application still completed, whether the run degraded,
and what fraction of emitted packs never reached analysis.  A healthy
plan-free baseline row anchors the comparison and supplies the virtual
wall-time used to place the fault anchor (paper-spirit: faults strike in
the middle of the streaming phase, not during startup or teardown).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import coupled_session, pick, reference_kernel
from repro.bench.lane import Column, LaneResult, lane
from repro.errors import ConfigError
from repro.faults.plan import CANNED_PLANS, FaultPlan, make_plan
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry.core import Telemetry

#: where in the healthy run's app wall-time the canned plans anchor
_ANCHOR_FRACTION = 0.35


@dataclass(slots=True)
class ChaosPoint:
    """One fault-plan run of the reference coupled workload."""

    plan: str
    writers: int
    readers: int
    completed: bool
    degraded: bool
    faults_injected: int
    dead_ranks: int
    packs_dropped: int
    packs_rejected: int
    data_loss_fraction: float
    app_walltime: float
    alerts: int


COLUMNS = (
    Column("plan"),
    Column("writers"),
    Column("readers"),
    Column("completed", lambda p: "yes" if p.completed else "no"),
    Column("degraded", lambda p: "yes" if p.degraded else "no"),
    Column("faults_injected"),
    Column("dead_ranks"),
    Column("packs_dropped"),
    Column("packs_rejected"),
    Column("data_loss_pct", "data_loss_fraction", ".2f", 100),
    Column("app_walltime_s", "app_walltime", ".4f"),
    Column("alerts"),
)


def load_plan(spec: str, *, at: float, seed: int = 0) -> FaultPlan:
    """Resolve a ``--chaos`` argument: a canned plan name or a JSON file.

    Canned names are anchored at virtual time ``at``; a JSON file carries
    its own absolute timestamps and is used verbatim.
    """
    if spec in CANNED_PLANS:
        return make_plan(spec, at=at, seed=seed)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read fault plan {spec!r}: {exc}") from None
        return FaultPlan.from_json(data)
    raise ConfigError(
        f"unknown fault plan {spec!r}: not a canned name "
        f"({', '.join(CANNED_PLANS)}) and not a JSON file"
    )


def _plan_spec(spec: str) -> str:
    """``--chaos`` argument check: resolvable before anything has run."""
    load_plan(spec, at=1.0)  # any valid anchor: the healthy run supplies the real one
    return spec


def _point(result, name: str, plan_label: str, readers: int) -> ChaosPoint:
    run = result.app(name)
    faults = result.faults or {}
    health = result.health or {}
    stats = result.analyzer_stats or {}
    return ChaosPoint(
        plan=plan_label,
        writers=run.nprocs,
        readers=readers,
        completed=run.walltime > 0,
        degraded=result.degraded,
        faults_injected=faults.get("injected", 0),
        dead_ranks=len(faults.get("dead_ranks", ())),
        packs_dropped=run.packs_dropped,
        packs_rejected=stats.get("packs_rejected", 0),
        data_loss_fraction=result.data_loss_fraction,
        app_walltime=run.walltime,
        alerts=len(health.get("alerts", ())),
    )


@lane(
    "chaos",
    columns=COLUMNS,
    flags={
        "plan": ("--chaos", {
            "metavar": "PLAN",
            "type": _plan_spec,
            "help": "fault plan: a canned name (crash1, degrade, corrupt, "
            "drop, stall, mixed) or a JSON plan file; default: sweep "
            "every canned plan",
        }),
    },
)
def chaos_resilience(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    plan: str | FaultPlan | None = None,
) -> LaneResult:
    """Run the coupled workload healthy, then under fault plans.

    ``plan`` narrows the sweep to one plan (a canned name, a JSON plan
    file, or a :class:`FaultPlan`); by default every canned plan runs.
    """
    kernel = reference_kernel(scale, paper_ranks=256)
    # a crash needs >= 2 analyzer ranks to survive
    readers = pick(scale, small=4, paper=16)
    result = LaneResult(f"Chaos resilience ({machine.name}, scale={scale})", COLUMNS)

    def run(label: str, fault_plan: FaultPlan | None):
        session, name, _ = coupled_session(kernel, machine, seed, telemetry, readers=readers)
        if telemetry is not None:
            session.enable_monitor()
        if fault_plan is not None:
            session.inject_faults(fault_plan)
        outcome = session.run()
        result.points.append(_point(outcome, name, label, readers))
        return outcome.app(name).walltime

    # Healthy baseline: supplies the row of reference numbers and the
    # wall-time that anchors the canned plans mid-streaming-phase.
    anchor = run("none", None) * _ANCHOR_FRACTION

    if plan is None:
        plans = [(p, make_plan(p, at=anchor, seed=seed)) for p in CANNED_PLANS]
    elif isinstance(plan, FaultPlan):
        plans = [(plan.name, plan)]
    else:
        resolved = load_plan(plan, at=anchor, seed=seed)
        plans = [(resolved.name, resolved)]

    for label, fault_plan in plans:
        run(label, fault_plan)
    return result
