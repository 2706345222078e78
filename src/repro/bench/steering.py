"""Steering bench: the adaptive control loop versus a static configuration.

Four rows of the same coupled workload (an instrumented SP kernel streaming
into a multi-rank analyzer): static and adaptive policies, each run healthy
and under a congestion fault plan that degrades the analyzer node's NIC
mid-streaming-phase.  The topology deliberately splits writers and
analyzers across nodes (``cores_per_node=8``) and lowers the rendezvous
threshold so every 4 KiB pack crosses the degraded link as a rendezvous
transfer — eager sends would complete into MPI buffering and writers would
never feel the congestion.

The lane self-gates: under congestion the adaptive policy must make at
least one decision, lose strictly fewer packs than the static run and hold
at least the static analyzed-event throughput; on the healthy workload it
must make *zero* decisions and reproduce the static run bit-identically
(same virtual wall-time, analyzed events and sealed packs).  A violated
gate raises :class:`~repro.errors.ConfigError`, so ``python -m repro.bench
steering`` fails loudly in CI without needing a baseline diff.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.nas import SP
from repro.core.session import CouplingSession, SessionResult
from repro.errors import ConfigError
from repro.faults import LINK_DEGRADE, FaultPlan, FaultSpec
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.costmodel import CostModel
from repro.network.machine import MachineSpec, TERA100
from repro.steering import SteeringPolicy
from repro.steering.policy import static_policy
from repro.telemetry import Telemetry
from repro.util.tables import Table

#: where in the healthy run's app wall-time the congestion plan anchors
_ANCHOR_FRACTION = 0.35
#: NIC bandwidth multiplier of the degraded analyzer node
_DEGRADE_FACTOR = 2e-5
#: ranks per node — writers on nodes 0-1, the 4-rank analyzer alone on node 2
_CORES_PER_NODE = 8
#: rendezvous threshold: below the pack size, so stream packs never go eager
_EAGER_THRESHOLD = 2048


def bench_policy() -> SteeringPolicy:
    """The adaptive policy the lane benchmarks.

    Escalation triggers are limited to genuine transport distress: the
    healthy reference workload legitimately raises ``load_imbalance`` /
    ``worker_starvation`` / ``critical_path`` alerts, and a policy that
    acted on those would fail the zero-decision gate on the healthy rows.
    """
    return SteeringPolicy(
        name="bench-congestion",
        reduction_steps=("", "delta+dict", "delta+dict+zlib"),
        escalate_on=(
            "stream_stall",
            "stream_write_timeout",
            "stream_overflow_drop",
            "backlog_growth",
        ),
        autoscale_on=("backlog_growth", "analyzer_stall"),
        enable_rebalance=False,
    )


@dataclass
class SteeringBenchPoint:
    """One (policy, plan) run of the reference coupled workload."""

    policy: str
    plan: str
    decisions: int
    escalations: int
    relaxes: int
    packs_written: int
    packs_dropped: int
    packs_stranded: int
    write_timeouts: int
    events_analyzed: int
    app_walltime: float
    events_per_s: float


@dataclass
class SteeringBenchResult:
    """Static-versus-adaptive sweep, plus the adaptive decision log."""

    machine: str
    scale: str
    seed: int
    points: list[SteeringBenchPoint] = field(default_factory=list)
    #: ``SteeringController.summary()`` of the adaptive congested run
    decision_log: dict | None = field(default=None, repr=False)

    def table(self) -> Table:
        t = Table(
            [
                "policy", "plan", "decisions", "escalations", "relaxes",
                "packs_written", "packs_dropped", "packs_stranded",
                "write_timeouts", "events_analyzed", "app_walltime_s",
                "events_per_s",
            ],
            title=f"Adaptive steering ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                p.policy, p.plan, p.decisions, p.escalations, p.relaxes,
                p.packs_written, p.packs_dropped, p.packs_stranded,
                p.write_timeouts, p.events_analyzed,
                f"{p.app_walltime:.6f}", f"{p.events_per_s:.1f}",
            )
        return t


def _workload(scale: str):
    """(kernel, analyzer ranks): enough iterations for sustained packs."""
    if scale == "paper":
        return SP(16, "C", iterations=40), 4
    if scale == "small":
        return SP(16, "C", iterations=12), 4
    raise ConfigError(f"unknown scale {scale!r}")


def _run(kernel, readers: int, machine: MachineSpec, seed: int,
         policy: SteeringPolicy, plan: FaultPlan | None,
         telemetry: Telemetry | None) -> tuple[SessionResult, str]:
    # Writers must share nodes 0-1 while the analyzer sits alone on node 2:
    # only inter-node traffic touches the NIC the congestion plan degrades.
    mach = dataclasses.replace(machine, cores_per_node=_CORES_PER_NODE)
    cost = dataclasses.replace(
        CostModel.for_machine(mach, ranks_per_node=_CORES_PER_NODE),
        eager_threshold=_EAGER_THRESHOLD,
    )
    icost = InstrumentationCost(
        block_size=4096, na_buffers=2,
        write_timeout=2e-3, max_retries=2, overflow="drop-newest",
    )
    session = CouplingSession(
        machine=mach, seed=seed, instrumentation=icost, mpi_cost=cost,
        telemetry=telemetry if telemetry is not None else Telemetry(),
    )
    name = session.add_application(kernel)
    session.set_analyzer(nprocs=readers)
    session.enable_monitor()
    session.enable_steering(policy)
    if plan is not None:
        session.inject_faults(plan)
    return session.run(), name


def _point(result: SessionResult, name: str, policy: str, plan: str) -> SteeringBenchPoint:
    run = result.app(name)
    by_action = {}
    decisions = 0
    if result.steering:
        decisions = len(result.steering["decisions"])
        by_action = result.steering["by_action"]
    writers = [st.stats() for _, st in result.world.streams if st.mode == "w"]
    readers = [st.stats() for _, st in result.world.streams if st.mode == "r"]
    events = result.report.chapter(name).profile.events_total
    return SteeringBenchPoint(
        policy=policy,
        plan=plan,
        decisions=decisions,
        escalations=by_action.get("escalate_reduction", 0),
        relaxes=by_action.get("relax_reduction", 0),
        packs_written=sum(st["blocks_written"] for st in writers),
        packs_dropped=sum(st["blocks_dropped"] for st in writers),
        packs_stranded=sum(st["blocks_discarded_at_close"] for st in readers),
        write_timeouts=sum(st["write_timeouts"] for st in writers),
        events_analyzed=events,
        app_walltime=run.walltime,
        events_per_s=events / run.walltime if run.walltime > 0 else 0.0,
    )


def _lost(p: SteeringBenchPoint) -> int:
    return p.packs_dropped + p.packs_stranded


def _gate(healthy_static: SteeringBenchPoint, healthy_adaptive: SteeringBenchPoint,
          congested_static: SteeringBenchPoint,
          congested_adaptive: SteeringBenchPoint) -> None:
    """The lane's acceptance criteria; ConfigError names the broken gate."""
    if healthy_adaptive.decisions != 0:
        raise ConfigError(
            f"steering gate: adaptive policy made {healthy_adaptive.decisions} "
            "decisions on the healthy workload (expected none)"
        )
    same = (
        healthy_static.app_walltime == healthy_adaptive.app_walltime
        and healthy_static.events_analyzed == healthy_adaptive.events_analyzed
        and healthy_static.packs_written == healthy_adaptive.packs_written
    )
    if not same:
        raise ConfigError(
            "steering gate: enabled-but-never-triggered steering changed the "
            f"healthy run (static {healthy_static.app_walltime:.9f}s/"
            f"{healthy_static.events_analyzed}ev/{healthy_static.packs_written}pk "
            f"vs adaptive {healthy_adaptive.app_walltime:.9f}s/"
            f"{healthy_adaptive.events_analyzed}ev/{healthy_adaptive.packs_written}pk)"
        )
    if congested_adaptive.decisions < 1:
        raise ConfigError(
            "steering gate: congestion plan triggered no adaptive decisions"
        )
    if not _lost(congested_adaptive) < _lost(congested_static):
        raise ConfigError(
            "steering gate: adaptive policy did not cut pack loss "
            f"({_lost(congested_adaptive)} lost vs static {_lost(congested_static)})"
        )
    if congested_adaptive.events_per_s < congested_static.events_per_s:
        raise ConfigError(
            "steering gate: adaptive throughput "
            f"{congested_adaptive.events_per_s:.1f} ev/s fell below static "
            f"{congested_static.events_per_s:.1f} ev/s under congestion"
        )


def steering_adaptation(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    outdir: str | None = None,
) -> SteeringBenchResult:
    """Run the static/adaptive × healthy/congested grid and self-gate.

    With ``outdir`` the adaptive congested run's full decision log
    (policy, alerts seen, per-decision trigger/latency data) is written to
    ``steering_decisions.json`` for artefact upload.
    """
    kernel, readers = _workload(scale)
    result = SteeringBenchResult(machine=machine.name, scale=scale, seed=seed)

    # Healthy rows anchor the congestion plan and feed the bit-identity gate.
    rows: dict[tuple[str, str], SteeringBenchPoint] = {}
    run, name = _run(kernel, readers, machine, seed, static_policy(), None, telemetry)
    rows[("static", "none")] = _point(run, name, "static", "none")
    anchor = run.app(name).walltime * _ANCHOR_FRACTION

    run, name = _run(kernel, readers, machine, seed, bench_policy(), None, telemetry)
    rows[("adaptive", "none")] = _point(run, name, "adaptive", "none")

    plan = FaultPlan(
        specs=(FaultSpec(LINK_DEGRADE, at=anchor, target=-1,
                         factor=_DEGRADE_FACTOR),),
        name="congestion",
    )
    run, name = _run(kernel, readers, machine, seed, static_policy(), plan, telemetry)
    rows[("static", "congestion")] = _point(run, name, "static", "congestion")

    run, name = _run(kernel, readers, machine, seed, bench_policy(), plan, telemetry)
    rows[("adaptive", "congestion")] = _point(run, name, "adaptive", "congestion")
    result.decision_log = run.steering

    for key in (("static", "none"), ("adaptive", "none"),
                ("static", "congestion"), ("adaptive", "congestion")):
        result.points.append(rows[key])

    _gate(rows[("static", "none")], rows[("adaptive", "none")],
          rows[("static", "congestion")], rows[("adaptive", "congestion")])

    if outdir is not None:
        path = Path(outdir) / "steering_decisions.json"
        path.write_text(json.dumps(result.decision_log, indent=2, default=str))
    return result
