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
gate raises :class:`~repro.errors.BenchGateError`, so ``python -m repro.bench
steering`` fails loudly in CI without needing a baseline diff.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.bench.harness import PACK_COST, coupled_session, pick, reference_kernel
from repro.bench.lane import Column, LaneResult, lane
from repro.core.session import SessionResult
from repro.errors import BenchGateError
from repro.faults.plan import LINK_DEGRADE, FaultPlan, FaultSpec
from repro.mpi.costmodel import CostModel
from repro.network.machine import TERA100
from repro.steering.policy import SteeringPolicy, static_policy
from repro.telemetry.core import Telemetry

#: where in the healthy run's app wall-time the congestion plan anchors
_ANCHOR_FRACTION = 0.35
#: NIC bandwidth multiplier of the degraded analyzer node
_DEGRADE_FACTOR = 2e-5
#: ranks per node — writers on nodes 0-1, the 4-rank analyzer alone on node 2
_CORES_PER_NODE = 8
#: rendezvous threshold: below the pack size, so stream packs never go eager
_EAGER_THRESHOLD = 2048
#: analyzer ranks
_READERS = 4


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


@dataclass(slots=True)
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


COLUMNS = (
    Column("policy"),
    Column("plan"),
    Column("decisions"),
    Column("escalations"),
    Column("relaxes"),
    Column("packs_written"),
    Column("packs_dropped"),
    Column("packs_stranded"),
    Column("write_timeouts"),
    Column("events_analyzed"),
    Column("app_walltime_s", "app_walltime", ".6f"),
    Column("events_per_s", fmt=".1f"),
)


def _run(kernel, seed: int, policy: SteeringPolicy,
         plan: FaultPlan | None,
         telemetry: Telemetry | None) -> tuple[SessionResult, str]:
    # Writers must share nodes 0-1 while the analyzer sits alone on node 2:
    # only inter-node traffic touches the NIC the congestion plan degrades.
    mach = dataclasses.replace(TERA100, cores_per_node=_CORES_PER_NODE)
    session, name, _ = coupled_session(
        kernel, mach, seed,
        telemetry if telemetry is not None else Telemetry(),
        readers=_READERS,
        cost=dataclasses.replace(
            PACK_COST, write_timeout=2e-3, max_retries=2, overflow="drop-newest"
        ),
        mpi_cost=dataclasses.replace(
            CostModel.for_machine(mach, ranks_per_node=_CORES_PER_NODE),
            eager_threshold=_EAGER_THRESHOLD,
        ),
    )
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
    """The lane's acceptance criteria; the error names the broken gate."""
    if healthy_adaptive.decisions != 0:
        raise BenchGateError(
            f"steering gate: adaptive policy made {healthy_adaptive.decisions} "
            "decisions on the healthy workload (expected none)"
        )
    same = (
        healthy_static.app_walltime == healthy_adaptive.app_walltime
        and healthy_static.events_analyzed == healthy_adaptive.events_analyzed
        and healthy_static.packs_written == healthy_adaptive.packs_written
    )
    if not same:
        raise BenchGateError(
            "steering gate: enabled-but-never-triggered steering changed the "
            f"healthy run (static {healthy_static.app_walltime:.9f}s/"
            f"{healthy_static.events_analyzed}ev/{healthy_static.packs_written}pk "
            f"vs adaptive {healthy_adaptive.app_walltime:.9f}s/"
            f"{healthy_adaptive.events_analyzed}ev/{healthy_adaptive.packs_written}pk)"
        )
    if congested_adaptive.decisions < 1:
        raise BenchGateError(
            "steering gate: congestion plan triggered no adaptive decisions"
        )
    if not _lost(congested_adaptive) < _lost(congested_static):
        raise BenchGateError(
            "steering gate: adaptive policy did not cut pack loss "
            f"({_lost(congested_adaptive)} lost vs static {_lost(congested_static)})"
        )
    if congested_adaptive.events_per_s < congested_static.events_per_s:
        raise BenchGateError(
            "steering gate: adaptive throughput "
            f"{congested_adaptive.events_per_s:.1f} ev/s fell below static "
            f"{congested_static.events_per_s:.1f} ev/s under congestion"
        )


@lane("steering", columns=COLUMNS)
def steering_adaptation(
    scale: str = "small",
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> LaneResult:
    """Run the static/adaptive × healthy/congested grid and self-gate.

    The adaptive congested run's full decision log (policy, alerts seen,
    per-decision trigger/latency data) is the ``steering_decisions.json``
    artifact, for upload.
    """
    # enough iterations for sustained packs
    kernel = reference_kernel(scale, paper_ranks=16, iterations=pick(scale, small=12, paper=40))
    result = LaneResult(f"Adaptive steering ({TERA100.name}, scale={scale})", COLUMNS)

    def row(policy: SteeringPolicy, label: str, plan: FaultPlan | None):
        run, name = _run(kernel, seed, policy, plan, telemetry)
        result.points.append(
            _point(run, name, label, plan.name if plan is not None else "none")
        )
        return run, name

    # Healthy rows anchor the congestion plan and feed the bit-identity gate.
    run, name = row(static_policy(), "static", None)
    plan = FaultPlan(
        specs=(FaultSpec(LINK_DEGRADE, at=run.app(name).walltime * _ANCHOR_FRACTION,
                         target=-1, factor=_DEGRADE_FACTOR),),
        name="congestion",
    )
    row(bench_policy(), "adaptive", None)
    row(static_policy(), "static", plan)
    run, _ = row(bench_policy(), "adaptive", plan)

    _gate(*result.points)

    # ``SteeringController.summary()`` of the adaptive congested run
    decision_log = json.dumps(run.steering, indent=2, default=str)
    result.artifacts["steering_decisions.json"] = lambda path: path.write_text(decision_log)
    return result
