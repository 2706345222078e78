"""Flow bench: per-stage latency attribution of the streaming pipeline.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) with provenance tracing on, sweeping the
writer/reader ratio, and reports where an event pack's end-to-end latency
goes: seal, stall (backpressure), transit, receive-buffer dwell, dispatch
and analysis.  One table row per (ratio, stage) plus an ``end_to_end`` row
per ratio, so the ``BENCH_flow.json`` artefact *is* the stage-attribution
document — no side-channel files.

Because the stages telescope, each configuration's stage ``total_s`` values
sum to its end-to-end total exactly; the driver asserts this invariant on
every row group it emits (``consistency`` column, fractional error).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import coupled_session, pick, reference_kernel
from repro.bench.lane import Column, LaneResult, lane
from repro.errors import BenchGateError
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.telemetry.provenance import STAGES


@dataclass(slots=True)
class FlowPoint:
    """One pipeline stage of one coupled-workload configuration."""

    ratio: float
    writers: int
    readers: int
    stage: str
    flows: int
    p50_s: float
    p95_s: float
    mean_s: float
    total_s: float
    #: |sum(stage totals) - end-to-end total| / end-to-end total for the
    #: row's configuration (identical across its stage rows)
    consistency: float


COLUMNS = (
    Column("ratio", fmt="g"),
    Column("writers"),
    Column("readers"),
    Column("stage"),
    Column("flows"),
    Column("p50_us", "p50_s", ".3f", 1e6),
    Column("p95_us", "p95_s", ".3f", 1e6),
    Column("mean_us", "mean_s", ".3f", 1e6),
    Column("total_ms", "total_s", ".4f", 1e3),
    Column("consistency", fmt=".2e"),
)


@lane("flow", columns=COLUMNS)
def flow_attribution(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    sample_rate: float = 1.0,
) -> LaneResult:
    """Sweep the writer/reader ratio and attribute per-stage latency.

    Each configuration runs with full (or ``sample_rate``-bounded) flow
    tracing; undersized analyzers surface as growing ``stall`` and
    ``dwell`` shares — backpressure made visible stage by stage.
    """
    kernel = reference_kernel(scale, paper_ranks=256)
    # mirrors the fig14 writer/reader sweep
    ratios = pick(scale, small=(2.0, 4.0, 8.0), paper=(4.0, 16.0, 64.0))
    result = LaneResult(
        f"Pipeline latency attribution ({machine.name}, scale={scale})", COLUMNS
    )
    for ratio in ratios:
        session, _, readers = coupled_session(kernel, machine, seed, telemetry, ratio=ratio)
        session.enable_provenance(sample_rate=sample_rate)
        flows = session.run().flows
        end = flows["end_to_end"]
        stage_sum = sum(s["total_s"] for s in flows["stages"].values())
        consistency = (
            abs(stage_sum - end["total_s"]) / end["total_s"]
            if end["total_s"] > 0
            else 0.0
        )
        if consistency > 1e-9:
            raise BenchGateError(
                f"flow stage totals do not telescope at ratio {ratio}: "
                f"{stage_sum} vs {end['total_s']}"
            )
        rows = {stage: flows["stages"][stage] for stage in STAGES}
        rows["end_to_end"] = end
        for stage, s in rows.items():
            result.points.append(
                FlowPoint(
                    ratio=ratio,
                    writers=kernel.nprocs,
                    readers=readers,
                    stage=stage,
                    flows=int(s["count"]),
                    p50_s=s["p50_s"],
                    p95_s=s["p95_s"],
                    mean_s=s["mean_s"],
                    total_s=s["total_s"],
                    consistency=consistency,
                )
            )
    return result
