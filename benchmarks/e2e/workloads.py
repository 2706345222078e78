"""The five benchmark workloads, built on the public API of ``repro`` only.

A workload is a list of :class:`Operation` objects made by its
``prepare(seed, quick, tmpdir)`` function (the set-up the child times as
``setup_s``).  Running an operation returns ``(content_bytes, checks)``:
the modelled content bytes that reached their consumer, and for each of
the operation's declared check names the simulated outputs that
``golden.json`` fingerprints.  ``str`` / ``bytes`` / ``list[bytes]``
outputs are replaced by their SHA-256 once the timed region is over.

Workload names, sizes and the reason each exists are fixed by the issue
that defined this benchmark; see README.md for the table.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro import CURIE, TERA100, CouplingSession, InstrumentationCost, compare_tools
from repro.analysis import AnalysisConfig, AnalyzerEngine
from repro.apps import CG, LU, SP, stream_reader_program, stream_writer_program
from repro.bench import load_plan, measure_overhead
from repro.bench.harness import readers_for
from repro.codec import build_chain
from repro.instrument import EventPackBuilder
from repro.mpi.pmpi import CallRecord
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import PopConfig
from repro.util.units import MIB
from repro.vmpi import VirtualizedLauncher

Checks = dict[str, dict[str, Any]]


class OutputError(ValueError):
    """An operation's outputs break an invariant that holds for every seed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


@dataclass(frozen=True)
class Operation:
    """One checked unit of work; every name in ``checks`` counts as attempted."""

    name: str
    checks: tuple[str, ...]
    run: Callable[[], tuple[int, Checks]]


# -- stream_sweep ---------------------------------------------------------------------


def _stream_point(writers: int, ratio: int, bytes_per_writer: int, seed: int):
    stats: dict[str, Any] = {}
    launcher = VirtualizedLauncher(machine=TERA100, seed=seed)
    launcher.add_program(
        "Writers",
        nprocs=writers,
        main=stream_writer_program,
        total_bytes=bytes_per_writer,
        block_size=MIB,
        reader_partition="Analyzer",
        stats=stats,
    )
    launcher.add_program(
        "Analyzer",
        nprocs=readers_for(writers, ratio),
        main=stream_reader_program,
        block_size=MIB,
        stats=stats,
    )
    world = launcher.run()
    require(
        stats["bytes_read"] == stats["bytes_written"] == writers * bytes_per_writer,
        f"stream point lost bytes: {stats}",
    )
    outputs = {
        "bytes_written": stats["bytes_written"],
        "bytes_read": stats["bytes_read"],
        "t_first_write": stats["t_first_write"],
        "t_last_read": stats["t_last_read"],
        "kernel_events": world.kernel.events_dispatched,
    }
    return stats["bytes_read"], outputs


def prepare_stream_sweep(seed: int, quick: bool, tmpdir: str) -> list[Operation]:
    """The fig14 small grid: payload-less 1 MiB blocks, writers x ratio."""
    writer_counts = (64,) if quick else (64, 160, 320)
    ratios = (1, 16) if quick else (1, 4, 16, 32)
    per_writer = (8 if quick else 32) * MIB
    ops = []
    for writers in writer_counts:
        for ratio in ratios:
            name = f"w{writers}.r{ratio}"

            def run(w=writers, r=ratio, name=name):
                content, outputs = _stream_point(w, r, per_writer, seed)
                return content, {name: outputs}

            ops.append(Operation(name, (name,), run))
    return ops


# -- figure_mix -----------------------------------------------------------------------


def prepare_figure_mix(seed: int, quick: bool, tmpdir: str) -> list[Operation]:
    """The fig15-18 family: overhead points, then the tool comparison."""
    if quick:
        kernels = [LU(16, "C", iterations=2), CG(16, "C", iterations=3)]
        tool_ranks, tools = 16, ("reference", "scorep_trace")
    else:
        kernels = [
            LU(256, "D", iterations=2),
            CG(128, "D", iterations=6),
            SP(225, "C", iterations=2),
        ]
        tool_ranks, tools = 64, ("reference", "scorep_trace", "scalasca")
    ops = []
    for kernel in kernels:
        name = f"overhead.{kernel.label}"

        def run(kernel=kernel, name=name):
            p = measure_overhead(kernel, TERA100, ratio=1.0, seed=seed)
            require(p.events > 0 and 0 < p.t_reference <= p.t_instrumented, f"implausible {p}")
            outputs = {
                "t_reference": p.t_reference,
                "t_instrumented": p.t_instrumented,
                "events": p.events,
                "bytes": p.modeled_stream_bytes,
            }
            return p.modeled_stream_bytes, {name: outputs}

        ops.append(Operation(name, (name,), run))

    def run_tools():
        results = compare_tools(
            lambda: SP(tool_ranks, "D", iterations=3),
            tools=tools,
            machine=CURIE,
            seed=seed,
        )
        require(all(r.walltime > 0 for r in results), f"tool run without walltime: {results}")
        checks = {
            f"tool.{r.tool}": {
                "walltime": r.walltime,
                "overhead_pct": r.overhead_pct,
                "volume_bytes": r.full_run_volume_bytes,
            }
            for r in results
        }
        return 0, checks

    ops.append(Operation("tools", tuple(f"tool.{t}" for t in tools), run_tools))
    return ops


# -- reduced_coupled / observed_faulted -------------------------------------------------


def _session_outputs(result, app: str) -> tuple[int, dict[str, Any]]:
    run = result.app(app)
    stats = result.analyzer_stats
    outputs = {
        "walltime": run.walltime,
        "analyzer_walltime": result.analyzer_walltime,
        "events": run.events,
        "packs": run.packs,
        "packs_dropped": run.packs_dropped,
        "bytes": stats["bytes"],
        "bytes_wire": stats["bytes_wire"],
        "packs_ingested": stats["packs"],
        "packs_rejected": stats["packs_rejected"],
        "kernel_events": result.world.kernel.events_dispatched,
        "data_loss_fraction": result.data_loss_fraction,
    }
    return stats["bytes"], outputs


def prepare_reduced_coupled(seed: int, quick: bool, tmpdir: str) -> list[Operation]:
    """Online reduction in the simulation: small packs, undersized analyzer."""
    kernel = SP(16, "C", iterations=2) if quick else SP(256, "C", iterations=3)

    def run():
        session = CouplingSession(
            TERA100,
            seed=seed,
            instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        )
        app = session.add_application(kernel)
        session.set_analyzer(ratio=8.0)
        session.set_reduction("delta+dict+zlib")
        result = session.run()
        content, outputs = _session_outputs(result, app)
        require(
            outputs["packs_ingested"] == outputs["packs"] and result.data_loss_fraction == 0.0,
            f"healthy session lost packs: {outputs}",
        )
        outputs["report"] = result.report.render()
        return content, {"session": outputs}

    return [Operation("session", ("session",), run)]


def prepare_observed_faulted(seed: int, quick: bool, tmpdir: str) -> list[Operation]:
    """Every observation plane on, under the canned ``mixed`` fault plan."""
    kernel = SP(16, "C", iterations=3) if quick else SP(256, "C", iterations=3)
    readers = 4 if quick else 16

    def run():
        session = CouplingSession(
            TERA100,
            seed=seed,
            instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
            telemetry=Telemetry(),
        )
        app = session.add_application(kernel)
        session.set_analyzer(nprocs=readers)
        session.enable_monitor()
        session.enable_pop_metrics(
            PopConfig(window=0.5), stream=os.path.join(tmpdir, "pop.ndjson")
        )
        session.enable_steering()
        session.enable_provenance()
        session.enable_observability(os.path.join(tmpdir, "obs.ndjson"))
        session.inject_faults(load_plan("mixed", at=0.05, seed=seed))
        result = session.run()
        content, outputs = _session_outputs(result, app)
        require(
            result.degraded and result.faults["injected"] == result.faults["scheduled"],
            f"fault plan did not fire: {result.faults}",
        )
        rendered = result.report.render()  # consumed; carries host times, so unhashed
        outputs["report_lines"] = rendered.count("\n")
        outputs["degraded"] = result.degraded
        outputs["faults_injected"] = result.faults["injected"]
        outputs["dead_ranks"] = len(result.faults["dead_ranks"])
        outputs["alerts"] = len(result.health["alerts"])
        outputs["decisions"] = len(result.steering["decisions"])
        outputs["flows_traced"] = result.flows["flows_traced"]
        outputs["flows_dropped"] = result.flows["flows_dropped"]
        outputs["obs_published"] = result.obs["published"]
        return content, {"session": outputs}

    return [Operation("session", ("session",), run)]


# -- pack_pipeline --------------------------------------------------------------------

PACK_CHAINS = ("", "delta+dict", "delta+dict+zlib", "sample:0.5+quant+delta+dict")

_TEMPLATE_CALLS = (
    "MPI_Isend", "MPI_Irecv", "MPI_Waitall", "MPI_Send", "MPI_Recv", "MPI_Sendrecv",
    "MPI_Allreduce", "MPI_Bcast",
)
_SIZES = (8, 64, 512, 4096, 32768, 131072, 524288, 1048576)
_COLLECTIVES = ("MPI_Allreduce", "MPI_Bcast")


def chain_slug(spec: str) -> str:
    """Metric-name-safe form of a chain spec (``[A-Za-z0-9_.-]`` only)."""
    if not spec:
        return "identity"
    return "-".join(token.partition(":")[0] for token in spec.split("+"))


def generate_records(seed: int, ranks: int, per_rank: int) -> list[list[CallRecord]]:
    """NAS-like call streams: a 32-call per-rank template, repeated with
    +-5 % duration jitter, sizes from 8 values, 2-D mesh-neighbour peers."""
    rng = random.Random(seed)
    side = int(ranks**0.5)
    streams = []
    for rank in range(ranks):
        row, col = divmod(rank, side)
        neighbours = (
            row * side + (col + 1) % side,
            row * side + (col - 1) % side,
            ((row + 1) % side) * side + col,
            ((row - 1) % side) * side + col,
        )
        template = []
        for i in range(32):
            name = rng.choice(_TEMPLATE_CALLS)
            collective = name in _COLLECTIVES
            template.append(
                (
                    name,
                    -1 if collective else neighbours[i % 4],
                    -1 if collective else i % 4,
                    rng.choice(_SIZES),
                    rng.uniform(2e-6, 4e-4),
                )
            )
        records = []
        t = 0.0
        for i in range(per_rank):
            name, peer, tag, nbytes, base = template[i % 32]
            t += rng.uniform(1e-6, 5e-5)
            duration = base * rng.uniform(0.95, 1.05)
            records.append(CallRecord(name, t, t + duration, 0, rank, ranks, peer, tag, nbytes))
            t += duration
        streams.append(records)
    return streams


def _chain_pass(
    spec: str, streams: list[list[CallRecord]], capacity: int, reports: dict[str, str]
):
    engine = AnalyzerEngine([("app", len(streams))], AnalysisConfig())
    blobs = []
    builders = []
    for rank, records in enumerate(streams):
        # A fresh chain per writer: the sampler carries per-stream budget state.
        builder = EventPackBuilder(
            app_id=0, rank=rank, capacity_bytes=capacity, chain=build_chain(spec)
        )
        add = builder.add
        for record in records:
            if add(record):
                blob = builder.emit(now=record.t_end)
                blobs.append(blob)
                engine.ingest(blob)
        if builder.count:
            blob = builder.emit(now=records[-1].t_end)
            blobs.append(blob)
            engine.ingest(blob)
        builders.append(builder)
    report = reports[spec] = engine.build_report().render()
    require(
        engine.packs_rejected == 0
        and engine.packs_ingested == sum(b.packs_emitted for b in builders),
        f"chain {spec!r}: {engine.packs_rejected} packs rejected",
    )
    if spec and build_chain(spec).lossless:
        require(report == reports.get(""), f"lossless chain {spec!r} changed the report")
    outputs = {
        "packs": sum(b.packs_emitted for b in builders),
        "events_sampled_out": sum(b.events_sampled_out for b in builders),
        "bytes": engine.bytes_ingested,
        "bytes_wire": engine.bytes_wire_ingested,
        "packs_ingested": engine.packs_ingested,
        "packs_rejected": engine.packs_rejected,
        "report": report,
        "wire": blobs,
    }
    return engine.bytes_ingested, outputs


def prepare_pack_pipeline(seed: int, quick: bool, tmpdir: str) -> list[Operation]:
    """No simulator: records -> packer -> codec -> frame -> blackboard -> report."""
    ranks, per_rank = (16, 2000) if quick else (64, 4000)
    streams = generate_records(seed, ranks, per_rank)
    reports: dict[str, str] = {}  # rendered report per chain; identity runs first
    ops = []
    for spec in PACK_CHAINS:
        name = f"chain.{chain_slug(spec)}"

        def run(spec=spec, name=name):
            content, outputs = _chain_pass(spec, streams, 16 * 1024, reports)
            return content, {name: outputs}

        ops.append(Operation(name, (name,), run))
    return ops


#: name -> prepare function, in the round-robin order of a full run
WORKLOADS: dict[str, Callable[[int, bool, str], list[Operation]]] = {
    "stream_sweep": prepare_stream_sweep,
    "figure_mix": prepare_figure_mix,
    "reduced_coupled": prepare_reduced_coupled,
    "pack_pipeline": prepare_pack_pipeline,
    "observed_faulted": prepare_observed_faulted,
}
