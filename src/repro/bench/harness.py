"""What the lanes share: the reference workload, the scale pick, the gates.

Every plane lane measures the same thing — an instrumented SP.C kernel
streaming 4 KiB packs into an analyzer partition — under a different
observer, fault plan or reduction chain.  That coupled session, the
``small``/``paper`` grid choice, the simulation fingerprint an observer must
not move and the paired host-overhead gate are defined here, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.analysis.engine import AnalysisConfig
from repro.apps.base import AppKernel
from repro.apps.nas import SP
from repro.apps.synthetic import stream_reader_program, stream_writer_program
from repro.core.session import CouplingSession, SessionResult
from repro.errors import BenchGateError, ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.vmpi.virtualization import VirtualizedLauncher

T = TypeVar("T")

#: Small packs so every writer emits a stream of them, not one tail flush
#: per rank: per-pack ratio statistics, per-pack latency samples, "every Nth
#: pack" tamper faults and the loss accounting, per-window backpressure and
#: the frame/codec/stream host timers all need traffic.
PACK_COST = InstrumentationCost(block_size=4096, na_buffers=2)


def pick(scale: str, *, small: T, paper: T) -> T:
    """The one scale choice: ``small`` (reduced grid) or the ``paper``'s own."""
    if scale == "small":
        return small
    if scale == "paper":
        return paper
    raise ConfigError(f"unknown scale {scale!r}")


def reference_kernel(scale: str, *, paper_ranks: int = 64, iterations: int = 3) -> SP:
    """The fig14-style workload: SP.C on 16 ranks (small) or ``paper_ranks``."""
    return SP(pick(scale, small=16, paper=paper_ranks), "C", iterations=iterations)


def coupled_session(
    kernel: AppKernel,
    machine: MachineSpec,
    seed: int,
    telemetry: Telemetry | None = None,
    *,
    ratio: float | None = None,
    readers: int | None = None,
    cost: InstrumentationCost | None = PACK_COST,
    mpi_cost=None,
) -> tuple[CouplingSession, str, int]:
    """The reference coupled session, analyzer sized by ratio or rank count.

    Returns ``(session, application name, analyzer ranks)``; the caller
    switches on the observers, faults or reduction chain it is about.
    """
    session = CouplingSession(
        machine=machine, seed=seed, instrumentation=cost, mpi_cost=mpi_cost, telemetry=telemetry
    )
    name = session.add_application(kernel)
    return session, name, session.set_analyzer(ratio=ratio, nprocs=readers)


def fingerprint(run: SessionResult, name: str) -> dict[str, Any]:
    """The simulation outputs no observer may move."""
    app, stats = run.app(name), run.analyzer_stats
    return {
        "walltime": app.walltime,
        "events": app.events,
        "packs": app.packs,
        "analyzer_packs": stats["packs"],
        "analyzer_bytes": stats["bytes"],
        "analyzer_bytes_wire": stats["bytes_wire"],
    }


def assert_unperturbed(observer: str, reference: dict[str, Any], observed: dict[str, Any]) -> None:
    """Gate: ``observed`` equals ``reference`` bit for bit, or name what moved."""
    moved = [
        f"{key} {reference[key]!r} -> {observed[key]!r}"
        for key in reference
        if observed[key] != reference[key]
    ]
    if moved:
        raise BenchGateError(f"{observer} perturbed the simulation: " + ", ".join(moved))


def paired_overhead(
    observer: str,
    off: Callable[[], float],
    on: Callable[[], float],
    repeats: int,
    budget: float,
) -> float:
    """Gate: the observer's host cost, best of ``repeats`` off/on pairs.

    ``off`` and ``on`` each run once and return host wall seconds.  The
    runs are sub-second and scheduler noise on a loaded box swings single
    runs by 10%+, so each off run is paired with a temporally adjacent on
    run and the gate takes the *minimum pair ratio*: a false positive needs
    every one of the ``repeats`` pairs perturbed in the same direction,
    while a real regression shows in all of them.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    ratios = []
    for _ in range(repeats):
        off_s = off()
        ratios.append(on() / off_s - 1.0)
    best = min(ratios)
    if best > budget:
        raise BenchGateError(
            f"{observer} overhead {best:+.2%} exceeds the {budget:.0%} budget "
            "(pair ratios: " + ", ".join(f"{r:+.2%}" for r in ratios) + ")"
        )
    return best


@dataclass(frozen=True)
class OverheadPoint:
    """One (application, scale) overhead measurement."""

    app: str
    nprocs: int
    t_reference: float
    t_instrumented: float
    events: int
    modeled_stream_bytes: int

    @property
    def overhead_pct(self) -> float:
        if self.t_reference <= 0:
            return 0.0
        return (self.t_instrumented - self.t_reference) / self.t_reference * 100.0

    @property
    def bi_bandwidth(self) -> float:
        """Aggregate instrumentation bandwidth over the instrumented run."""
        if self.t_instrumented <= 0:
            return 0.0
        return self.modeled_stream_bytes / self.t_instrumented


def measure_overhead(
    kernel: AppKernel,
    machine: MachineSpec = TERA100,
    *,
    ratio: float = 1.0,
    seed: int = 0,
    instrumentation: InstrumentationCost | None = None,
    analysis: AnalysisConfig | None = None,
    mpi_cost=None,
    telemetry: Telemetry | None = None,
) -> OverheadPoint:
    """Instrumented-vs-reference wall-time between MPI_Init and Finalize."""
    session = CouplingSession(
        machine=machine,
        seed=seed,
        instrumentation=instrumentation,
        analysis=analysis,
        mpi_cost=mpi_cost,
        telemetry=telemetry,
    )
    name = session.add_application(kernel)
    session.set_analyzer(ratio=ratio)
    instrumented = session.run()
    reference = session.run_reference()
    run = instrumented.app(name)
    return OverheadPoint(
        app=name,
        nprocs=kernel.nprocs,
        t_reference=reference.app(name).walltime,
        t_instrumented=run.walltime,
        events=run.events,
        modeled_stream_bytes=run.modeled_stream_bytes,
    )


#: The paper's reader-count rule (Figure 14 caption):
#: ``Nr = floor(Nw / ratio)`` with a floor of one reading process.
def readers_for(writers: int, ratio: float) -> int:
    if writers < 1 or ratio <= 0:
        raise ValueError("writers must be >= 1 and ratio > 0")
    return max(1, int(writers // ratio))


def stream_point(
    machine: MachineSpec,
    writers: int,
    ratio: float,
    bytes_per_writer: int,
    block_size: int,
    seed: int,
    telemetry: Telemetry | None = None,
) -> dict[str, float]:
    """One payload-less writer/reader stream run (the paper's Figs. 11-12 codes)."""
    readers = readers_for(writers, ratio)
    stats: dict[str, Any] = {}
    launcher = VirtualizedLauncher(machine=machine, seed=seed, telemetry=telemetry)
    launcher.add_program(
        "Writers",
        nprocs=writers,
        main=stream_writer_program,
        total_bytes=bytes_per_writer,
        block_size=block_size,
        reader_partition="Analyzer",
        stats=stats,
    )
    launcher.add_program(
        "Analyzer",
        nprocs=readers,
        main=stream_reader_program,
        block_size=block_size,
        stats=stats,
    )
    launcher.run()
    total = stats["bytes_read"]
    span = stats["t_last_read"] - stats["t_first_write"]
    throughput = total / span if span > 0 else 0.0
    # The paper's file-system comparison: aggregate FS bandwidth scaled to
    # the writer cores (500 GB/s over 140k cores -> 9.1 GB/s at 2560).
    fs_scaled = machine.fs_job_bandwidth(writers)
    return {
        "writers": float(writers),
        "ratio": float(ratio),
        "readers": float(readers),
        "throughput": throughput,
        "fs_scaled": fs_scaled,
        "bytes": float(total),
    }
