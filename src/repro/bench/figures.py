"""Drivers for the paper's evaluation figures (14 through 18)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.analysis.report import ProfileReport
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import BT, CG, LU, SP, nas_kernel
from repro.apps.synthetic import stream_reader_program, stream_writer_program
from repro.bench.harness import OverheadPoint, measure_overhead, readers_for
from repro.core.comparison import ToolRunResult, compare_tools
from repro.core.session import CouplingSession
from repro.network.machine import CURIE, MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.util.tables import Table
from repro.util.units import GB, GIB, MIB
from repro.vmpi.virtualization import VirtualizedLauncher

# --------------------------------------------------------------------------------------
# Figure 14 — VMPI Stream global throughput vs writer/reader ratio
# --------------------------------------------------------------------------------------


@dataclass
class Fig14Result:
    machine: str
    points: list[dict[str, float]] = field(default_factory=list)

    def throughput(self, writers: int, ratio: float) -> float:
        for p in self.points:
            if p["writers"] == writers and p["ratio"] == ratio:
                return p["throughput"]
        raise KeyError(f"no point for writers={writers} ratio={ratio}")

    def peak(self) -> dict[str, float]:
        return max(self.points, key=lambda p: p["throughput"])

    def table(self) -> Table:
        t = Table(
            ["writers", "ratio", "readers", "throughput_GBps", "fs_scaled_GBps"],
            title=f"Figure 14 — VMPI Stream throughput ({self.machine})",
        )
        for p in self.points:
            t.add_row(
                int(p["writers"]),
                int(p["ratio"]),
                int(p["readers"]),
                p["throughput"] / GB,
                p["fs_scaled"] / GB,
            )
        return t


def _stream_point(
    machine: MachineSpec,
    writers: int,
    ratio: float,
    bytes_per_writer: int,
    block_size: int,
    seed: int,
    telemetry: Telemetry | None = None,
) -> dict[str, float]:
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


def fig14_stream_throughput(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig14Result:
    """Throughput surface over (writer count, writer/reader ratio).

    Paper peak: 98.5 GB/s at 2560 writers + 2560 readers; competitive with
    the scaled file system until a ratio of ~1/25.
    """
    if scale == "paper":
        writer_counts = [64, 96, 160, 320, 960, 1600, 2560]
        ratios = [1, 2, 4, 8, 16, 32, 64]
        bytes_per_writer = 1 * GIB
    elif scale == "small":
        writer_counts = [64, 160, 320]
        ratios = [1, 4, 16, 32]
        bytes_per_writer = 32 * MIB
    else:
        raise ConfigError(f"unknown scale {scale!r}")
    result = Fig14Result(machine=machine.name)
    for writers in writer_counts:
        for ratio in ratios:
            result.points.append(
                _stream_point(
                    machine, writers, ratio, bytes_per_writer, MIB, seed,
                    telemetry=telemetry,
                )
            )
    return result


# --------------------------------------------------------------------------------------
# Figure 15 — relative overhead, NAS + EulerMHD, ratio 1/1, Tera 100
# --------------------------------------------------------------------------------------


@dataclass
class Fig15Result:
    machine: str
    points: list[OverheadPoint] = field(default_factory=list)

    def by_app(self) -> dict[str, list[OverheadPoint]]:
        out: dict[str, list[OverheadPoint]] = {}
        for p in self.points:
            out.setdefault(p.app, []).append(p)
        return out

    def table(self) -> Table:
        t = Table(
            ["benchmark", "nprocs", "t_ref_s", "t_instr_s", "overhead_pct", "Bi_MBps"],
            title=f"Figure 15 — relative overhead at ratio 1/1 ({self.machine})",
        )
        for p in self.points:
            t.add_row(
                p.app,
                p.nprocs,
                p.t_reference,
                p.t_instrumented,
                p.overhead_pct,
                p.bi_bandwidth / 1e6,
            )
        return t


def _fig15_workloads(scale: str) -> list[Any]:
    if scale == "paper":
        square = [256, 484, 900, 1156]
        pow2 = [128, 256, 512, 1024]
        workloads = []
        for n in square:
            workloads += [
                BT(n, "C", iterations=3),
                BT(n, "D", iterations=3),
                SP(n, "C", iterations=3),
                SP(n, "D", iterations=3),
            ]
        for n in pow2:
            workloads += [
                CG(n, "C", iterations=6),
                nas_kernel("FT", n, "C", iterations=4),
                LU(n, "C", iterations=2),
                LU(n, "D", iterations=2),
                EulerMHD(n, iterations=6),
            ]
        return workloads
    if scale == "small":
        return [
            BT(64, "C", iterations=3),
            BT(64, "D", iterations=3),
            SP(64, "C", iterations=3),
            SP(64, "D", iterations=3),
            SP(256, "C", iterations=3),
            SP(256, "D", iterations=3),
            CG(128, "C", iterations=6),
            nas_kernel("FT", 128, "C", iterations=4),
            LU(256, "C", iterations=2),
            LU(256, "D", iterations=2),
            EulerMHD(256, iterations=6),
        ]
    raise ConfigError(f"unknown scale {scale!r}")


def fig15_overhead(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig15Result:
    """Overhead of online instrumentation at ratio 1/1 (paper: all < 25 %,
    class C above class D for the same benchmark)."""
    result = Fig15Result(machine=machine.name)
    for kernel in _fig15_workloads(scale):
        result.points.append(
            measure_overhead(kernel, machine, ratio=1.0, seed=seed, telemetry=telemetry)
        )
    return result


# --------------------------------------------------------------------------------------
# Figure 16 — tool comparison on SP.D, Curie
# --------------------------------------------------------------------------------------


@dataclass
class Fig16Result:
    machine: str
    runs: list[ToolRunResult] = field(default_factory=list)

    def by_tool(self) -> dict[str, list[ToolRunResult]]:
        out: dict[str, list[ToolRunResult]] = {}
        for r in self.runs:
            out.setdefault(r.tool, []).append(r)
        return out

    def overhead(self, tool: str, nprocs: int) -> float:
        for r in self.runs:
            if r.tool == tool and r.nprocs == nprocs:
                return r.overhead_pct
        raise KeyError(f"no run for {tool} at {nprocs}")

    def table(self) -> Table:
        t = Table(
            ["tool", "nprocs", "walltime_s", "overhead_pct", "volume_GB"],
            title=f"Figure 16 — SP.D tool comparison ({self.machine})",
        )
        for r in sorted(self.runs, key=lambda r: (r.nprocs, r.tool)):
            t.add_row(
                r.tool,
                r.nprocs,
                r.walltime,
                r.overhead_pct if r.overhead_pct is not None else 0.0,
                r.full_run_volume_bytes / GB,
            )
        return t


def fig16_tool_comparison(
    scale: str = "small",
    machine: MachineSpec = CURIE,
    seed: int = 0,
    tools: tuple[str, ...] = (
        "reference",
        "online",
        "scorep_profile",
        "scorep_trace",
        "scalasca",
    ),
    telemetry: Telemetry | None = None,
) -> Fig16Result:
    """SP.D under each tool model (paper: online cheaper than file-based
    traces at scale despite moving ~2.9x the data)."""
    if scale == "paper":
        counts = [256, 1024, 2025, 4096]
        iterations = 3
    elif scale == "small":
        counts = [64, 256]
        iterations = 3
    else:
        raise ConfigError(f"unknown scale {scale!r}")
    result = Fig16Result(machine=machine.name)
    for nprocs in counts:
        runs = compare_tools(
            lambda n=nprocs: SP(n, "D", iterations=iterations),
            tools=tools,
            machine=machine,
            seed=seed,
            telemetry=telemetry,
        )
        result.runs.extend(runs)
    return result


# --------------------------------------------------------------------------------------
# Figure 17 — topological module outputs
# --------------------------------------------------------------------------------------


@dataclass
class Fig17Result:
    reports: dict[str, ProfileReport] = field(default_factory=dict)

    def matrix(self, app: str):
        report = self.reports[app]
        return report.chapter(app).topology

    def table(self) -> Table:
        t = Table(
            ["application", "nprocs", "pairs", "messages", "size_GB", "symmetric"],
            title="Figure 17 — topological module outputs",
        )
        for app, report in self.reports.items():
            topo = report.chapter(app).topology
            hits, size, _time = topo.totals()
            t.add_row(
                app,
                topo.app_size,
                len(topo.cells),
                int(hits),
                size / GB,
                topo.is_symmetric("hits"),
            )
        return t


def _profile_app(
    kernel,
    machine: MachineSpec,
    seed: int,
    name: str | None = None,
    telemetry: Telemetry | None = None,
) -> ProfileReport:
    session = CouplingSession(machine=machine, seed=seed, telemetry=telemetry)
    session.add_application(kernel, name=name)
    session.set_analyzer(ratio=1.0)
    result = session.run()
    if result.report is None:
        raise ConfigError("session produced no report")
    return result.report


def fig17_topology(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig17Result:
    """Communication matrices/graphs: CG.D, EulerMHD, SP, LU (paper 17a-e)."""
    if scale == "paper":
        workloads = [
            ("CG.D", CG(128, "D", iterations=6)),
            ("EulerMHD", EulerMHD(2048, iterations=4)),
            ("SP.C", SP(2025, "C", iterations=2)),
            ("LU.D", LU(1024, "D", iterations=2)),
        ]
    elif scale == "small":
        workloads = [
            ("CG.D", CG(128, "D", iterations=6)),
            ("EulerMHD", EulerMHD(256, iterations=4)),
            ("SP.C", SP(225, "C", iterations=2)),
            ("LU.D", LU(256, "D", iterations=2)),
        ]
    else:
        raise ConfigError(f"unknown scale {scale!r}")
    result = Fig17Result()
    for name, kernel in workloads:
        result.reports[name] = _profile_app(
            kernel, machine, seed, name=name, telemetry=telemetry
        )
    return result


# --------------------------------------------------------------------------------------
# Figure 18 — density maps
# --------------------------------------------------------------------------------------


@dataclass
class Fig18Result:
    reports: dict[str, ProfileReport] = field(default_factory=dict)

    def density(self, app: str):
        return self.reports[app].chapter(app).density

    def waitstate(self, app: str):
        return self.reports[app].chapter(app).waitstate

    def table(self) -> Table:
        t = Table(
            ["application", "map", "metric", "min", "max", "imbalance"],
            title="Figure 18 — density maps",
        )
        for app, report in self.reports.items():
            density = report.chapter(app).density
            for call, metric in (
                ("MPI_Send", "hits"),
                ("MPI_Send", "size"),
                ("MPI_Isend", "hits"),
                ("MPI_Isend", "size"),
                ("MPI_Waitall", "time"),
                ("MPI_Allreduce", "time"),
            ):
                if call not in density.calls_seen():
                    continue
                vec = density.map_for(call, metric)
                t.add_row(app, call, metric, vec.min(), vec.max(), density.imbalance(call, metric))
        return t


def fig18_density(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig18Result:
    """Density maps for LU.D and BT.D (paper 18a-e: Send-hit correlation
    with mesh neighbourhood, p2p size imbalance, collective/wait symmetry).
    """
    if scale == "paper":
        workloads = [
            ("LU.D", LU(1024, "D", iterations=2)),
            ("BT.D", BT(8281, "D", iterations=2)),
        ]
    elif scale == "small":
        workloads = [
            ("LU.D", LU(256, "D", iterations=2)),
            ("BT.D", BT(1024, "D", iterations=2)),
        ]
    else:
        raise ConfigError(f"unknown scale {scale!r}")
    result = Fig18Result()
    for name, kernel in workloads:
        result.reports[name] = _profile_app(
            kernel, machine, seed, name=name, telemetry=telemetry
        )
    return result
