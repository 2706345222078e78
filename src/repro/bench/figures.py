"""Drivers for the paper's evaluation figures (14 through 18)."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from repro.errors import ConfigError
from repro.analysis.report import ProfileReport
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import BT, CG, LU, SP, nas_kernel
from repro.bench.harness import (
    OverheadPoint,
    coupled_session,
    measure_overhead,
    pick,
    stream_point,
)
from repro.bench.lane import Column, LaneResult, lane
from repro.core.comparison import ToolRunResult, compare_tools
from repro.network.machine import CURIE, MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.util.units import GB, GIB, MIB

# --------------------------------------------------------------------------------------
# Figure 14 — VMPI Stream global throughput vs writer/reader ratio
# --------------------------------------------------------------------------------------

FIG14_COLUMNS = (
    Column("writers", lambda p: int(p["writers"])),
    Column("ratio", lambda p: int(p["ratio"])),
    Column("readers", lambda p: int(p["readers"])),
    Column("throughput_GBps", lambda p: p["throughput"] / GB),
    Column("fs_scaled_GBps", lambda p: p["fs_scaled"] / GB),
)


class Fig14Result(LaneResult):
    """Points are :func:`~repro.bench.harness.stream_point` dicts."""

    def throughput(self, writers: int, ratio: float) -> float:
        for p in self.points:
            if p["writers"] == writers and p["ratio"] == ratio:
                return p["throughput"]
        raise KeyError(f"no point for writers={writers} ratio={ratio}")

    def peak(self) -> dict[str, float]:
        return max(self.points, key=lambda p: p["throughput"])


@lane("fig14", columns=FIG14_COLUMNS)
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
    writer_counts, ratios, bytes_per_writer = pick(
        scale,
        small=([64, 160, 320], [1, 4, 16, 32], 32 * MIB),
        paper=([64, 96, 160, 320, 960, 1600, 2560], [1, 2, 4, 8, 16, 32, 64], 1 * GIB),
    )
    result = Fig14Result(f"Figure 14 — VMPI Stream throughput ({machine.name})", FIG14_COLUMNS)
    for writers in writer_counts:
        for ratio in ratios:
            result.points.append(
                stream_point(
                    machine, writers, ratio, bytes_per_writer, MIB, seed,
                    telemetry=telemetry,
                )
            )
    return result


# --------------------------------------------------------------------------------------
# Figure 15 — relative overhead, NAS + EulerMHD, ratio 1/1, Tera 100
# --------------------------------------------------------------------------------------

FIG15_COLUMNS = (
    Column("benchmark", "app"),
    Column("nprocs"),
    Column("t_ref_s", "t_reference"),
    Column("t_instr_s", "t_instrumented"),
    Column("overhead_pct"),
    Column("Bi_MBps", lambda p: p.bi_bandwidth / 1e6),
)


class Fig15Result(LaneResult):
    """Points are :class:`~repro.bench.harness.OverheadPoint`."""

    def by_app(self) -> dict[str, list[OverheadPoint]]:
        out: dict[str, list[OverheadPoint]] = {}
        for p in self.points:
            out.setdefault(p.app, []).append(p)
        return out


def _fig15_workloads(scale: str) -> list[Any]:
    paper = []
    for n in (256, 484, 900, 1156):  # square counts
        paper += [
            BT(n, "C", iterations=3),
            BT(n, "D", iterations=3),
            SP(n, "C", iterations=3),
            SP(n, "D", iterations=3),
        ]
    for n in (128, 256, 512, 1024):  # powers of two
        paper += [
            CG(n, "C", iterations=6),
            nas_kernel("FT", n, "C", iterations=4),
            LU(n, "C", iterations=2),
            LU(n, "D", iterations=2),
            EulerMHD(n, iterations=6),
        ]
    return pick(
        scale,
        paper=paper,
        small=[
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
        ],
    )


@lane("fig15", columns=FIG15_COLUMNS)
def fig15_overhead(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig15Result:
    """Overhead of online instrumentation at ratio 1/1 (paper: all < 25 %,
    class C above class D for the same benchmark)."""
    result = Fig15Result(
        f"Figure 15 — relative overhead at ratio 1/1 ({machine.name})", FIG15_COLUMNS
    )
    for kernel in _fig15_workloads(scale):
        result.points.append(
            measure_overhead(kernel, machine, ratio=1.0, seed=seed, telemetry=telemetry)
        )
    return result


# --------------------------------------------------------------------------------------
# Figure 16 — tool comparison on SP.D, Curie
# --------------------------------------------------------------------------------------

FIG16_COLUMNS = (
    Column("tool"),
    Column("nprocs"),
    Column("walltime_s", "walltime"),
    Column(
        "overhead_pct",
        lambda r: r.overhead_pct if r.overhead_pct is not None else 0.0,
    ),
    Column("volume_GB", lambda r: r.full_run_volume_bytes / GB),
)


class Fig16Result(LaneResult):
    """Points are :class:`~repro.core.comparison.ToolRunResult`."""

    def by_tool(self) -> dict[str, list[ToolRunResult]]:
        out: dict[str, list[ToolRunResult]] = {}
        for r in self.points:
            out.setdefault(r.tool, []).append(r)
        return out

    def overhead(self, tool: str, nprocs: int) -> float:
        for r in self.points:
            if r.tool == tool and r.nprocs == nprocs:
                return r.overhead_pct
        raise KeyError(f"no run for {tool} at {nprocs}")


@lane("fig16", columns=FIG16_COLUMNS)
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
    counts = pick(scale, small=[64, 256], paper=[256, 1024, 2025, 4096])
    result = Fig16Result(f"Figure 16 — SP.D tool comparison ({machine.name})", FIG16_COLUMNS)
    for nprocs in counts:
        result.points.extend(
            compare_tools(
                lambda n=nprocs: SP(n, "D", iterations=3),
                tools=tools,
                machine=machine,
                seed=seed,
                telemetry=telemetry,
            )
        )
    result.points.sort(key=attrgetter("nprocs", "tool"))
    return result


# --------------------------------------------------------------------------------------
# Figure 17 — topological module outputs
# --------------------------------------------------------------------------------------

#: a point is ``(application, its CommMatrix)``
FIG17_COLUMNS = (
    Column("application", lambda p: p[0]),
    Column("nprocs", lambda p: p[1].app_size),
    Column("pairs", lambda p: len(p[1].cells)),
    Column("messages", lambda p: int(p[1].totals()[0])),
    Column("size_GB", lambda p: p[1].totals()[1] / GB),
    Column("symmetric", lambda p: p[1].is_symmetric("hits")),
)


@dataclass
class Fig17Result(LaneResult):
    reports: dict[str, ProfileReport] = field(default_factory=dict)

    def matrix(self, app: str):
        report = self.reports[app]
        return report.chapter(app).topology


def _profile_app(
    kernel, machine: MachineSpec, seed: int, telemetry: Telemetry | None
) -> tuple[str, ProfileReport]:
    """Profile one application at ratio 1/1: ``(its name, the report)``."""
    session, name, _ = coupled_session(kernel, machine, seed, telemetry, ratio=1.0, cost=None)
    report = session.run().report
    if report is None:
        raise ConfigError("session produced no report")
    return name, report


@lane("fig17", columns=FIG17_COLUMNS)
def fig17_topology(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig17Result:
    """Communication matrices/graphs: CG.D, EulerMHD, SP, LU (paper 17a-e)."""
    euler, sp, lu = pick(scale, small=(256, 225, 256), paper=(2048, 2025, 1024))
    result = Fig17Result("Figure 17 — topological module outputs", FIG17_COLUMNS)
    for kernel in (
        CG(128, "D", iterations=6),
        EulerMHD(euler, iterations=4),
        SP(sp, "C", iterations=2),
        LU(lu, "D", iterations=2),
    ):
        name, result.reports[name] = _profile_app(kernel, machine, seed, telemetry)
        result.points.append((name, result.matrix(name)))
    return result


# --------------------------------------------------------------------------------------
# Figure 18 — density maps
# --------------------------------------------------------------------------------------

#: a point is ``(application, call, metric, its DensityMaps)``
FIG18_COLUMNS = (
    Column("application", lambda p: p[0]),
    Column("map", lambda p: p[1]),
    Column("metric", lambda p: p[2]),
    Column("min", lambda p: p[3].map_for(p[1], p[2]).min()),
    Column("max", lambda p: p[3].map_for(p[1], p[2]).max()),
    Column("imbalance", lambda p: p[3].imbalance(p[1], p[2])),
)

#: the (call, metric) maps the paper plots, where the application made the call
_FIG18_MAPS = (
    ("MPI_Send", "hits"),
    ("MPI_Send", "size"),
    ("MPI_Isend", "hits"),
    ("MPI_Isend", "size"),
    ("MPI_Waitall", "time"),
    ("MPI_Allreduce", "time"),
)


@dataclass
class Fig18Result(LaneResult):
    reports: dict[str, ProfileReport] = field(default_factory=dict)

    def density(self, app: str):
        return self.reports[app].chapter(app).density

    def waitstate(self, app: str):
        return self.reports[app].chapter(app).waitstate


@lane("fig18", columns=FIG18_COLUMNS)
def fig18_density(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> Fig18Result:
    """Density maps for LU.D and BT.D (paper 18a-e: Send-hit correlation
    with mesh neighbourhood, p2p size imbalance, collective/wait symmetry).
    """
    lu, bt = pick(scale, small=(256, 1024), paper=(1024, 8281))
    result = Fig18Result("Figure 18 — density maps", FIG18_COLUMNS)
    for kernel in (LU(lu, "D", iterations=2), BT(bt, "D", iterations=2)):
        name, result.reports[name] = _profile_app(kernel, machine, seed, telemetry)
        density = result.density(name)
        result.points.extend(
            (name, call, metric, density)
            for call, metric in _FIG18_MAPS
            if call in density.calls_seen()
        )
    return result
