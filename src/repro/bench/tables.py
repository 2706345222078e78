"""Drivers for the paper's in-text quantitative claims."""

from __future__ import annotations

from operator import itemgetter

from repro.apps.nas.adi import SP
from repro.bench.harness import measure_overhead, pick, stream_point
from repro.bench.lane import Column, LaneResult, lane
from repro.core.comparison import run_tool
from repro.network.machine import CURIE, MachineSpec, TERA100
from repro.telemetry.core import Telemetry
from repro.util.units import GB, GIB, MB, MIB


# --------------------------------------------------------------------------------------
# In-text: Bi(SP.C) = 2.37 GB/s vs Bi(SP.D) = 334.99 MB/s at 900 cores
# --------------------------------------------------------------------------------------

BI_COLUMNS = (
    Column("benchmark", itemgetter("app")),
    Column("nprocs", itemgetter("nprocs")),
    Column(
        "Bi",
        lambda row: f"{row['bi'] / GB:.3f} GB/s"
        if row["bi"] >= GB
        else f"{row['bi'] / MB:.1f} MB/s",
    ),
    Column("overhead_pct", itemgetter("overhead_pct")),
    Column("paper_Bi", itemgetter("paper")),
)


class BiResult(LaneResult):
    """Points are ``{app, nprocs, bi, overhead_pct, paper}`` dicts."""

    def bi(self, label: str) -> float:
        for row in self.points:
            if row["app"] == label:
                return row["bi"]
        raise KeyError(label)


@lane("bi", columns=BI_COLUMNS)
def bi_bandwidth_table(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> BiResult:
    """Bi comparison of SP.C vs SP.D (paper Sec. IV-C, at 900 cores)."""
    nprocs = pick(scale, small=225, paper=900)
    result = BiResult(
        f"In-text — instrumentation bandwidth Bi at 900 cores ({machine.name})", BI_COLUMNS
    )
    for klass, paper_value in (("C", "2.37 GB/s"), ("D", "334.99 MB/s")):
        point = measure_overhead(
            SP(nprocs, klass, iterations=3), machine, ratio=1.0, seed=seed,
            telemetry=telemetry,
        )
        result.points.append(
            {
                "app": point.app,
                "nprocs": point.nprocs,
                "bi": point.bi_bandwidth,
                "overhead_pct": point.overhead_pct,
                "paper": paper_value,
            }
        )
    return result


# --------------------------------------------------------------------------------------
# In-text: trace volumes — Score-P 313 MB -> 116 GB, online 923.93 MB -> 333.22 GB
# --------------------------------------------------------------------------------------

TRACE_SIZE_COLUMNS = (
    Column("tool", itemgetter("tool")),
    Column("nprocs", itemgetter("nprocs")),
    Column("full_run_volume_GB", lambda row: row["volume"] / GB),
)


class TraceSizeResult(LaneResult):
    """Points are ``{tool, nprocs, volume}`` dicts."""

    def volume(self, tool: str, nprocs: int) -> int:
        for row in self.points:
            if row["tool"] == tool and row["nprocs"] == nprocs:
                return row["volume"]
        raise KeyError((tool, nprocs))

    def ratio(self, nprocs: int) -> float:
        """online volume / Score-P trace volume (paper: ~2.9x)."""
        return self.volume("online", nprocs) / self.volume("scorep_trace", nprocs)


@lane("trace-sizes", columns=TRACE_SIZE_COLUMNS)
def trace_size_table(
    scale: str = "small",
    machine: MachineSpec = CURIE,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> TraceSizeResult:
    """Full-run data volumes for SP.D: online streams vs Score-P traces.

    Volumes are extrapolated from the simulated iterations to the official
    iteration count (both tools scale linearly in events).
    """
    counts = pick(scale, small=[64, 256], paper=[256, 1024, 4096])
    result = TraceSizeResult(
        f"In-text — SP.D full-run measurement volumes ({machine.name})", TRACE_SIZE_COLUMNS
    )
    for nprocs in counts:
        for tool in ("online", "scorep_trace"):
            run = run_tool(
                SP(nprocs, "D", iterations=3), tool, machine, seed=seed,
                telemetry=telemetry,
            )
            result.points.append(
                {"tool": tool, "nprocs": nprocs, "volume": run.full_run_volume_bytes}
            )
    return result


# --------------------------------------------------------------------------------------
# In-text: FS comparison — 500 GB/s scaled to 9.1 GB/s at 2560 cores;
# streams competitive until ratio ~1/25; 1/10 a good trade-off
# --------------------------------------------------------------------------------------

FS_COMPARISON_COLUMNS = (
    Column("ratio", lambda p: int(p["ratio"])),
    Column("readers", lambda p: int(p["readers"])),
    Column("stream_GBps", lambda p: p["throughput"] / GB),
    Column("fs_scaled_GBps", lambda p: p["fs_scaled"] / GB),
    Column("streams_win", lambda p: p["throughput"] > p["fs_scaled"]),
)


class FSComparisonResult(LaneResult):
    """Points are :func:`~repro.bench.harness.stream_point` dicts, one writer count."""

    def crossover_ratio(self) -> float:
        """Largest swept ratio at which streams still beat the scaled FS."""
        beating = [p["ratio"] for p in self.points if p["throughput"] > p["fs_scaled"]]
        return max(beating) if beating else 0.0


@lane("fs-comparison", columns=FS_COMPARISON_COLUMNS)
def fs_comparison_table(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> FSComparisonResult:
    """Stream throughput against the job-scaled file-system bandwidth."""
    writers, ratios, bytes_per_writer = pick(
        scale,
        small=(320, [1, 4, 10, 16, 32, 64], 32 * MIB),
        paper=(2560, [1, 2, 4, 8, 10, 16, 25, 32, 64], 1 * GIB),
    )
    result = FSComparisonResult(
        f"In-text — streams vs scaled FS at {writers} writers ({machine.name})",
        FS_COMPARISON_COLUMNS,
    )
    for ratio in ratios:
        result.points.append(
            stream_point(
                machine, writers, ratio, bytes_per_writer, MIB, seed, telemetry=telemetry
            )
        )
    return result
