"""Tool comparison harness (drives Figure 16).

Runs one application kernel under each tool model — reference (no tool),
online coupling, mpiP, Score-P profile, Score-P trace + SIONlib, Scalasca —
on the same machine model and reports the relative overhead between
``MPI_Init`` and ``MPI_Finalize``, exactly as the paper measures it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.apps.base import AppKernel, NASKernel
from repro.baselines.mpip import MPIPInterceptor
from repro.baselines.scalasca import ScalascaInterceptor
from repro.baselines.scorep import ScorePProfileInterceptor, ScorePTraceInterceptor
from repro.core.session import CouplingSession
from repro.iosim.filesystem import ParallelFS
from repro.iosim.sionlib import SionFile
from repro.network.machine import CURIE, MachineSpec
from repro.telemetry import Telemetry
from repro.vmpi.virtualization import VirtualizedLauncher

TOOLS = (
    "reference",
    "online",
    "mpip",
    "scorep_profile",
    "scorep_trace",
    "scalasca",
)


@dataclass
class ToolRunResult:
    """Outcome of one (application, tool) run."""

    tool: str
    app: str
    nprocs: int
    walltime: float
    overhead_pct: float | None = None
    full_run_volume_bytes: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


def _iteration_scale(kernel: AppKernel) -> float:
    if isinstance(kernel, NASKernel):
        return kernel.iteration_scale
    return 1.0


def run_tool(
    kernel: AppKernel,
    tool: str,
    machine: MachineSpec = CURIE,
    *,
    seed: int = 0,
    amortize_fixed_costs: bool = True,
    telemetry: Telemetry | None = None,
) -> ToolRunResult:
    """Run ``kernel`` under one tool model; returns its wall-time result."""
    if tool not in TOOLS:
        raise ConfigError(f"unknown tool {tool!r}; choose from {TOOLS}")
    scale = _iteration_scale(kernel)
    amortize = 1.0 / scale if (amortize_fixed_costs and scale > 1) else 1.0

    if tool == "online":
        session = CouplingSession(machine=machine, seed=seed, telemetry=telemetry)
        name = session.add_application(kernel)
        session.set_analyzer(ratio=1.0)
        result = session.run()
        run = result.app(name)
        return ToolRunResult(
            tool=tool,
            app=name,
            nprocs=kernel.nprocs,
            walltime=run.walltime,
            full_run_volume_bytes=int(run.modeled_stream_bytes * scale),
            extras={
                "events": run.events,
                "bi_bandwidth": run.bi_bandwidth,
                "analyzer_nprocs": result.analyzer_nprocs,
            },
        )

    launcher = VirtualizedLauncher(machine=machine, seed=seed, telemetry=telemetry)
    shared: dict[str, Any] = {"interceptors": []}
    if tool == "reference":
        launcher.add_program(kernel.label, nprocs=kernel.nprocs, main=kernel.main)
    else:
        launcher.add_program(
            kernel.label,
            nprocs=kernel.nprocs,
            main=_tool_main,
            kernel=kernel,
            tool=tool,
            shared=shared,
            amortize_fixed=amortize,
        )
    world = launcher.run()
    walltime = world.app_walltime(kernel.label)

    volume = 0
    extras: dict[str, Any] = {}
    interceptors = shared["interceptors"]
    if tool == "scorep_trace":
        volume = int(sum(i.trace_bytes for i in interceptors) * scale)
        extras["sion_containers"] = shared["sion"].containers_used
    elif tool in ("scorep_profile", "scalasca"):
        volume = sum(
            getattr(type(i), "PROFILE_BYTES_PER_RANK", 0) for i in interceptors
        )
    elif tool == "mpip":
        volume = MPIPInterceptor.REPORT_BYTES_PER_RANK * kernel.nprocs
    if "fs" in shared:
        extras["fs_metadata_ops"] = shared["fs"].metadata_ops
        extras["fs_bytes_written"] = shared["fs"].bytes_written
    return ToolRunResult(
        tool=tool,
        app=kernel.label,
        nprocs=kernel.nprocs,
        walltime=walltime,
        full_run_volume_bytes=volume,
        extras=extras,
    )


def compare_tools(
    kernel_factory,
    tools: tuple[str, ...] = TOOLS,
    machine: MachineSpec = CURIE,
    **kwargs: Any,
) -> list[ToolRunResult]:
    """Run each tool on a fresh kernel; fills ``overhead_pct`` vs reference.

    ``kernel_factory`` is a zero-argument callable returning the kernel, so
    every tool sees an identical fresh workload.
    """
    results: list[ToolRunResult] = []
    reference: ToolRunResult | None = None
    ordered = ("reference",) + tuple(t for t in tools if t != "reference")
    for tool in ordered:
        if tool not in tools and tool != "reference":
            continue
        result = run_tool(kernel_factory(), tool, machine, **kwargs)
        if tool == "reference":
            reference = result
            result.overhead_pct = 0.0
        else:
            if reference is None or reference.walltime <= 0:
                raise ConfigError("reference run missing or degenerate")
            result.overhead_pct = (
                (result.walltime - reference.walltime) / reference.walltime * 100.0
            )
        if tool in tools:
            results.append(result)
    return results


def _tool_main(mpi, kernel: AppKernel, tool: str, shared: dict, amortize_fixed: float):
    """Program wrapper attaching the requested baseline interceptor."""
    world = mpi.ctx.world
    if "fs" not in shared:
        shared["fs"] = ParallelFS(world.kernel, world.machine, world.nranks)
        if tool == "scorep_trace":
            shared["sion"] = SionFile(shared["fs"], "trace.sion", tasks_per_file=512)
    fs = shared["fs"]
    if tool == "mpip":
        interceptor = MPIPInterceptor(mpi, fs, amortize_fixed)
    elif tool == "scorep_profile":
        interceptor = ScorePProfileInterceptor(mpi, fs, amortize_fixed)
    elif tool == "scorep_trace":
        interceptor = ScorePTraceInterceptor(mpi, fs, shared["sion"], amortize_fixed)
    elif tool == "scalasca":
        interceptor = ScalascaInterceptor(mpi, fs, amortize_fixed)
    else:  # pragma: no cover - guarded by run_tool
        raise ConfigError(f"unknown tool {tool!r}")
    mpi.ctx.pmpi.attach(interceptor)
    shared["interceptors"].append(interceptor)
    return kernel.main(mpi)
