"""MPMD job launcher.

Mirrors launching ``mpirun -n A prog1 : -n B prog2`` under Slurm: programs
are placed as contiguous partitions over the allocation.  Without
virtualization every program shares the single real ``MPI_COMM_WORLD`` —
which is exactly why the paper needs VMPI: the
:class:`~repro.vmpi.virtualization.VirtualizedLauncher` subclass remaps each
program's world to its partition sub-communicator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError, MPIError
from repro.mpi.communicator import Comm
from repro.mpi.costmodel import CostModel
from repro.mpi.world import PartitionInfo, ProgramAPI, RankContext, World
from repro.network.machine import MachineSpec, TERA100
from repro.simt.primitives import SimEvent
from repro.simt.process import Process
from repro.telemetry.core import Telemetry, rank_pid


@dataclass
class ProgramSpec:
    """One program of the MPMD job."""

    name: str
    nprocs: int
    main: Callable  # main(mpi, **args) -> generator
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ConfigError(f"program {self.name!r}: nprocs must be > 0")
        if not callable(self.main):
            raise ConfigError(f"program {self.name!r}: main must be callable")


class MPMDLauncher:
    """Builds and launches a multi-program world."""

    def __init__(
        self,
        machine: MachineSpec = TERA100,
        *,
        seed: int = 0,
        cost: CostModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.machine = machine
        self.seed = seed
        self.cost = cost
        self.telemetry = telemetry
        self.programs: list[ProgramSpec] = []
        self._launched = False

    def add_program(self, name: str, nprocs: int, main: Callable, **args: Any) -> ProgramSpec:
        """Register a program; launch order defines partition order."""
        if any(p.name == name for p in self.programs):
            raise ConfigError(f"duplicate program name {name!r}")
        spec = ProgramSpec(name=name, nprocs=nprocs, main=main, args=args)
        self.programs.append(spec)
        return spec

    @property
    def total_ranks(self) -> int:
        return sum(p.nprocs for p in self.programs)

    def launch(self) -> World:
        """Create the world, spawn every rank, return the (running) world."""
        if self._launched:
            raise ConfigError("launcher already used; create a new one")
        if not self.programs:
            raise ConfigError("no programs added")
        self._launched = True
        world = World(
            self.machine,
            self.total_ranks,
            seed=self.seed,
            cost=self.cost,
            telemetry=self.telemetry,
        )
        for spec in self.programs:
            world.add_partition(spec.name, spec.nprocs)
        world.universe_group = world.intern_group(
            tuple(range(self.total_ranks)), "MPI_COMM_WORLD"
        )
        for partition, spec in zip(world.partitions, self.programs):
            for global_rank in partition.global_ranks:
                ctx = RankContext(world, global_rank, partition)
                world.ranks.append(ctx)
                if world.telemetry.enabled:
                    local = global_rank - partition.first_global_rank
                    world.telemetry.name_track(
                        rank_pid(global_rank), f"{partition.name}[{local}]"
                    )
        # Second pass: build APIs and spawn (ranks list must be complete first).
        for partition, spec in zip(world.partitions, self.programs):
            for global_rank in partition.global_ranks:
                ctx = world.ranks[global_rank]
                api = self._make_api(world, ctx, partition)
                ctx.process = process = world.kernel.spawn(
                    spec.main(api, **spec.args),
                    name=f"{spec.name}[{global_rank - partition.first_global_rank}]",
                    kind=RankProcess,
                )
                process.ctx = ctx
                process.program = spec.name
        return world

    def run(self) -> World:
        """Convenience: launch and run to completion."""
        world = self.launch()
        world.run()
        return world

    def _make_api(self, world: World, ctx: RankContext, partition: PartitionInfo) -> ProgramAPI:
        """Plain MPMD semantics: every program shares the real world comm."""
        universe = Comm(world.universe_group, ctx.global_rank, ctx)
        return ProgramAPI(ctx, comm_world=universe)


class RankProcess(Process):
    """A rank's process: the program's ``main`` generator itself, so no
    wrapper frame sits under its every resume; the lifecycle discipline is
    checked when ``main`` returns.  A violation fails the process instead of
    completing it, so a joiner sees the ``MPIError`` and an unjoined one
    surfaces as ``ProcessCrashError``, as for any crash."""

    __slots__ = ("ctx", "program")

    def succeed(self, value: Any = None) -> SimEvent:
        ctx = self.ctx
        if ctx.t_init is None:
            error = "never called init()"
        elif ctx.t_finalize is None:
            error = "returned without finalize()"
        else:
            return super().succeed(value)
        return self.fail(MPIError(f"{self.program} rank {ctx.global_rank}: {error}"))
