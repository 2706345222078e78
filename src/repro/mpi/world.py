"""World state and the per-rank program API.

A :class:`World` owns the kernel, the cluster model, every rank's context
and the communicator registry.  Programs receive a :class:`ProgramAPI` — the
object playing the role of "the MPI library" for that rank: it exposes the
(possibly virtualized) world communicator, init/finalize, waits, and the
modelled-computation primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, MPIError
from repro.mpi.communicator import Comm, CommGroup
from repro.mpi.costmodel import CostModel
from repro.mpi.message import Mailbox
from repro.mpi.pmpi import PMPIStack
from repro.mpi.request import Request, waitany as _waitany
from repro.network.cluster import Cluster
from repro.network.machine import MachineSpec
from repro.simt import Kernel
from repro.simt.process import Process
from repro.telemetry import Telemetry


@dataclass
class PartitionInfo:
    """Descriptor of one MPMD program partition (paper Section III-A)."""

    index: int
    name: str
    first_global_rank: int
    size: int

    @property
    def global_ranks(self) -> range:
        return range(self.first_global_rank, self.first_global_rank + self.size)


class RankContext:
    """Everything the runtime knows about one simulated rank."""

    def __init__(self, world: "World", global_rank: int, partition: PartitionInfo):
        self.world = world
        self.kernel: Kernel = world.kernel  # a world keeps its kernel for life
        self.global_rank = global_rank
        self.partition = partition
        self.mailbox = Mailbox(world.kernel, global_rank)
        self.pmpi = PMPIStack(self)
        self.t_init: float | None = None
        self.t_finalize: float | None = None
        self.storage: dict[str, Any] = {}
        self.process: Process | None = None

    @property
    def telemetry(self) -> Telemetry:
        return self.world.telemetry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RankContext g{self.global_rank} {self.partition.name}>"


class World:
    """The simulated machine-wide MPI job."""

    def __init__(self, machine: MachineSpec, nranks: int, *, seed: int = 0,
                 cost: CostModel | None = None, telemetry: Telemetry | None = None):
        if nranks <= 0:
            raise ConfigError(f"world needs nranks > 0, got {nranks}")
        self.machine = machine
        self.kernel = Kernel(telemetry=telemetry)
        self.telemetry = self.kernel.telemetry
        self.cluster = Cluster(self.kernel, machine, nranks)
        self.cost = cost or CostModel.for_machine(
            machine, ranks_per_node=min(nranks, machine.cores_per_node)
        )
        self.seed = seed
        self.nranks = nranks
        self._groups: list[CommGroup] = []
        self._group_cache: dict[Any, CommGroup] = {}
        self.partitions: list[PartitionInfo] = []
        self.ranks: list[RankContext] = []
        self.universe_group: CommGroup | None = None
        #: Open VMPI streams as ``(global_rank, stream)``, in open order.
        #: Plain bookkeeping (no events), used by fault injection to find
        #: the endpoints affected by a crashed or degraded rank.
        self.streams: list[tuple[int, Any]] = []
        #: The attached FaultInjector, if this run is under a fault plan.
        self.faults: Any | None = None
        #: The attached FlowRegistry when causal pack tracing is enabled;
        #: None keeps every provenance call site to a single branch.
        self.flows: Any | None = None
        #: The attached SteeringController when adaptive steering is
        #: enabled; None keeps the analyzer's cost path to a single branch.
        self.steering: Any | None = None

    # -- group registry ------------------------------------------------------------

    def _register_group(self, group: CommGroup) -> int:
        self._groups.append(group)
        return len(self._groups) - 1

    def intern_group(
        self,
        members: tuple[int, ...],
        label: str,
        key: Any = None,
    ) -> CommGroup:
        """Get-or-create the shared CommGroup for a member tuple.

        All ranks performing the same collective communicator creation pass
        the same ``key`` and therefore share one group object.
        """
        cache_key = key if key is not None else tuple(members)
        group = self._group_cache.get(cache_key)
        if group is None:
            group = CommGroup(self, tuple(members), label)
            self._group_cache[cache_key] = group
        return group

    # -- partitions ----------------------------------------------------------------

    def add_partition(self, name: str, size: int) -> PartitionInfo:
        first = sum(p.size for p in self.partitions)
        if first + size > self.nranks:
            raise ConfigError(
                f"partition {name!r} of {size} ranks exceeds world of {self.nranks}"
            )
        info = PartitionInfo(index=len(self.partitions), name=name,
                             first_global_rank=first, size=size)
        self.partitions.append(info)
        return info

    def partition_by_name(self, name: str) -> PartitionInfo | None:
        for p in self.partitions:
            if p.name == name:
                return p
        return None

    # -- lifecycle ------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Advance the simulation (to completion by default)."""
        self.kernel.run(until)

    def app_walltime(
        self, partition: PartitionInfo | str, *, skip_missing: bool = False
    ) -> float:
        """Wall-time of a partition between MPI_Init and MPI_Finalize.

        Measured as the paper does: the span from the first rank entering
        ``MPI_Init`` to the last rank leaving ``MPI_Finalize``.

        With ``skip_missing`` the span covers only ranks that completed both
        calls — the degraded-run measurement after a fault killed part of
        the partition (at least one rank must have completed).
        """
        if isinstance(partition, str):
            found = self.partition_by_name(partition)
            if found is None:
                raise ConfigError(f"no partition named {partition!r}")
            partition = found
        ctxs = [self.ranks[g] for g in partition.global_ranks]
        if skip_missing:
            ctxs = [c for c in ctxs if c.t_init is not None and c.t_finalize is not None]
            if not ctxs:
                raise MPIError(
                    f"partition {partition.name!r}: no rank completed init/finalize"
                )
        inits = [c.t_init for c in ctxs]
        finals = [c.t_finalize for c in ctxs]
        if any(t is None for t in inits) or any(t is None for t in finals):
            raise MPIError(
                f"partition {partition.name!r}: not all ranks completed init/finalize"
            )
        return max(finals) - min(inits)  # type: ignore[operator]


class ProgramAPI:
    """The per-rank MPI library handle passed to program main functions."""

    def __init__(
        self,
        ctx: RankContext,
        comm_world: Comm,
        comm_universe: Comm | None = None,
    ):
        self.ctx = ctx
        self.comm_world = comm_world
        #: The real MPMD-wide communicator (paper's MPI_COMM_UNIVERSE); equals
        #: comm_world when the program is not virtualized.
        self.comm_universe = comm_universe or comm_world
        self._finalized = False

    # -- identity --------------------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.comm_world.rank

    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def partition(self) -> PartitionInfo:
        return self.ctx.partition

    @property
    def now(self) -> float:
        return self.ctx.kernel.now

    def wtime(self) -> float:
        """``MPI_Wtime``."""
        return self.ctx.kernel.now

    # -- lifecycle --------------------------------------------------------------------

    def init(self):
        """Generator: MPI_Init.  Interceptors may attach setup work here."""

        def _impl():
            yield 0.0

        yield from self.ctx.pmpi.around("MPI_Init", _impl(), self.comm_world)
        self.ctx.t_init = self.ctx.kernel.now

    def finalize(self):
        """Generator: MPI_Finalize.  Interceptors flush/close here."""
        if self._finalized:
            raise MPIError(f"double finalize on rank {self.ctx.global_rank}")

        def _impl():
            yield 0.0

        yield from self.ctx.pmpi.around("MPI_Finalize", _impl(), self.comm_world)
        self.ctx.t_finalize = self.ctx.kernel.now
        self._finalized = True
        self.ctx.pmpi.detach_all()

    # -- modelled computation ------------------------------------------------------------

    def compute(self, seconds: float):
        """Generator: model a CPU-bound phase of the given duration."""
        if seconds < 0:
            raise ConfigError(f"negative compute time: {seconds}")
        yield float(seconds)

    def compute_flops(self, flops: float):
        """A CPU phase of ``flops`` operations: returns the generator to ``yield from``."""
        return self.compute(flops / self.ctx.world.machine.core_flops_effective)

    # -- waits (route through comm for interception) -------------------------------------

    def wait(self, request: Request):
        return self.comm_world.wait(request)

    def waitall(self, requests: list[Request]):
        return self.comm_world.waitall(requests)

    def waitany(self, requests: list[Request]):
        return _waitany(self.ctx.kernel, requests)

    # -- instrumented POSIX I/O (the density module covers POSIX calls too) --------------

    def posix(self, name: str, nbytes: int = 0, seconds: float = 0.0):
        """Generator: model a POSIX call (open/read/write/close).

        The call's duration is charged to the rank and the call is visible
        to PMPI interceptors, so instrumentation records it exactly like an
        MPI event (paper Sec. IV-D: density maps exist "for all MPI and most
        POSIX calls").
        """
        if name not in ("open", "read", "write", "close"):
            raise ConfigError(f"unsupported POSIX call {name!r}")
        if seconds < 0 or nbytes < 0:
            raise ConfigError("posix() needs non-negative nbytes/seconds")

        def _impl():
            yield float(seconds)

        yield from self.ctx.pmpi.around(name, _impl(), self.comm_world, nbytes=nbytes)

    # -- partition queries (VMPI fills these with meaning) -------------------------------

    def partition_count(self) -> int:
        return len(self.ctx.world.partitions)

    def partition_by_name(self, name: str) -> PartitionInfo | None:
        return self.ctx.world.partition_by_name(name)

    def partition_by_index(self, index: int) -> PartitionInfo:
        return self.ctx.world.partitions[index]
