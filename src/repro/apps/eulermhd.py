"""EulerMHD skeleton: high-order ideal MHD on a 2D Cartesian mesh.

The paper's representative C++ application (Wolff et al. [20]) solves Euler
ideal magneto-hydrodynamics at high order on a 2D Cartesian mesh.  The
skeleton reproduces its communication shape: a px x py domain decomposition
with four-neighbour halo exchanges of ``nvars`` conserved variables per time
step (wide halos — high-order stencils), one ``MPI_Allreduce`` for the CFL
time-step, and periodic checkpoint writes through POSIX calls (which the
density module also maps).

The grid topology is what the paper's Figure 17(c) shows for EulerMHD on
2048 cores.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.apps.base import AppKernel, grid_2d


class EulerMHD(AppKernel):
    name = "EulerMHD"
    #: conserved variables per cell, halo depth of the high-order stencil,
    #: flops per cell and time step
    nvars = 8
    halo_width = 3
    flops_per_cell = 900.0

    def __init__(
        self,
        nprocs: int,
        grid: int = 4096,
        iterations: int = 10,
        checkpoint_every: int = 0,
    ):
        if grid <= 0:
            raise ConfigError("EulerMHD: grid must be > 0")
        if checkpoint_every < 0:
            raise ConfigError("EulerMHD: checkpoint_every must be >= 0")
        self.grid = grid
        self.checkpoint_every = checkpoint_every
        super().__init__(nprocs, iterations)

    def layout(self) -> tuple[int, int]:
        return grid_2d(self.nprocs)

    def halo_bytes(self, edge_cells: float) -> int:
        return max(64, int(edge_cells * self.halo_width * self.nvars * 8))

    def step_compute_seconds(self, mpi) -> float:
        cells_per_rank = self.grid * self.grid / self.nprocs
        flop_rate = mpi.ctx.world.machine.core_flops_effective
        return cells_per_rank * self.flops_per_cell / flop_rate

    def main(self, mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.size != self.nprocs:
            raise ConfigError(
                f"{self.label} built for {self.nprocs} ranks, launched on {comm.size}"
            )
        px, py = self.layout()
        x, y = comm.rank % px, comm.rank // px
        halo_x = self.halo_bytes(self.grid / py)  # vertical edges: column height
        halo_y = self.halo_bytes(self.grid / px)
        west = comm.rank - 1 if x > 0 else -1
        east = comm.rank + 1 if x < px - 1 else -1
        north = comm.rank - px if y > 0 else -1
        south = comm.rank + px if y < py - 1 else -1
        step_cpu = self.step_compute_seconds(mpi)
        cells_per_rank = self.grid * self.grid / self.nprocs
        for it in range(self.iterations):
            yield from mpi.compute(step_cpu)
            reqs = []
            for nb, size, tag in (
                (west, halo_x, 60),
                (east, halo_x, 60),
                (north, halo_y, 61),
                (south, halo_y, 61),
            ):
                if nb < 0:
                    continue
                rq = yield from comm.irecv(source=nb, tag=tag)
                sq = yield from comm.isend(nb, nbytes=size, tag=tag)
                reqs += [rq, sq]
            if reqs:
                yield from comm.waitall(reqs)
            # CFL condition: global minimum time step.
            yield from comm.allreduce(nbytes=8)
            if self.checkpoint_every and (it + 1) % self.checkpoint_every == 0:
                # Checkpoint the local sub-domain through POSIX (visible to
                # the density module, as in the paper's report samples).
                nbytes = int(cells_per_rank * self.nvars * 8)
                write_time = nbytes / mpi.ctx.world.machine.fs_stripe_bandwidth
                yield from mpi.posix("open", seconds=1e-4)
                yield from mpi.posix("write", nbytes=nbytes, seconds=write_time)
                yield from mpi.posix("close", seconds=5e-5)
        yield from comm.barrier()
        yield from mpi.finalize()
