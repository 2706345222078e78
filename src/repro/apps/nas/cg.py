"""CG: conjugate gradient with butterfly row-reductions.

CG runs on a power-of-two process count arranged as an nprows x npcols
grid.  Every iteration performs a sparse matrix-vector product whose
partial sums are reduced along each process row through log2(npcols)
pairwise exchanges with partners at XOR distances — the recursive-halving
pattern that produces the characteristic block/butterfly communication
matrix of the paper's Figure 17(a) — followed by a transpose exchange and
scalar allreduces for the rho/alpha dot products.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.apps.base import ClassSpec, NASKernel, is_power_of_two


class CG(NASKernel):
    name = "CG"
    CLASSES = {
        "C": ClassSpec(size=150_000, niter=75, gops=143.4),
        "D": ClassSpec(size=1_500_000, niter=100, gops=3625.0),
    }

    @classmethod
    def validate_nprocs(cls, nprocs: int) -> None:
        if not is_power_of_two(nprocs):
            raise ConfigError(f"CG requires a power-of-two process count, got {nprocs}")

    def layout(self) -> tuple[int, int]:
        """(nprows, npcols) as NPB chooses them: square, or cols = 2 x rows."""
        log_p = int(math.log2(self.nprocs))
        npcols = 2 ** ((log_p + 1) // 2)
        nprows = self.nprocs // npcols
        return nprows, npcols

    def transpose_partner(self, rank: int) -> int:
        nprows, npcols = self.layout()
        proc_row, proc_col = divmod(rank, npcols)
        if nprows == npcols:
            return proc_col * npcols + proc_row
        # Non-square layout: NPB pairs ranks across grid halves; we use the
        # half-shift simplification, which preserves distance structure.
        return (rank + self.nprocs // 2) % self.nprocs

    def main(self, mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.size != self.nprocs:
            raise ConfigError(
                f"{self.label} built for {self.nprocs} ranks, launched on {comm.size}"
            )
        nprows, npcols = self.layout()
        proc_row, proc_col = divmod(comm.rank, npcols)
        # Local vector segment exchanged along the row (doubles).
        seg_bytes = max(64, int(8 * self.spec.size / nprows))
        step_cpu = self.step_compute_seconds(mpi)
        tpartner = self.transpose_partner(comm.rank)
        for _it in range(self.iterations):
            yield from mpi.compute(step_cpu)
            # Row-wise recursive halving of the matvec partial sums.
            for stage in range(int(math.log2(npcols))):
                partner_col = proc_col ^ (1 << stage)
                partner = proc_row * npcols + partner_col
                nbytes = max(64, seg_bytes >> stage)
                yield from comm.sendrecv(partner, send_nbytes=nbytes, source=partner, tag=20 + stage)
            # Transpose exchange of the result vector.
            if tpartner != comm.rank:
                yield from comm.sendrecv(tpartner, send_nbytes=seg_bytes, source=tpartner, tag=40)
            # rho and alpha dot products.
            yield from comm.allreduce(nbytes=8)
            yield from comm.allreduce(nbytes=8)
        yield from comm.barrier()
        yield from mpi.finalize()
