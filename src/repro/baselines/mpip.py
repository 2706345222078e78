"""mpiP model: purely online statistical aggregation (Vetter & McCracken).

mpiP keeps per-call-site aggregates in process memory — near-zero data
volume — and reduces them at ``MPI_Finalize`` into one small report written
by rank 0.  It is the lightest baseline: its overhead is per-call counter
updates plus one final reduction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.iosim.filesystem import ParallelFS
from repro.mpi.pmpi import CallRecord, Interceptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import ProgramAPI, RankContext


class MPIPInterceptor(Interceptor):
    """Statistical aggregate profiler."""

    __slots__ = ("mpi", "fs", "amortize_fixed", "calls", "aggregate")

    #: per-call counter update (hash call site, accumulate)
    PER_CALL_CPU = 0.25e-6
    #: per-rank contribution to the final report
    REPORT_BYTES_PER_RANK = 2048

    def __init__(self, mpi: "ProgramAPI", fs: ParallelFS, amortize_fixed: float = 1.0):
        self.mpi = mpi
        self.fs = fs
        self.amortize_fixed = amortize_fixed
        self.calls = 0
        self.aggregate: dict[str, list[float]] = {}

    def on_exit(self, ctx: "RankContext", record: CallRecord):
        if record.name == "MPI_Finalize":
            return self._finalize(record)
        return self._account(record)

    def _account(self, record: CallRecord):
        self.calls += 1
        slot = self.aggregate.setdefault(record.name, [0.0, 0.0])
        slot[0] += 1
        slot[1] += record.duration
        yield self.PER_CALL_CPU

    def _finalize(self, record: CallRecord):
        """Reduce aggregates to rank 0; rank 0 writes the report."""
        mpi = self.mpi
        size = mpi.size
        # Modelled binomial-tree reduction of the fixed-size aggregates.
        stages = max(1, math.ceil(math.log2(max(2, size))))
        reduce_cost = stages * (mpi.ctx.world.cost.alpha + 1.0e-6)
        yield reduce_cost
        if mpi.rank == 0:
            nbytes = self.REPORT_BYTES_PER_RANK * size
            yield from self.fs.metadata_op(self.amortize_fixed)
            yield self.fs.raw_write(int(nbytes * self.amortize_fixed))
            yield from self.fs.metadata_op(self.amortize_fixed)
