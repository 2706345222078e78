"""Scalasca 1.4 model: runtime summarization + post-mortem replay.

Scalasca's measurement phase resembles Score-P's profile mode (it shares
lineage) with a slightly heavier per-call path (call-path hashing for the
wait-state search) and an EPILOG-era collation step at finalize: a gather
of per-rank profiles to intermediate collectors plus the report write.  The
post-mortem trace replay runs *after* MPI_Finalize in the paper's
measurement window, so it is tracked but not charged between init and
finalize.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.iosim.filesystem import ParallelFS
from repro.mpi.pmpi import CallRecord, Interceptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import ProgramAPI, RankContext


class ScalascaInterceptor(Interceptor):
    """Scalasca runtime summarization."""

    #: per-call callpath hash + metric accumulation
    PER_CALL_CPU = 0.8e-6
    #: per-rank profile contribution gathered at finalize
    PROFILE_BYTES_PER_RANK = 96 * 1024
    #: collation fan-in (ranks per collector)
    COLLATE_FANIN = 64

    def __init__(self, mpi: "ProgramAPI", fs: ParallelFS, amortize_fixed: float = 1.0):
        self.mpi = mpi
        self.fs = fs
        self.amortize_fixed = amortize_fixed
        self.calls = 0
        self.postmortem_seconds = 0.0

    def on_exit(self, ctx: "RankContext", record: CallRecord):
        if record.name == "MPI_Finalize":
            return self._finalize()
        self.calls += 1
        return self.PER_CALL_CPU

    def _finalize(self):
        """Collation: gather profiles over a fan-in tree, root writes."""
        mpi = self.mpi
        size = mpi.size
        scale = self.amortize_fixed
        cost = mpi.ctx.world.cost
        # Stage 1: send my profile towards my collector (modelled time).
        stages = max(1, math.ceil(math.log(max(2, size), self.COLLATE_FANIN)))
        per_stage = cost.alpha + self.PROFILE_BYTES_PER_RANK * cost.beta
        yield float(stages * per_stage * scale)
        if mpi.rank == 0:
            nbytes = int(self.PROFILE_BYTES_PER_RANK * size * scale)
            yield from self.fs.metadata_op(scale)
            yield self.fs.raw_write(nbytes)
            yield from self.fs.metadata_op(scale)
        # Post-mortem analysis estimate (outside the measured window).
        self.postmortem_seconds = 0.02 * math.log2(max(2, size))
