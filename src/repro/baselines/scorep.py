"""Score-P models: runtime profile and OTF2 tracing over SIONlib.

Matches the paper's Figure-16 configuration: Score-P 1.1.1, MPI-only
instrumentation (no compiler instrumentation), default buffer configuration,
SIONlib containers for the trace mode.

* **Profile mode** — per-call profile-tree update in memory; at finalize
  every rank writes its profile file: N simultaneous creates against the
  metadata server plus N small writes — the classic metadata storm that
  grows with scale.
* **Trace mode** — per-call OTF2 event encoding into the default 16 MB
  memory buffer, flushed through the SIONlib container on overflow and at
  finalize.  Data volume is what hurts: the shared FS bandwidth share is
  orders of magnitude below the network bisection the online coupling uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.tracer import OTF2_BYTES_PER_EVENT, TraceWriterState
from repro.iosim.filesystem import ParallelFS
from repro.iosim.sionlib import SionFile
from repro.mpi.pmpi import CallRecord, Interceptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import ProgramAPI, RankContext


class ScorePProfileInterceptor(Interceptor):
    """Score-P runtime summarization (profile) mode."""

    #: per-call profile-tree node lookup + accumulation
    PER_CALL_CPU = 0.5e-6
    #: size of one rank's profile file (.cubex contribution)
    PROFILE_BYTES_PER_RANK = 64 * 1024

    def __init__(self, mpi: "ProgramAPI", fs: ParallelFS, amortize_fixed: float = 1.0):
        self.mpi = mpi
        self.fs = fs
        self.amortize_fixed = amortize_fixed
        self.calls = 0

    def on_exit(self, ctx: "RankContext", record: CallRecord):
        if record.name == "MPI_Finalize":
            return self._finalize()
        self.calls += 1
        return self.PER_CALL_CPU

    def _finalize(self):
        """Every rank creates and writes its profile file."""
        scale = self.amortize_fixed
        yield from self.fs.metadata_op(scale)
        yield self.fs.raw_write(int(self.PROFILE_BYTES_PER_RANK * scale))
        yield from self.fs.metadata_op(scale)


class ScorePTraceInterceptor(Interceptor):
    """Score-P OTF2 tracing over SIONlib."""

    #: per-call OTF2 encode (timestamps, region ids, attribute writes)
    PER_CALL_CPU = 0.7e-6
    #: Score-P default trace memory (SCOREP_TOTAL_MEMORY)
    BUFFER_BYTES = 16 * 1024 * 1024

    def __init__(
        self,
        mpi: "ProgramAPI",
        fs: ParallelFS,
        sion: SionFile,
        amortize_fixed: float = 1.0,
    ):
        self.mpi = mpi
        self.fs = fs
        self.writer = TraceWriterState(
            fs,
            rank=mpi.ctx.global_rank,
            bytes_per_event=OTF2_BYTES_PER_EVENT,
            buffer_bytes=self.BUFFER_BYTES,
            sion=sion,
            amortize_fixed=amortize_fixed,
        )
        self.calls = 0

    def on_exit(self, ctx: "RankContext", record: CallRecord):
        if record.name == "MPI_Init":
            return self.writer.open()
        if record.name == "MPI_Finalize":
            return self._finalize()
        return self._record()

    def _record(self):
        self.calls += 1
        yield self.PER_CALL_CPU
        yield from self.writer.record(1)

    def _finalize(self):
        yield from self._record()
        yield from self.writer.close()

    @property
    def trace_bytes(self) -> int:
        return self.writer.trace_bytes
