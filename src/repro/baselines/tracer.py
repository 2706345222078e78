"""Shared machinery of file-based trace writers.

A trace writer accumulates encoded events in a per-rank memory buffer; when
the buffer fills it flushes through the shared parallel file system (the
dreaded mid-run trace flush), and everything left is flushed at finalize.
Writers either create one task-local file per rank (per-rank metadata
transactions) or write through a SIONlib container
(:class:`~repro.iosim.sionlib.SionFile`).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.iosim.filesystem import ParallelFS
from repro.iosim.sionlib import SionFile

#: Effective OTF2 bytes per event.  Calibrated against the paper's in-text
#: numbers: Score-P traces of SP.D are 313 MB at 256 procs over ~150k
#: events/rank (full run), i.e. ~8 B/event on disk; with definition records
#: and SIONlib block padding the effective cost lands near 28 B/event —
#: which also reproduces the paper's ~2.9x online/Score-P volume ratio
#: against our 80 B/event online records.
OTF2_BYTES_PER_EVENT = 28


class TraceWriterState:
    """Per-rank buffered trace writer over the shared FS."""

    __slots__ = ("fs", "rank", "bytes_per_event", "buffer_bytes", "sion", "amortize_fixed",
                 "buffered", "trace_bytes", "flushes", "_opened")

    def __init__(
        self,
        fs: ParallelFS,
        rank: int,
        bytes_per_event: int = OTF2_BYTES_PER_EVENT,
        buffer_bytes: int = 16 * 1024 * 1024,
        sion: SionFile | None = None,
        amortize_fixed: float = 1.0,
    ):
        if bytes_per_event <= 0:
            raise ConfigError("bytes_per_event must be > 0")
        if buffer_bytes <= 0:
            raise ConfigError("buffer_bytes must be > 0")
        if not (0 < amortize_fixed <= 1.0):
            raise ConfigError("amortize_fixed must be in (0, 1]")
        self.fs = fs
        self.rank = rank
        self.bytes_per_event = bytes_per_event
        self.buffer_bytes = buffer_bytes
        self.sion = sion
        self.amortize_fixed = amortize_fixed
        self.buffered = 0
        self.trace_bytes = 0
        self.flushes = 0
        self._opened = False

    # -- lifecycle (all generators, driven on the owning rank) --------------------

    def open(self):
        """Create the trace file (or the SIONlib task-local view)."""
        if self._opened:
            raise ConfigError("trace writer already open")
        self._opened = True
        if self.sion is not None:
            # Only the container-opening task pays the metadata transaction;
            # SionFile handles that internally.
            yield from self.sion.open_task(self.rank, self.amortize_fixed)
        else:
            yield from self.fs.metadata_op(self.amortize_fixed)

    def record(self, nevents: int = 1):
        """Account events; flush through the FS when the buffer fills."""
        if not self._opened:
            raise ConfigError("record() before open()")
        self.buffered += nevents * self.bytes_per_event
        self.trace_bytes += nevents * self.bytes_per_event
        if self.buffered >= self.buffer_bytes:
            yield from self.flush()
        else:
            yield 0.0

    def flush(self):
        """Write the buffered bytes to the shared file system."""
        if self.buffered == 0:
            yield 0.0
            return
        nbytes = self.buffered
        self.buffered = 0
        self.flushes += 1
        if self.sion is not None:
            yield from self.sion.write_task(self.rank, nbytes)
        else:
            yield self.fs.raw_write(nbytes)

    def close(self):
        """Flush the tail and close the file."""
        yield from self.flush()
        if self.sion is not None:
            yield from self.sion.close_task(self.rank)
        else:
            yield from self.fs.metadata_op(self.amortize_fixed)
        self._opened = False
