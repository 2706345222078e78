"""Per-rank file handles over the :class:`~repro.iosim.filesystem.ParallelFS`.

A :class:`SimFile` is what a trace writer sees: ``open`` costs a metadata
transaction, ``write`` moves bytes through the shared data path (and tracks
the logical file size), ``close`` costs another metadata transaction.  All
methods are generators to be driven by the simulated process that owns the
handle.
"""

from __future__ import annotations

from repro.errors import IOSimError
from repro.iosim.filesystem import ParallelFS


class SimFile:
    """One logical file opened by one simulated rank."""

    def __init__(self, fs: ParallelFS, path: str):
        self.fs = fs
        self.path = path
        self.size = 0
        self.is_open = False
        self.writes = 0

    def open(self):
        """Generator: run the open/create metadata transaction."""
        if self.is_open:
            raise IOSimError(f"{self.path}: already open")
        self.fs.files_created += 1
        yield from self.fs.metadata_op()
        self.is_open = True

    def write(self, nbytes: int):
        """Generator: append ``nbytes`` through the shared data path."""
        if not self.is_open:
            raise IOSimError(f"{self.path}: write on closed file")
        if nbytes < 0:
            raise IOSimError(f"{self.path}: negative write")
        self.writes += 1
        self.size += nbytes
        self.fs.bytes_written += nbytes
        yield self.fs._capped_transfer(nbytes)

    def read(self, nbytes: int):
        """Generator: read ``nbytes`` through the shared data path."""
        if not self.is_open:
            raise IOSimError(f"{self.path}: read on closed file")
        if nbytes < 0:
            raise IOSimError(f"{self.path}: negative read")
        self.fs.bytes_read += nbytes
        yield self.fs._capped_transfer(nbytes)

    def close(self):
        """Generator: run the close metadata transaction."""
        if not self.is_open:
            raise IOSimError(f"{self.path}: close on closed file")
        yield from self.fs.metadata_op()
        self.is_open = False
