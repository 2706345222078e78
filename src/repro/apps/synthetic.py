"""Synthetic stream traffic: the paper's Figure 11/12 coupling codes.

``stream_writer_program`` is the instrumented-side sample of Figure 11:
map to the analyzer partition, open a write stream, push N blocks, close.
``stream_reader_program`` is the analyzer of Figure 12: map to every other
partition, read (non-blocking first, then blocking) until all writers
closed.  These drive the Figure 14 throughput benchmark.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.vmpi.mapping import MapPolicy, ROUND_ROBIN, VMPIMap, map_partitions
from repro.vmpi.stream import (
    BALANCE_ROUND_ROBIN,
    EAGAIN,
    EOF,
    VMPIStream,
)


def stream_writer_program(
    mpi,
    total_bytes: int = 1024**3,
    block_size: int = 1024 * 1024,
    reader_partition: str = "Analyzer",
    policy: MapPolicy = ROUND_ROBIN,
    stats: dict | None = None,
):
    """Generator: write ``total_bytes`` in blocks to the reader partition."""
    if total_bytes <= 0 or block_size <= 0:
        raise ConfigError("total_bytes and block_size must be > 0")
    yield from mpi.init()
    vmap = VMPIMap()
    target = mpi.partition_by_name(reader_partition)
    if target is None:
        raise ConfigError(f"could not locate {reader_partition!r} partition")
    yield from map_partitions(mpi, vmap, target, policy=policy)
    stream = VMPIStream(block_size=block_size, balance=BALANCE_ROUND_ROBIN)
    yield from stream.open_map(mpi, vmap, "w")
    if stats is not None:
        stats.setdefault("t_first_write", mpi.now)
    remaining = total_bytes
    while remaining > 0:
        chunk = min(block_size, remaining)
        yield from stream.write(nbytes=chunk)
        remaining -= chunk
    yield from stream.close()
    if stats is not None:
        stats["t_last_close"] = max(stats.get("t_last_close", 0.0), mpi.now)
        stats["bytes_written"] = stats.get("bytes_written", 0) + stream.bytes_written
    yield from mpi.finalize()


def stream_reader_program(
    mpi,
    block_size: int = 1024 * 1024,
    policy: MapPolicy = ROUND_ROBIN,
    stats: dict | None = None,
):
    """Generator: the Figure-12 read loop over every other partition."""
    yield from mpi.init()
    vmap = VMPIMap()
    for index in range(mpi.partition_count()):
        if index != mpi.partition.index:
            yield from map_partitions(mpi, vmap, index, policy=policy)
    stream = VMPIStream(block_size=block_size, balance=BALANCE_ROUND_ROBIN)
    yield from stream.open_map(mpi, vmap, "r")
    while True:
        # Paper Figure 12: try non-blocking first, fall back to blocking.
        nbytes, _payload = yield from stream.read(nonblock=True)
        if nbytes == EAGAIN:
            nbytes, _payload = yield from stream.read()
        if nbytes == EOF:
            break
    yield from stream.close()
    if stats is not None:
        stats["t_last_read"] = max(stats.get("t_last_read", 0.0), mpi.now)
        stats["bytes_read"] = stats.get("bytes_read", 0) + stream.bytes_read
    yield from mpi.finalize()
