"""VMPI streams: pipelining, backpressure, policies, EOF/EAGAIN protocol."""

import pytest

from repro.errors import StreamClosedError, VMPIError
from repro.network.machine import small_test_machine
from repro.util.units import KIB, MIB
from repro.vmpi import (
    BALANCE_NONE,
    BALANCE_RANDOM,
    BALANCE_ROUND_ROBIN,
    EAGAIN,
    EOF,
    OVERFLOW_DROP_NEWEST,
    OVERFLOW_DROP_OLDEST,
    ROUND_ROBIN,
    VMPIMap,
    VMPIStream,
    map_partitions,
)
from repro.vmpi.virtualization import VirtualizedLauncher


def _coupled(machine, writers, readers, writer_main, reader_main, seed=0, **shared):
    launcher = VirtualizedLauncher(machine=machine, seed=seed)
    launcher.add_program("W", nprocs=writers, main=writer_main, **shared)
    launcher.add_program("Analyzer", nprocs=readers, main=reader_main, **shared)
    return launcher.run()


def _writer(mpi, out, blocks=10, block_size=64 * KIB, na=3, balance=BALANCE_ROUND_ROBIN):
    yield from mpi.init()
    vmap = VMPIMap()
    yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
    st = VMPIStream(block_size=block_size, balance=balance, na_buffers=na)
    yield from st.open_map(mpi, vmap, "w")
    for i in range(blocks):
        yield from st.write(payload=(mpi.rank, i))
    yield from st.close()
    out.setdefault("written", []).append(st.blocks_written)
    yield from mpi.finalize()


def _reader(mpi, out, block_size=64 * KIB, na=3, **_kw):
    yield from mpi.init()
    vmap = VMPIMap()
    for i in range(mpi.partition_count()):
        if i != mpi.partition.index:
            yield from map_partitions(mpi, vmap, i, ROUND_ROBIN)
    st = VMPIStream(block_size=block_size, na_buffers=na)
    yield from st.open_map(mpi, vmap, "r")
    while True:
        n, payload = yield from st.read()
        if n == EOF:
            break
        out.setdefault("read", []).append(payload)
    yield from st.close()
    yield from mpi.finalize()


def test_all_blocks_delivered(machine):
    out = {}
    _coupled(machine, 4, 2, _writer, _reader, out=out)
    assert sorted(out["read"]) == sorted((r, i) for r in range(4) for i in range(10))


def test_per_writer_fifo_order(machine):
    out = {}
    _coupled(machine, 2, 1, _writer, _reader, out=out)
    for writer in range(2):
        seq = [i for (r, i) in out["read"] if r == writer]
        assert seq == sorted(seq)


def test_validation_errors():
    with pytest.raises(VMPIError):
        VMPIStream(block_size=0)
    with pytest.raises(VMPIError):
        VMPIStream(balance="zigzag")
    with pytest.raises(VMPIError):
        VMPIStream(na_buffers=0)
    with pytest.raises(VMPIError):
        VMPIStream(channel=-1)


def test_write_requires_open():
    st = VMPIStream()
    with pytest.raises(StreamClosedError):
        list(st.write(nbytes=10))


def test_mode_enforcement(machine):
    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "w")
        with pytest.raises(VMPIError):
            yield from st.read()
        yield from st.write(nbytes=100)
        yield from st.close()
        yield from mpi.finalize()

    out = {}
    _coupled(machine, 1, 1, writer, _reader, out=out)


def test_oversized_write_rejected(machine):
    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(block_size=1024)
        yield from st.open_map(mpi, vmap, "w")
        with pytest.raises(VMPIError):
            yield from st.write(nbytes=2048)
        yield from st.write(nbytes=1024)
        yield from st.close()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, _reader, out={})


def test_nonblocking_read_eagain(machine):
    observed = []

    def slow_writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "w")
        yield from mpi.compute(1.0)  # make the reader spin first
        yield from st.write(nbytes=1000)
        yield from st.close()
        yield from mpi.finalize()

    def polling_reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "r")
        n, _ = yield from st.read(nonblock=True)
        observed.append(n)
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
            observed.append(n)
        yield from mpi.finalize()

    _coupled(machine, 1, 1, slow_writer, polling_reader, out={})
    assert observed[0] == EAGAIN
    assert observed[1] == 1000


def test_eof_only_after_all_writers_close(machine):
    out = {}
    _coupled(machine, 6, 1, _writer, _reader, out=out)
    assert len(out["read"]) == 60  # nothing lost, EOF strictly last


def test_backpressure_blocks_writer(machine):
    """A stalled reader throttles the writer to the buffer window."""
    progress = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(block_size=1 * MIB, na_buffers=2)
        yield from st.open_map(mpi, vmap, "w")
        for i in range(20):
            yield from st.write()
            progress[i] = mpi.now
        yield from st.close()
        yield from mpi.finalize()

    def stalled_reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(block_size=1 * MIB, na_buffers=2)
        yield from st.open_map(mpi, vmap, "r")
        yield from mpi.compute(5.0)  # reader sleeps: buffers fill
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, stalled_reader, out={})
    # The first few writes fit the adaptation window; later ones block
    # until the reader wakes at t=5.
    assert progress[0] < 1.0
    assert progress[19] > 5.0


def test_adaptation_window_scales_with_na(machine):
    """More asynchronous buffers let more writes complete before blocking."""

    def count_early(na):
        progress = {}

        def writer(mpi, out):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
            st = VMPIStream(block_size=1 * MIB, na_buffers=na)
            yield from st.open_map(mpi, vmap, "w")
            for i in range(30):
                yield from st.write()
                progress[i] = mpi.now
            yield from st.close()
            yield from mpi.finalize()

        def sleeper(mpi, out):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
            st = VMPIStream(block_size=1 * MIB, na_buffers=na)
            yield from st.open_map(mpi, vmap, "r")
            yield from mpi.compute(5.0)
            while True:
                n, _ = yield from st.read()
                if n == EOF:
                    break
            yield from mpi.finalize()

        _coupled(machine, 1, 1, writer, sleeper, out={})
        return sum(1 for t in progress.values() if t < 5.0)

    assert count_early(6) > count_early(2)


def test_round_robin_balances_endpoints(machine):
    per_reader = {}

    def counting_reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "r")
        count = 0
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
            count += 1
        per_reader[mpi.rank] = count
        yield from mpi.finalize()

    def writer(mpi, out):
        yield from _writer(mpi, out, blocks=12)

    _coupled(machine, 2, 4, writer, counting_reader, out={})
    # Each of the 2 writers is mapped to 2 readers; RR splits evenly.
    assert sorted(per_reader.values()) == [6, 6, 6, 6]


def test_balance_none_uses_first_endpoint(machine):
    per_reader = {}

    def writer(mpi, out):
        yield from _writer(mpi, out, blocks=8, balance=BALANCE_NONE)

    def counting_reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "r")
        count = 0
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
            count += 1
        per_reader[mpi.rank] = count
        yield from mpi.finalize()

    _coupled(machine, 1, 2, writer, counting_reader, out={})
    assert sorted(per_reader.values()) == [0, 8]


def test_balance_random_endpoint_sequence_is_pinned():
    """The random policy's stream RNG is derived on its first draw, from the
    same labels it always had: each block lands where it always landed."""
    landed = []

    def writer(mpi, out):
        yield from mpi.init()
        st = VMPIStream(block_size=512, balance=BALANCE_RANDOM)
        yield from st.open_ranks(mpi, [2, 3, 4], "w")
        for i in range(8):
            yield from st.write(nbytes=512, payload=(mpi.ctx.global_rank, i))
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        st = VMPIStream(block_size=512)
        yield from st.open_ranks(mpi, [0, 1], "r")
        while True:
            n, payload = yield from st.read()
            if n == EOF:
                break
            out.append((payload, mpi.ctx.global_rank))
        yield from mpi.finalize()

    _coupled(small_test_machine(nodes=8, cores_per_node=4), 2, 3, writer, reader, seed=7, out=landed)
    assert [reader for _block, reader in sorted(landed)] == [
        3, 3, 4, 4, 4, 2, 4, 3,  # writer 0, blocks 0..7
        4, 3, 4, 4, 4, 4, 3, 3,  # writer 1
    ]


def test_double_close_is_noop(machine):
    """Closing twice is safe (failure-path cleanup), but I/O after close is not."""

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "w")
        yield from st.write(nbytes=10)
        yield from st.close()
        yield from st.close()  # idempotent: no error, no second close marker
        with pytest.raises(StreamClosedError):
            yield from st.write(nbytes=10)
        yield from mpi.finalize()

    out = {}
    _coupled(machine, 1, 1, writer, _reader, out=out)
    assert out["read"] == [None]  # exactly one block, exactly one EOF


def test_read_after_close_raises(machine):
    def reader(mpi, out, **_kw):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "r")
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
        yield from st.close()
        with pytest.raises(StreamClosedError):
            yield from st.read()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, _writer, reader, out={}, blocks=2)


def test_reader_close_accounts_stranded_blocks(machine):
    """Blocks that arrived but were never read are counted at close."""
    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(na_buffers=3)
        yield from st.open_map(mpi, vmap, "w")
        yield from st.write(nbytes=1000)
        yield from st.write(nbytes=500)
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(na_buffers=3)
        yield from st.open_map(mpi, vmap, "r")
        yield from mpi.compute(5.0)  # both blocks land in the NA buffers
        yield from st.close()  # abandon them unread
        out["stats"] = st.stats()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, reader, out=out)
    s = out["stats"]
    assert s["closed"] is True
    assert s["blocks_discarded_at_close"] == 2
    assert s["bytes_discarded_at_close"] == 1500


def test_stream_byte_accounting(machine):
    out = {}
    _coupled(machine, 2, 1, _writer, _reader, out=out, blocks=5)
    assert out["written"] == [5, 5]


def test_saturation_stats_always_on(machine):
    """stats() exposes buffer high-water marks and wait time without telemetry."""
    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(na_buffers=2)
        yield from st.open_map(mpi, vmap, "w")
        for i in range(12):
            yield from st.write(payload=i)
        yield from st.close()
        out["wstats"] = st.stats()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        for i in range(mpi.partition_count()):
            if i != mpi.partition.index:
                yield from map_partitions(mpi, vmap, i, ROUND_ROBIN)
        st = VMPIStream(na_buffers=2)
        yield from st.open_map(mpi, vmap, "r")
        while True:
            n, _payload = yield from st.read()
            if n == EOF:
                break
        yield from st.close()
        out["rstats"] = st.stats()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, reader, out=out)
    w, r = out["wstats"], out["rstats"]
    # Writer side: the NA slots were exercised and the occupancy peak kept.
    assert 1 <= w["write_buffers_hwm"] <= 2
    assert w["read_wait_s"] == 0.0
    # Reader side: blocking reads accumulated wait; buffers were occupied.
    assert r["read_wait_s"] > 0.0
    assert r["read_buffers_hwm"] >= 1
    for key in ("read_wait_s", "write_buffers_hwm", "read_buffers_hwm"):
        assert key in w and key in r
    # Failure-tolerance counters exist and are all zero on the healthy path.
    for key in ("write_retries", "write_timeouts", "blocks_dropped",
                "bytes_dropped", "blocks_lost_to_crash", "endpoints_failed",
                "stale_blocks_discarded", "blocks_discarded_at_close"):
        assert w[key] == 0 and r[key] == 0


def _stalled_then_draining_reader(stall_s, out_key):
    """Reader main: an injected slow-analyzer stall, then drain to EOF."""

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(na_buffers=2)
        yield from st.open_map(mpi, vmap, "r")
        n, _ = yield from st.read(nonblock=True)
        out.setdefault("first_read", []).append(n)
        st.stall_until(mpi.now + stall_s)  # what the stall fault injects
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
        yield from st.close()
        out[out_key] = st.stats()
        yield from mpi.finalize()

    return reader


def test_write_timeout_retry_then_drop_newest(machine):
    """With the reader stalled, timed-out writes retry, back off, then drop."""
    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(
            na_buffers=2,
            write_timeout=0.05,
            max_retries=2,
            overflow=OVERFLOW_DROP_NEWEST,
        )
        yield from st.open_map(mpi, vmap, "w")
        for i in range(10):
            yield from st.write(payload=i)
        yield from st.close()
        out["w"] = st.stats()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, _stalled_then_draining_reader(5.0, "r"), out=out)
    w, r = out["w"], out["r"]
    assert w["write_timeouts"] >= 1
    assert w["write_retries"] >= 1
    assert w["blocks_dropped"] >= 1
    assert w["bytes_dropped"] > 0
    # Every block is accounted exactly once: delivered or dropped.
    assert r["blocks_read"] + w["blocks_dropped"] == 10
    # The stalled reader's empty non-blocking probe took the EAGAIN path.
    assert out["first_read"] == [EAGAIN]
    assert r["eagain_returns"] == 1


def test_write_timeout_drop_oldest_reclaims_inflight(machine):
    """drop-oldest sacrifices the stalest committed block for the new one."""
    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(
            na_buffers=2,
            write_timeout=0.05,
            max_retries=1,
            overflow=OVERFLOW_DROP_OLDEST,
        )
        yield from st.open_map(mpi, vmap, "w")
        for i in range(10):
            yield from st.write(payload=i)
        yield from st.close()
        out["w"] = st.stats()
        yield from mpi.finalize()

    _coupled(machine, 1, 1, writer, _stalled_then_draining_reader(5.0, "r"), out=out)
    w, r = out["w"], out["r"]
    assert w["blocks_dropped"] >= 1
    # Reclaimed blocks travel as tombstones the reader silently discards.
    assert r["stale_blocks_discarded"] == w["blocks_dropped"]
    assert r["blocks_read"] + w["blocks_dropped"] == 10
    # Later payloads survive at the expense of the oldest ones.
    assert w["write_timeouts"] >= 1
    # Tombstoned blocks sat in the receive buffers through the stall; the
    # reader attributes that dead dwell separately from consumed blocks'.
    assert r["dropped_dwell_s"] > 0
    assert r["read_dwell_s"] > 0


def test_a_tombstone_discarded_at_close_ticks_the_same_counter_as_one_consumed(machine):
    """``stats()`` and the telemetry plane agree on stale blocks wherever the
    tombstone is met: ``_consume`` always ticked the counter, ``close`` did not."""
    from repro.errors import DeadlockError
    from repro.telemetry import Telemetry

    out = {}

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(
            na_buffers=3, write_timeout=0.05, max_retries=0, overflow=OVERFLOW_DROP_OLDEST
        )
        yield from st.open_map(mpi, vmap, "w")
        for i in range(6):
            yield from st.write(payload=i)
        yield from st.close()  # never returns: the reader below walks away

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(na_buffers=2)
        yield from st.open_map(mpi, vmap, "r")
        st.stall_until(mpi.now + 5.0)
        out["read"] = (yield from st.read())[1]
        # The re-posted buffer matches the oldest unmatched block: a tombstone.
        yield from mpi.compute(1.0)
        out["queued"] = [status.payload for status, *_ in st._ready]
        yield from st.close()
        out["r"] = st.stats()
        yield from mpi.finalize()

    telemetry = Telemetry()
    launcher = VirtualizedLauncher(machine=machine, seed=0, telemetry=telemetry)
    launcher.add_program("W", nprocs=1, main=writer, out=out)
    launcher.add_program("Analyzer", nprocs=1, main=reader, out=out)
    with pytest.raises(DeadlockError, match="W"):
        launcher.run()
    assert out["read"] == 0 and len(out["queued"]) == 2 and out["queued"][0] == 1
    r = out["r"]
    assert r["stale_blocks_discarded"] == 1 and r["blocks_discarded_at_close"] == 1
    assert telemetry.counter("stream.stale_blocks_discarded").value == 1
