"""Property-based tests on the VMPI stream transport.

Invariants: every written block is read exactly once (byte conservation),
EOF strictly follows the last data block, per-writer FIFO order holds — for
arbitrary writer/reader counts and block schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.network.machine import small_test_machine
from repro.util.units import KIB
from repro.vmpi import EOF, ROUND_ROBIN, VMPIMap, VMPIStream, map_partitions
from repro.vmpi.virtualization import VirtualizedLauncher

MACHINE = small_test_machine(nodes=64, cores_per_node=4)


def _run_coupling(writers: int, readers: int, blocks_per_writer: list[int], na: int):
    """Returns (sent, received) lists of (writer_rank, seq) tuples."""
    sent: list[tuple[int, int]] = []
    received: list[tuple[int, int]] = []

    def writer(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st_obj = VMPIStream(block_size=64 * KIB, na_buffers=na)
        yield from st_obj.open_map(mpi, vmap, "w")
        for seq in range(blocks_per_writer[mpi.rank]):
            yield from st_obj.write(
                nbytes=1 + (seq % (64 * KIB)), payload=(mpi.rank, seq)
            )
            sent.append((mpi.rank, seq))
        yield from st_obj.close()
        yield from mpi.finalize()

    def reader(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st_obj = VMPIStream(block_size=64 * KIB, na_buffers=na)
        yield from st_obj.open_map(mpi, vmap, "r")
        while True:
            nbytes, payload = yield from st_obj.read()
            if nbytes == EOF:
                break
            received.append(payload)
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=MACHINE, seed=1)
    launcher.add_program("W", nprocs=writers, main=writer)
    launcher.add_program("Analyzer", nprocs=readers, main=reader)
    launcher.run()
    return sent, received


@given(
    writers=st.integers(1, 6),
    readers=st.integers(1, 4),
    na=st.integers(1, 4),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_stream_conserves_blocks(writers, readers, na, data):
    blocks = data.draw(
        st.lists(st.integers(0, 12), min_size=writers, max_size=writers)
    )
    sent, received = _run_coupling(writers, readers, blocks, na)
    assert sorted(sent) == sorted(received)


@given(writers=st.integers(1, 4), na=st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_stream_preserves_per_writer_order(writers, na):
    blocks = [8] * writers
    _sent, received = _run_coupling(writers, 1, blocks, na)
    for w in range(writers):
        seqs = [seq for (rank, seq) in received if rank == w]
        assert seqs == sorted(seqs)


@given(
    sizes=st.lists(st.integers(1, 64 * KIB), min_size=1, max_size=20),
)
@settings(max_examples=20, deadline=None)
def test_stream_byte_totals(sizes):
    total = {"w": 0, "r": 0}

    def writer(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st_obj = VMPIStream(block_size=64 * KIB)
        yield from st_obj.open_map(mpi, vmap, "w")
        for nbytes in sizes:
            yield from st_obj.write(nbytes=nbytes)
        yield from st_obj.close()
        total["w"] = st_obj.bytes_written
        yield from mpi.finalize()

    def reader(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st_obj = VMPIStream(block_size=64 * KIB)
        yield from st_obj.open_map(mpi, vmap, "r")
        while True:
            nbytes, _ = yield from st_obj.read()
            if nbytes == EOF:
                break
        total["r"] = st_obj.bytes_read
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=MACHINE, seed=2)
    launcher.add_program("W", nprocs=1, main=writer)
    launcher.add_program("Analyzer", nprocs=1, main=reader)
    launcher.run()
    assert total["w"] == total["r"] == sum(sizes)
