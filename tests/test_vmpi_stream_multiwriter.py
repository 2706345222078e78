"""Stream stress scenarios: many-to-few fan-in, interleaved channels,
zero-block writers, reader fairness, and interleaved-writer provenance."""

import pytest

from repro.codec.frame import PackProvenance
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord
from repro.network.machine import small_test_machine
from repro.telemetry import FlowRegistry, split_flow_id
from repro.telemetry.flow import per_writer_stage_samples, stage_samples
from repro.util.units import KIB
from repro.vmpi import EOF, ROUND_ROBIN, VMPIMap, VMPIStream, map_partitions
from repro.vmpi.virtualization import VirtualizedLauncher

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


def _run(writers, readers, writer_main, reader_main, **kw):
    launcher = VirtualizedLauncher(machine=MACHINE, seed=4)
    launcher.add_program("W", nprocs=writers, main=writer_main, **kw)
    launcher.add_program("Analyzer", nprocs=readers, main=reader_main, **kw)
    return launcher.run()


def test_64_to_2_fanin_delivers_everything():
    got = []

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(block_size=16 * KIB)
        yield from st.open_map(mpi, vmap, "w")
        for i in range(4):
            yield from st.write(nbytes=16 * KIB, payload=(mpi.rank, i))
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(block_size=16 * KIB)
        yield from st.open_map(mpi, vmap, "r")
        while True:
            n, payload = yield from st.read()
            if n == EOF:
                break
            out.append(payload)
        yield from mpi.finalize()

    _run(64, 2, writer, reader, out=got)
    assert len(got) == 64 * 4
    assert len(set(got)) == 64 * 4  # no duplicates


def test_writer_with_zero_blocks_still_closes_cleanly():
    counts = {}

    def writer(mpi, counts):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "w")
        if mpi.rank % 2 == 0:  # odd ranks write nothing at all
            yield from st.write(nbytes=512, payload=mpi.rank)
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, counts):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream()
        yield from st.open_map(mpi, vmap, "r")
        n_blocks = 0
        while True:
            n, _ = yield from st.read()
            if n == EOF:
                break
            n_blocks += 1
        counts["blocks"] = n_blocks
        yield from mpi.finalize()

    _run(8, 1, writer, reader, counts=counts)
    assert counts["blocks"] == 4  # only even writers produced data


def test_reader_fairness_across_writers():
    """No writer is starved: consumption interleaves across sources."""
    order = []

    def writer(mpi, order):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(block_size=32 * KIB)
        yield from st.open_map(mpi, vmap, "w")
        for i in range(10):
            yield from st.write(nbytes=32 * KIB, payload=mpi.rank)
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, order):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(block_size=32 * KIB)
        yield from st.open_map(mpi, vmap, "r")
        while True:
            n, payload = yield from st.read()
            if n == EOF:
                break
            order.append(payload)
        yield from mpi.finalize()

    _run(4, 1, writer, reader, order=order)
    # In the first half of consumption, every writer already appeared.
    first_half = set(order[: len(order) // 2])
    assert first_half == {0, 1, 2, 3}


def test_bidirectional_streams_between_partitions():
    """Two independent streams in opposite directions coexist."""
    results = {}

    def side_a(mpi, results):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        out_stream = VMPIStream(channel=10)
        in_stream = VMPIStream(channel=11)
        yield from out_stream.open_map(mpi, vmap, "w")
        yield from in_stream.open_map(mpi, vmap, "r")
        yield from out_stream.write(nbytes=1024, payload="request")
        yield from out_stream.close()
        n, payload = yield from in_stream.read()
        results["a_got"] = payload
        yield from mpi.finalize()

    def side_b(mpi, results):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        in_stream = VMPIStream(channel=10)
        out_stream = VMPIStream(channel=11)
        yield from in_stream.open_map(mpi, vmap, "r")
        yield from out_stream.open_map(mpi, vmap, "w")
        n, payload = yield from in_stream.read()
        results["b_got"] = payload
        yield from out_stream.write(nbytes=1024, payload="response")
        yield from out_stream.close()
        yield from mpi.finalize()

    _run(1, 1, side_a, side_b, results=results)
    assert results == {"b_got": "request", "a_got": "response"}


@pytest.mark.flow
def test_interleaved_writers_get_disjoint_flows_and_per_writer_attribution():
    """Provenance across a fan-in: disjoint flow-id spaces per writer and
    per-writer stage histograms that concatenate to exactly the global."""
    NWRITERS, PACKS = 4, 5

    def make_pack(flows, mpi, i):
        builder = EventPackBuilder(app_id=0, rank=mpi.rank, capacity_bytes=4096)
        builder.add(CallRecord(
            name="MPI_Send", t_start=mpi.now, t_end=mpi.now + 1e-6, comm_id=0,
            comm_rank=mpi.rank, comm_size=NWRITERS, peer=0, tag=i, nbytes=64,
        ))
        rec = flows.begin(
            app_id=0, rank=mpi.rank, global_rank=mpi.ctx.global_rank,
            t=mpi.ctx.kernel.now,
        )
        return builder.emit(provenance=PackProvenance(
            flow_id=rec.flow_id, app_id=rec.app_id,
            rank=rec.origin_rank, t_seal=rec.t_seal,
        ))

    def writer(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        st = VMPIStream(block_size=16 * KIB)
        yield from st.open_map(mpi, vmap, "w")
        flows = mpi.ctx.world.flows
        for i in range(PACKS):
            yield from st.write(nbytes=16 * KIB, payload=make_pack(flows, mpi, i))
            yield from mpi.compute(1e-5)  # interleave writers in time
        yield from st.close()
        yield from mpi.finalize()

    def reader(mpi, out):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        st = VMPIStream(block_size=16 * KIB)
        yield from st.open_map(mpi, vmap, "r")
        while True:
            n, payload = yield from st.read()
            if n == EOF:
                break
            out.append(payload)
        yield from st.close()
        yield from mpi.finalize()

    got = []
    launcher = VirtualizedLauncher(machine=MACHINE, seed=4)
    launcher.add_program("W", nprocs=NWRITERS, main=writer, out=got)
    launcher.add_program("Analyzer", nprocs=2, main=reader, out=got)
    world = launcher.launch()
    registry = FlowRegistry(seed=4)
    world.flows = registry
    world.run()

    assert len(got) == NWRITERS * PACKS
    records = list(registry.records())
    assert len(records) == NWRITERS * PACKS

    # Disjoint id spaces: every flow id decodes back to its own writer, and
    # each writer owns exactly PACKS consecutive sequence numbers.
    by_writer = {}
    for rec in records:
        app, rank, seq = split_flow_id(rec.flow_id)
        assert (app, rank) == (rec.app_id, rec.origin_rank)
        by_writer.setdefault(rank, set()).add(seq)
    assert set(by_writer) == set(range(NWRITERS))
    assert all(seqs == set(range(PACKS)) for seqs in by_writer.values())
    assert len({rec.flow_id for rec in records}) == len(records)

    # Every flow reached the reader (stream-level hops; no analyzer here).
    assert all(rec.t_read is not None for rec in records)

    # Per-writer stage histograms concatenate to exactly the global ones.
    global_samples = stage_samples(records)
    per_writer = per_writer_stage_samples(records)
    assert set(per_writer) == {(0, r) for r in range(NWRITERS)}
    for stage, samples in global_samples.items():
        merged = []
        for per in per_writer.values():
            merged.extend(per[stage])
        assert sorted(merged) == sorted(samples)
