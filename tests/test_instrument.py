"""Event records, pack wire format, cost model, streaming interceptor."""

import struct

import pytest

from repro.codec.frame import (
    CRC_BODY_SIZE,
    FRAME_HEADER_SIZE,
    SECTION_HEADER_SIZE,
)
from repro.errors import ConfigError, InstrumentationError, PackFormatError
from repro.instrument import (
    CALL_IDS,
    EVENT_DTYPE,
    EVENT_RECORD_SIZE,
    EventPackBuilder,
    InstrumentationCost,
    PACK_HEADER_SIZE,
    call_id,
    decode_events,
    decode_pack,
    encode_event,
)
from repro.mpi.pmpi import CallRecord

def _frame_size(nrecords: int) -> int:
    """Physical v2 frame bytes around an n-record identity payload."""
    return (
        FRAME_HEADER_SIZE
        + SECTION_HEADER_SIZE + nrecords * EVENT_RECORD_SIZE
        + SECTION_HEADER_SIZE + CRC_BODY_SIZE
    )


def _record(name="MPI_Send", peer=3, tag=7, nbytes=1024, t0=1.0, t1=1.5, size=16):
    return CallRecord(
        name=name,
        t_start=t0,
        t_end=t1,
        comm_id=0,
        comm_rank=0,
        comm_size=size,
        peer=peer,
        tag=tag,
        nbytes=nbytes,
    )


class TestEvents:
    def test_record_size_is_40_bytes(self):
        assert EVENT_RECORD_SIZE == 40
        assert EVENT_DTYPE.itemsize == 40

    def test_encode_decode_roundtrip(self):
        blob = encode_event(_record())
        events = decode_events(blob)
        assert len(events) == 1
        e = events[0]
        assert e["call"] == CALL_IDS["MPI_Send"]
        assert e["peer"] == 3 and e["tag"] == 7
        assert e["nbytes"] == 1024
        assert e["comm_size"] == 16
        assert e["t_start"] == 1.0 and e["t_end"] == 1.5

    def test_negative_peer_and_tag_survive(self):
        blob = encode_event(_record(name="MPI_Allreduce", peer=-1, tag=-1))
        e = decode_events(blob)[0]
        assert e["peer"] == -1 and e["tag"] == -1

    def test_unknown_call_rejected(self):
        with pytest.raises(InstrumentationError):
            call_id("MPI_Bogus")
        with pytest.raises(InstrumentationError):
            encode_event(_record(name="MPI_Bogus"))

    def test_decode_partial_buffer_rejected(self):
        blob = encode_event(_record())[:-1]
        with pytest.raises(InstrumentationError):
            decode_events(blob)

    def test_decode_count_overrun_rejected(self):
        blob = encode_event(_record())
        with pytest.raises(InstrumentationError):
            decode_events(blob, count=2)

    def test_decode_is_zero_copy_view(self):
        blob = encode_event(_record()) * 3
        events = decode_events(blob)
        assert len(events) == 3
        assert events.base is not None  # view, not copy


class TestPackBuilder:
    def test_header_roundtrip(self):
        pb = EventPackBuilder(app_id=2, rank=17, capacity_bytes=4096)
        for _ in range(5):
            pb.add(_record())
        blob = pb.emit()
        header, events = decode_pack(blob)
        assert header.app_id == 2 and header.rank == 17 and header.count == 5
        assert len(events) == 5
        assert len(blob) == _frame_size(5)

    def test_full_flag_at_capacity(self):
        capacity = PACK_HEADER_SIZE + 3 * EVENT_RECORD_SIZE
        pb = EventPackBuilder(app_id=0, rank=0, capacity_bytes=capacity)
        assert pb.add(_record()) is False
        assert pb.add(_record()) is False
        assert pb.add(_record()) is True
        assert pb.full

    def test_add_packs_the_same_bytes_as_encode_event(self):
        """add() packs with one inlined call; the wire record is encode_event's."""
        records = [
            _record(),
            _record(name="MPI_Allreduce", peer=-1, tag=-1),
            _record(name="MPI_Barrier", size=-3),  # clamped to 0 on the wire
        ]
        pb = EventPackBuilder(app_id=0, rank=0)
        for record in records:
            pb.add(record)
        assert bytes(pb._buf[: 3 * EVENT_RECORD_SIZE]) == b"".join(map(encode_event, records))

    def test_add_rejects_unknown_call_without_consuming_a_slot(self):
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(_record())
        with pytest.raises(InstrumentationError, match="unknown MPI call name 'MPI_Bogus'"):
            pb.add(_record(name="MPI_Bogus"))
        assert pb.count == 1 and pb.total_events == 1

    def test_record_buffer_grows_on_demand_to_capacity(self):
        """A fresh builder holds 64 records, doubles as add() runs short and
        stops at the pack capacity; the grown pack decodes record for record."""
        capacity = PACK_HEADER_SIZE + 300 * EVENT_RECORD_SIZE
        pb = EventPackBuilder(app_id=0, rank=0, capacity_bytes=capacity)
        assert len(pb._buf) == 64 * EVENT_RECORD_SIZE
        sizes = set()
        records = [_record(tag=i, t0=float(i), t1=i + 0.5) for i in range(300)]
        for i, record in enumerate(records):
            assert pb.add(record) is (i == 299)
            sizes.add(len(pb._buf) // EVENT_RECORD_SIZE)
        assert sorted(sizes) == [64, 128, 256, 300]
        _header, events = decode_pack(pb.emit())
        assert events["tag"].tolist() == list(range(300))
        assert events["t_end"].tolist() == [i + 0.5 for i in range(300)]
        # Steady state: the grown buffer is reused, never reallocated.
        buf = pb._buf
        for record in records:
            pb.add(record)
        assert pb._buf is buf and len(buf) == 300 * EVENT_RECORD_SIZE

    def test_small_capacity_starts_at_capacity(self):
        pb = EventPackBuilder(
            app_id=0, rank=0, capacity_bytes=PACK_HEADER_SIZE + 3 * EVENT_RECORD_SIZE
        )
        assert len(pb._buf) == 3 * EVENT_RECORD_SIZE

    def test_add_past_capacity_still_raises_struct_error(self):
        pb = EventPackBuilder(
            app_id=0, rank=0, capacity_bytes=PACK_HEADER_SIZE + 2 * EVENT_RECORD_SIZE
        )
        pb.add(_record())
        assert pb.add(_record()) is True
        with pytest.raises(struct.error):
            pb.add(_record())
        assert pb.count == 2 and len(pb._buf) == 2 * EVENT_RECORD_SIZE

    def test_out_of_range_field_reraises_without_growing(self):
        """Only a short buffer is retried: any other struct.error is the
        caller's, with the buffer and the cursor left alone."""
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(_record())
        with pytest.raises(struct.error):
            pb.add(_record(peer=2**40))
        assert pb.count == 1 and len(pb._buf) == 64 * EVENT_RECORD_SIZE
        # ... also when the bad record arrives exactly where growth is due.
        for _ in range(63):
            pb.add(_record())
        with pytest.raises(struct.error):
            pb.add(_record(peer=2**40))
        assert pb.count == 64
        pb.add(_record())
        assert pb.count == 65

    @pytest.mark.parametrize("spec", ["delta+dict", "sample:0.5", "quant"])
    def test_emit_releases_every_view_so_the_next_add_can_grow(self, spec):
        """bytearray cannot resize while a view is exported: after a partial
        pack went through a chain (whose EncodeResult the builder keeps as
        ``last_encode``), adding past the current size must still grow."""
        from repro.codec.stages import build_chain

        pb = EventPackBuilder(app_id=0, rank=0, chain=build_chain(spec))
        for i in range(10):
            pb.add(_record(t0=float(i), t1=i + 0.25))
        pb.emit(now=10.0)
        assert pb.last_encode is not None
        for i in range(200):
            pb.add(_record(t0=float(i), t1=i + 0.25))
        assert pb.count == 200 and len(pb._buf) == 256 * EVENT_RECORD_SIZE
        _header, events = decode_pack(pb.emit(now=200.0))
        assert len(events) + pb.last_encode.events_dropped == 200

    def test_emit_resets(self):
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(_record())
        pb.emit()
        assert pb.count == 0
        header, events = decode_pack(pb.emit())
        assert header.count == 0 and len(events) == 0
        assert pb.packs_emitted == 2
        assert pb.total_events == 1

    def test_capacity_validation(self):
        with pytest.raises(PackFormatError):
            EventPackBuilder(app_id=0, rank=0, capacity_bytes=10)

    def test_id_bounds(self):
        with pytest.raises(PackFormatError):
            EventPackBuilder(app_id=2**16, rank=0)
        with pytest.raises(PackFormatError):
            EventPackBuilder(app_id=0, rank=2**32)

    def test_decode_rejects_bad_magic(self):
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(_record())
        blob = bytearray(pb.emit())
        blob[0] ^= 0xFF
        with pytest.raises(PackFormatError, match="magic"):
            decode_pack(bytes(blob))

    def test_decode_rejects_truncated(self):
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(_record())
        blob = pb.emit()
        with pytest.raises(PackFormatError):
            decode_pack(blob[:-5])
        with pytest.raises(PackFormatError):
            decode_pack(blob[: PACK_HEADER_SIZE - 2])

    def test_decode_rejects_bad_version(self):
        pb = EventPackBuilder(app_id=0, rank=0)
        blob = bytearray(pb.emit())
        struct.pack_into("<H", blob, 4, 99)
        with pytest.raises(PackFormatError, match="version"):
            decode_pack(bytes(blob))


class TestInstrumentationCost:
    def test_defaults_valid(self):
        cost = InstrumentationCost()
        assert cost.per_event_cpu > 0
        assert cost.volume_multiplier >= 1.0

    def test_modeled_bytes(self):
        cost = InstrumentationCost(volume_multiplier=2.0)
        assert cost.modeled_bytes(100) == 200

    def test_validation(self):
        with pytest.raises(ConfigError):
            InstrumentationCost(per_event_cpu=-1)
        with pytest.raises(ConfigError):
            InstrumentationCost(volume_multiplier=0.5)
        with pytest.raises(ConfigError):
            InstrumentationCost(block_size=16)
        with pytest.raises(ConfigError):
            InstrumentationCost(na_buffers=0)


class TestStreamingInterceptor:
    def _run_session(self, machine, iterations=3, **cost_kw):
        from repro.apps.nas import CG
        from repro.core.session import CouplingSession

        session = CouplingSession(
            machine=machine,
            seed=0,
            instrumentation=InstrumentationCost(**cost_kw) if cost_kw else None,
        )
        name = session.add_application(CG(8, "C", iterations=iterations))
        session.set_analyzer(ratio=1.0)
        return name, session.run()

    def test_every_call_captured(self, big_machine):
        name, result = self._run_session(big_machine)
        run = result.app(name)
        # Events were captured and fully delivered to the analyzer.
        assert run.events > 0
        profile = result.report.chapter(name).profile
        assert profile.events_total == run.events

    def test_small_blocks_mean_more_packs(self, big_machine):
        _, result_big = self._run_session(
            big_machine, iterations=40, block_size=1024 * 1024
        )
        _, result_small = self._run_session(big_machine, iterations=40, block_size=4096)
        big_packs = list(result_big.apps.values())[0].packs
        small_packs = list(result_small.apps.values())[0].packs
        assert small_packs > big_packs

    def test_modeled_volume_tracks_multiplier(self, big_machine):
        name1, r1 = self._run_session(big_machine, volume_multiplier=1.0)
        name2, r2 = self._run_session(big_machine, volume_multiplier=3.0)
        v1 = r1.app(name1).modeled_stream_bytes
        v2 = r2.app(name2).modeled_stream_bytes
        assert v2 > 2.5 * v1

    def test_zero_cost_instrumentation_has_tiny_overhead(self, big_machine):
        from repro.apps.nas import CG
        from repro.core.session import CouplingSession

        session = CouplingSession(
            machine=big_machine,
            instrumentation=InstrumentationCost(
                per_event_cpu=0.0, pack_flush_cpu=0.0
            ),
        )
        name = session.add_application(CG(8, "C", iterations=3))
        session.set_analyzer(ratio=1.0)
        instrumented = session.run().app(name).walltime
        reference = session.run_reference().app(name).walltime
        assert instrumented <= reference * 1.05
