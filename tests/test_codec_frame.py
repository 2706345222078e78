"""v2 pack frame: wire layout, typed decode errors, rejection accounting."""

import struct

import pytest

from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.codec.frame import (
    CRC_BODY_SIZE,
    FRAME_HEADER_SIZE,
    SEC_CRC,
    SEC_PAYLOAD,
    SEC_PROVENANCE,
    SECTION_HEADER_SIZE,
    PackProvenance,
    build_frame,
    frame_content_size,
    parse_frame,
    peek_header,
    peek_provenance,
    section_name,
)
from repro.errors import (
    ChecksumError,
    FrameTruncatedError,
    PackFormatError,
    SectionLengthError,
    UnknownCodecError,
)
from repro.instrument.events import encode_event
from repro.instrument.packer import decode_pack, verify_pack
from repro.mpi.pmpi import CallRecord

pytestmark = pytest.mark.codec


def _records(n):
    return b"".join(
        encode_event(CallRecord(
            name="MPI_Send", t_start=i * 1e-3, t_end=i * 1e-3 + 2e-6, comm_id=0,
            comm_rank=0, comm_size=4, peer=1, tag=i, nbytes=64,
        ))
        for i in range(n)
    )


def _frame(n=3, app_id=1, **kw):
    return build_frame(app_id, 2, n, _records(n), **kw)


def _insert_section(blob: bytes, stype: int, body: bytes) -> bytes:
    """Splice a raw section in front of the CRC section, bumping nsections."""
    frame = parse_frame(blob)
    nsections = len(frame.sections) + 2  # + new one + CRC
    crc_at = len(blob) - (SECTION_HEADER_SIZE + CRC_BODY_SIZE)
    head = bytearray(blob[:crc_at])
    struct.pack_into("<H", head, 16, nsections)
    head += struct.pack("<HHI", stype, 0, len(body)) + body
    import zlib

    return bytes(head) + struct.pack("<HHI", SEC_CRC, 0, 4) + struct.pack(
        "<I", zlib.crc32(bytes(head))
    )


# -- structure ---------------------------------------------------------------------


def test_minimal_frame_is_header_payload_crc():
    blob = _frame(2)
    assert len(blob) == (
        FRAME_HEADER_SIZE
        + SECTION_HEADER_SIZE + 2 * 40
        + SECTION_HEADER_SIZE + CRC_BODY_SIZE
    )
    frame = parse_frame(blob)
    assert (frame.app_id, frame.rank, frame.count) == (1, 2, 2)
    assert frame.codec == "" and frame.provenance is None
    assert frame.crc_ok is True


def test_parse_emit_is_byte_stable():
    blob = _frame(
        4,
        codec="delta+zlib",
        provenance=PackProvenance(flow_id=9, app_id=1, rank=2, t_seal=0.5),
        events_dropped=3,
    )
    assert parse_frame(blob).to_bytes() == blob


def test_content_size_ignores_optional_sections():
    plain = _frame(5)
    stamped = _frame(
        5, codec="zlib", provenance=PackProvenance(7, 1, 2, 1.0), events_dropped=1
    )
    assert frame_content_size(plain) == frame_content_size(stamped) == 16 + 5 * 40


def test_peek_header_reads_only_the_header():
    blob = _frame(3)
    info = peek_header(blob[:FRAME_HEADER_SIZE])  # sections absent: still fine
    assert (info.app_id, info.rank, info.count) == (1, 2, 3)


def test_section_names():
    assert section_name(SEC_PAYLOAD) == "PAYLOAD"
    assert section_name(99) == "UNKNOWN(99)"


# -- typed decode errors -----------------------------------------------------------


def test_truncated_header_rejected():
    with pytest.raises(FrameTruncatedError):
        parse_frame(_frame()[: FRAME_HEADER_SIZE - 1])


def test_truncated_section_rejected():
    blob = _frame(3)
    with pytest.raises(FrameTruncatedError):
        parse_frame(blob[:-1])
    with pytest.raises(FrameTruncatedError):
        parse_frame(blob[: FRAME_HEADER_SIZE + 3])


def test_bad_magic_and_version_rejected():
    blob = bytearray(_frame())
    blob[0] ^= 0xFF
    with pytest.raises(PackFormatError, match="magic"):
        parse_frame(bytes(blob))
    blob = bytearray(_frame())
    struct.pack_into("<H", blob, 4, 99)
    with pytest.raises(PackFormatError, match="version"):
        parse_frame(bytes(blob))


def test_trailing_garbage_rejected():
    with pytest.raises(SectionLengthError):
        parse_frame(_frame() + b"xx")


def test_bad_provenance_length_rejected():
    blob = _insert_section(_frame(), SEC_PROVENANCE, b"\x00" * 10)
    with pytest.raises(SectionLengthError):
        parse_frame(blob)


def test_crc_mismatch_rejected_and_recorded():
    blob = bytearray(_frame(3))
    blob[FRAME_HEADER_SIZE + SECTION_HEADER_SIZE + 5] ^= 0xFF
    with pytest.raises(ChecksumError):
        parse_frame(bytes(blob))
    frame = parse_frame(bytes(blob), verify=False)  # diagnostics still work
    assert frame.crc_ok is False and frame.stored_crc is not None


def test_missing_crc_rejected():
    frame = parse_frame(_frame())
    naked = frame.to_bytes()[: -(SECTION_HEADER_SIZE + CRC_BODY_SIZE)]
    fixed = bytearray(naked)
    struct.pack_into("<H", fixed, 16, len(frame.sections))  # honest nsections
    with pytest.raises(ChecksumError, match="no CRC"):
        parse_frame(bytes(fixed))


def test_unknown_codec_rejected():
    blob = _frame(3, codec="quantum-entangler")
    with pytest.raises(UnknownCodecError):
        verify_pack(blob)
    with pytest.raises(UnknownCodecError):
        decode_pack(blob)


def test_not_bytes_rejected():
    with pytest.raises(PackFormatError, match="not bytes"):
        parse_frame(12345)


def test_all_decode_errors_are_pack_format_errors():
    for exc in (FrameTruncatedError, SectionLengthError, ChecksumError,
                UnknownCodecError):
        assert issubclass(exc, PackFormatError)


# -- forward compatibility ---------------------------------------------------------


def test_unknown_section_is_skipped_and_preserved():
    blob = _insert_section(_frame(3), 77, b"future-data")
    frame = parse_frame(blob)  # no error: unknown types are tolerated
    assert frame.section(77) == b"future-data"
    assert frame.count == 3
    header, events = decode_pack(blob)  # decoding ignores it entirely
    assert header.count == 3 and len(events) == 3
    # ... and it survives a parse -> emit round trip.
    assert parse_frame(frame.to_bytes()).section(77) == b"future-data"


# -- provenance peeks never raise --------------------------------------------------


def test_peek_provenance_robustness():
    assert peek_provenance(b"") is None
    assert peek_provenance(None) is None
    assert peek_provenance(_frame()) is None
    stamped = _frame(2, provenance=PackProvenance(0xAB, 1, 2, 3.5))
    prov = peek_provenance(stamped)
    assert (prov.flow_id, prov.app_id, prov.rank, prov.t_seal) == (0xAB, 1, 2, 3.5)
    corrupt = bytearray(stamped)
    corrupt[-1] ^= 0xFF
    assert peek_provenance(bytes(corrupt)) is not None  # CRC not required to peek


# -- rejection accounting in the analyzer ------------------------------------------


class TestEngineRejection:
    def _engine(self, **cfg):
        return AnalyzerEngine([("app", 4)], AnalysisConfig(**cfg))

    def _reject(self, engine, blob, cause):
        before = engine.packs_rejected
        assert engine.ingest(blob) is False
        assert engine.packs_rejected == before + 1
        assert engine.rejects_by_cause.get(cause, 0) >= 1

    def test_each_error_counted_by_cause(self):
        engine = self._engine()
        self._reject(engine, _frame(app_id=0)[:10], "FrameTruncatedError")
        self._reject(engine, _frame(app_id=0) + b"!", "SectionLengthError")
        bad_crc = bytearray(_frame(app_id=0))
        bad_crc[FRAME_HEADER_SIZE + SECTION_HEADER_SIZE] ^= 0xFF
        self._reject(engine, bytes(bad_crc), "ChecksumError")
        self._reject(engine, _frame(app_id=0, codec="no-such-codec"),
                     "UnknownCodecError")
        assert engine.packs_rejected == 4
        assert sum(engine.rejects_by_cause.values()) == 4
        assert engine.packs_ingested == 0

    def test_accept_codecs_gate(self):
        engine = self._engine(accept_codecs=("delta",))
        self._reject(engine, _frame(app_id=0), "UnknownCodecError")
        engine2 = self._engine(accept_codecs=("", "delta"))
        assert engine2.ingest(_frame(app_id=0)) is True

    def test_healthy_pack_accepted(self):
        engine = self._engine()
        assert engine.ingest(_frame(5, app_id=0)) is True
        assert engine.packs_rejected == 0
        assert engine.bytes_wire_ingested == len(_frame(5, app_id=0))
        assert engine.codecs_seen == {"identity": 1}
