"""Reduction stages: randomized round-trips, lossy invariants, chain rules."""

import struct

import numpy as np
import pytest

from repro.codec.frame import PackProvenance, build_frame, parse_frame
from repro.codec.stages import (
    REGISTERED_CHAINS,
    CodecChain,
    available_stages,
    build_chain,
    decode_chain,
)
from repro.errors import ConfigError, PackFormatError, UnknownCodecError
from repro.instrument.events import EVENT_DTYPE, EVENT_RECORD_SIZE, decode_events

pytestmark = pytest.mark.codec

RECORD_SIZE = EVENT_RECORD_SIZE


def _random_batch(rng: np.random.Generator, n: int) -> bytes:
    """n encoded events with realistic structure: repeated call sites and
    monotone (but jittered) timestamps — plus adversarial float fields."""
    ev = np.zeros(n, dtype=EVENT_DTYPE)
    if n:
        ev["call"] = rng.integers(0, 20, n)
        ev["comm_size"] = rng.choice([4, 16, 256], n)
        ev["peer"] = rng.integers(-1, 64, n)
        ev["tag"] = rng.integers(-1, 1000, n)
        ev["nbytes"] = rng.choice([0, 64, 4096, 10**7], n)
        t = np.cumsum(rng.random(n) * 1e-3)
        ev["t_start"] = t
        ev["t_end"] = t + rng.random(n) * 1e-5
        # Adversarial corner: exact zeros and huge magnitudes.
        if n > 2:
            ev["t_start"][0] = 0.0
            ev["t_end"][n // 2] = 1e300
    return ev.tobytes()


@pytest.mark.parametrize("spec", REGISTERED_CHAINS)
def test_registered_chains_roundtrip_exactly(spec):
    """200 seeded batches per chain: decode(encode(x)) == x, bit for bit."""
    rng = np.random.default_rng(hash(spec) % 2**32)
    chain = build_chain(spec)
    assert chain.lossless
    for trial in range(200):
        n = int(rng.integers(0, 60)) if trial % 10 else 0  # empty packs too
        records = _random_batch(rng, n)
        enc = chain.encode(records, now=float(trial))
        assert enc.count == n and enc.events_dropped == 0
        assert decode_chain(spec).decode(enc.payload, enc.count) == records


def test_roundtrip_survives_reframing_with_provenance():
    """Encoded payloads pass through frame build -> parse -> rebuild intact."""
    rng = np.random.default_rng(7)
    records = _random_batch(rng, 40)
    for spec in REGISTERED_CHAINS:
        enc = build_chain(spec).encode(records, now=0.0)
        blob = build_frame(0, 3, enc.count, enc.payload, codec=spec)
        # Re-frame (what provenance stamping does): parse, stamp, emit.
        frame = parse_frame(blob)
        frame.with_provenance(PackProvenance(flow_id=1, app_id=0, rank=3, t_seal=2.0))
        stamped = frame.to_bytes()
        reparsed = parse_frame(stamped)  # fresh CRC still verifies
        assert reparsed.codec == spec
        assert reparsed.provenance.flow_id == 1
        decoded = decode_chain(reparsed.codec).decode(reparsed.payload, reparsed.count)
        assert decoded == records


def test_decoded_events_match_originals():
    rng = np.random.default_rng(11)
    records = _random_batch(rng, 25)
    ref = decode_events(records, 25)
    for spec in ("delta", "dict+zlib", "delta+dict+zlib"):
        enc = build_chain(spec).encode(records, now=0.0)
        out = decode_events(decode_chain(spec).decode(enc.payload, 25), 25)
        assert np.array_equal(out, ref)


# -- lossy stages ------------------------------------------------------------------


def test_quant_bounds_duration_error():
    rng = np.random.default_rng(3)
    records = _random_batch(rng, 50)
    ref = decode_events(records, 50)
    q = 1e-6
    chain = build_chain(f"quant:{q}")
    assert not chain.lossless
    enc = chain.encode(records, now=0.0)
    out = decode_events(decode_chain(chain.spec).decode(enc.payload, 50), 50)
    assert np.array_equal(out["t_start"], ref["t_start"])  # starts untouched
    dur_ref = ref["t_end"] - ref["t_start"]
    dur_out = out["t_end"] - out["t_start"]
    finite = np.isfinite(dur_ref) & (dur_ref < 1e12)
    assert np.all(np.abs(dur_out[finite] - dur_ref[finite]) <= q / 2 + 1e-18)


def test_sample_stage_exact_drop_accounting():
    rng = np.random.default_rng(5)
    chain = build_chain("sample:1024")  # tiny budget: must drop
    kept_total = dropped_total = 0
    # Enough volume to exhaust the 64 KiB burst allowance, then some.
    for i in range(40):
        records = _random_batch(rng, 200)
        enc = chain.encode(records, now=float(i))
        assert enc.count + enc.events_dropped == 200  # exact accounting
        assert enc.count * RECORD_SIZE + enc.events_dropped * RECORD_SIZE == len(
            records
        )
        decoded = decode_chain("sample:1024").decode(enc.payload, enc.count)
        assert len(decoded) == enc.count * RECORD_SIZE
        kept_total += enc.count
        dropped_total += enc.events_dropped
    assert dropped_total > 0 and kept_total > 0


def test_sample_keeps_everything_under_budget():
    chain = build_chain("sample:1000000000")
    rng = np.random.default_rng(9)
    records = _random_batch(rng, 30)
    enc = chain.encode(records, now=0.0)
    assert enc.count == 30 and enc.events_dropped == 0
    assert enc.payload[-30 * RECORD_SIZE:] == records  # kept verbatim


# -- chain construction rules ------------------------------------------------------


def test_build_chain_accepts_string_and_sequence():
    assert build_chain("delta+zlib").spec == "delta+zlib"
    assert build_chain(["delta", "zlib"]).spec == "delta+zlib"
    assert build_chain(None).spec == ""
    assert build_chain("").spec == ""
    assert not build_chain("")


def test_unknown_stage_rejected():
    with pytest.raises(UnknownCodecError):
        build_chain("delta+wavelet")


def test_duplicate_stage_rejected():
    with pytest.raises(ConfigError):
        build_chain("delta+delta")


def test_phase_order_enforced():
    with pytest.raises(ConfigError):
        build_chain("zlib+delta")  # byte codec before columnar transform
    with pytest.raises(ConfigError):
        build_chain("delta+sample")  # record filter after columnar transform


def test_bad_stage_argument_rejected():
    with pytest.raises(ConfigError):
        build_chain("zlib:0")  # level out of range
    with pytest.raises(ConfigError):
        build_chain("quant:-1")


def test_decode_chain_is_cached_and_normalizing():
    assert decode_chain("delta+zlib") is decode_chain("delta+zlib")
    with pytest.raises(UnknownCodecError):
        decode_chain("not-a-codec")


def test_descriptor_mismatch_detected():
    """Decoding with the wrong chain raises instead of returning garbage."""
    rng = np.random.default_rng(13)
    records = _random_batch(rng, 20)
    enc = build_chain("delta+dict").encode(records, now=0.0)
    with pytest.raises(PackFormatError):
        decode_chain("delta").decode(enc.payload, 20)


def test_available_stages_lists_builtins():
    names = available_stages()
    for name in ("sample", "quant", "delta", "dict", "zlib"):
        assert name in names


def test_chain_cost_weight_accumulates():
    assert build_chain("").cost_weight == 0.0
    assert build_chain("delta+dict+zlib").cost_weight == pytest.approx(4.5)
    assert isinstance(build_chain("delta"), CodecChain)


# -- hostile payloads: typed rejects, never a bare traceback ----------------------


def _delta_payload(count: int, ts_stream: bytes, te_stream: bytes, ts_len=None) -> bytes:
    """A columnar container with raw sites and a hand-built delta time column."""
    sites = bytes(24 * count)
    ts_len = len(ts_stream) if ts_len is None else ts_len
    times = struct.pack("<I", ts_len) + ts_stream + te_stream
    return struct.pack("<BBII", 0, 1, count, len(sites)) + sites + times


_MALFORMED_DELTA = {
    # the reproduced crash: an 11-byte varint used to surface as OverflowError
    "overlong": (_delta_payload(1, b"\xff" * 10 + b"\x01", b"\x00"), 1, "varint longer than 10"),
    # ten bytes, but the last one carries bits 64 and up
    "overflow": (_delta_payload(1, b"\xff" * 9 + b"\x7f", b"\x00"), 1, "overflows 64 bits"),
    "t_start-short": (_delta_payload(2, b"\x01", b"\x00\x00"), 2, "varint stream truncated"),
    "t_start-open": (_delta_payload(2, b"\x01\x80", b""), 2, "varint stream truncated"),
    "t_end-short": (_delta_payload(2, b"\x01\x01", b"\x00"), 2, "varint stream truncated"),
    "declared-long": (
        _delta_payload(1, b"\x01\x01", b"\x00"),
        1,
        "delta t_start stream: 2 bytes declared, 1 consumed",
    ),
    "declared-past-end": (
        _delta_payload(1, b"\x01", b"\x00", ts_len=7),
        1,
        "delta t_start stream: 7 bytes declared, 1 consumed",
    ),
    "trailing": (_delta_payload(1, b"\x01", b"\x00\x00"), 1, "trailing bytes after delta t_end"),
    "trailing-open": (
        _delta_payload(1, b"\x01", b"\x00\x80"),
        1,
        "trailing bytes after delta t_end",
    ),
    "trailing-empty": (_delta_payload(0, b"", b"\x00"), 0, "trailing bytes after delta t_end"),
    "no-prefix": (_delta_payload(1, b"", b"")[:-2], 1, "shorter than its length prefix"),
}


@pytest.mark.parametrize("case", _MALFORMED_DELTA)
def test_malformed_delta_payload_is_a_typed_reject(case):
    payload, count, message = _MALFORMED_DELTA[case]
    with pytest.raises(PackFormatError, match=message):
        decode_chain("delta").decode(payload, count)
    # ... and the same through a CRC-valid frame, as the unpacker KS sees it.
    frame = parse_frame(build_frame(0, 0, count, payload, codec="delta"))
    with pytest.raises(PackFormatError, match=message):
        decode_chain(frame.codec).decode(frame.payload, frame.count)


def test_noncanonical_varints_still_decode():
    """Padding a varint with zero groups is legal LEB128; only >10 bytes is not."""
    payload = _delta_payload(1, b"\x82\x80\x00", b"\x80\x00")  # zigzag(2) = +1, then 0
    out = decode_events(decode_chain("delta").decode(payload, 1), 1)
    assert out["t_start"].view(np.int64)[0] == 1 and out["t_end"].view(np.int64)[0] == 1


def test_dict_index_into_empty_table_is_a_typed_reject():
    sites = struct.pack("<BI", 1, 0) + b"\x00"  # one index, zero table entries
    payload = struct.pack("<BBII", 1, 0, 1, len(sites)) + sites + bytes(16)
    with pytest.raises(PackFormatError, match="dict index out of table range"):
        decode_chain("dict").decode(payload, 1)


def test_encode_reads_the_callers_buffer_without_keeping_it():
    """The packer releases its view right after encode; nothing may still export it."""
    rng = np.random.default_rng(17)
    records = _random_batch(rng, 30)
    for spec in REGISTERED_CHAINS + ("quant", "sample:1000000000", "sample:1+quant"):
        buf = bytearray(records)
        view = memoryview(buf)
        enc = build_chain(spec).encode(view, now=0.0)
        view.release()  # BufferError if an array over the view outlived encode
        buf[:] = bytes(len(buf))  # the payload owns its bytes
        assert isinstance(enc.payload, bytes) and buf != records
        if build_chain(spec).lossless:
            assert decode_chain(spec).decode(enc.payload, enc.count) == records
