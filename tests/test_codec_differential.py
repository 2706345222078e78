"""Vectorised reduction stages vs the frozen scalar reference (ROADMAP 4b).

``src/repro/codec/stages.py`` holds one implementation — array ops over
the record buffer.  ``tests/_codec_reference.py`` holds the per-record
loops and the ``np.unique(axis=0)`` dictionary encoder it replaced.  Over
a seeded corpus and Hypothesis-drawn batches the two must agree on every
encoded byte and every decoded record, for every registered chain plus
the lossy ``sample:0.5+quant+delta+dict``; a small table of SHA-256s pins
the wire inside tier-1.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _codec_reference as ref
from repro.codec import stages
from repro.codec.stages import REGISTERED_CHAINS, build_chain, decode_chain

pytestmark = pytest.mark.codec

CHAINS = REGISTERED_CHAINS + ("sample:0.5+quant+delta+dict",)
COUNTS = (0, 1, 2, 255, 256, 257, 409)
BIG_COUNT = 65_537  # one more site than a 2-byte index can address

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

#: u64 values on both sides of every varint length boundary.
VARINT_EDGES = sorted(
    {0, 1, 2**64 - 1}
    | {2 ** (7 * k) + d for k in range(1, 10) for d in (-1, 0, 1)}
)

#: int64 deltas whose zigzag images sit on those boundaries, plus the extremes.
DELTA_EDGES = sorted(
    {0, 1, -1, INT64_MIN, INT64_MAX}
    | {s * (2 ** (7 * k - 1) + d) for k in range(1, 10) for d in (-1, 0, 1) for s in (1, -1)}
)


# -- corpus ------------------------------------------------------------------------


def _sites(mode: str, n: int) -> np.ndarray:
    """``(n, 24)`` call-site prefixes: one, seven, or ``n`` distinct rows."""
    i = np.arange(n, dtype=np.uint64)
    key = {"identical": i * 0, "few": i % 7, "distinct": i}[mode]
    sites = np.zeros((n, 24), dtype=np.uint8)
    # Little-endian fields, so numeric order and byte-lexicographic order
    # disagree: the table order has to come from the bytes.
    sites[:, 4:8] = key.astype("<u4").view(np.uint8).reshape(n, 4)  # peer
    sites[:, 16:24] = (key * 2654435761 % 2**40).astype("<u8").view(np.uint8).reshape(n, 8)
    sites[:, 0] = key % 25  # call id
    return sites


def _times(mode: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t_start, t_end)`` as int64 IEEE-754 bit patterns."""
    i = np.arange(n, dtype=np.int64)
    if mode == "edges":  # every boundary delta, by wrapping int64 prefix sums
        d = np.array(DELTA_EDGES, dtype=np.int64)
        start = np.cumsum(d[i % d.size])
        return start, start + d[(i * 7 + 3) % d.size]
    if mode == "monotone":
        start = 1.5 + np.cumsum(((i * 2654435761) % 997 + 1) * 1e-6)
    else:  # "jitter": realistic magnitudes, not monotone
        start = 2.0 + ((i * 7919) % 1013) * 1e-4
    end = start + ((i * 40503) % 613) * 1e-7
    return start.view(np.int64), end.view(np.int64)


def make_records(n: int, site_mode: str, time_mode: str) -> bytes:
    rows = np.empty((n, 40), dtype=np.uint8)
    rows[:, :24] = _sites(site_mode, n)
    bits = rows[:, 24:].view("<i8")
    bits[:, 0], bits[:, 1] = _times(time_mode, n)
    return rows.tobytes()


def _corpus(lossy: bool):
    # The lossy chain does float arithmetic on durations; arbitrary bit
    # patterns (NaNs, infinities) are for the lossless stages only.
    time_modes = ("monotone", "jitter") if lossy else ("edges", "monotone", "jitter")
    for n in COUNTS:
        for site_mode in ("identical", "few", "distinct"):
            for time_mode in time_modes:
                yield n, site_mode, time_mode


def _assert_same(spec: str, records: bytes, new, old, now: float) -> None:
    # The packer hands the chain a view of a mutable buffer; do the same.
    enc = new.encode(memoryview(bytearray(records)), now=now)
    payload, count, dropped = old.encode(records, now=now)
    assert type(enc.payload) is bytes
    assert enc.payload == payload
    assert (enc.count, enc.events_dropped) == (count, dropped)
    decoded = decode_chain(spec).decode(memoryview(enc.payload), enc.count)
    assert decoded == old.decode(payload, count)
    if new.lossless:
        assert decoded == records


@pytest.mark.parametrize("spec", CHAINS)
def test_seeded_corpus_matches_reference(spec):
    new, old = build_chain(spec), ref.ReferenceChain(spec)
    for step, (n, site_mode, time_mode) in enumerate(_corpus(lossy=not new.lossless)):
        records = make_records(n, site_mode, time_mode)
        # One stateful chain per side across the corpus: the sampler's
        # budget is carried from batch to batch on both.
        _assert_same(spec, records, new, old, now=step * 0.25)


@pytest.mark.parametrize("spec", CHAINS)
def test_four_byte_index_matches_reference(spec):
    """65 537 distinct sites: the widest dictionary index, the longest streams."""
    lossless = build_chain(spec).lossless
    records = make_records(BIG_COUNT, "distinct", "edges" if lossless else "jitter")
    _assert_same(spec, records, build_chain(spec), ref.ReferenceChain(spec), now=0.0)


def test_index_widths_are_one_two_four():
    for n, width in ((256, 1), (257, 2), (65_536, 2), (BIG_COUNT, 4)):
        payload = build_chain("dict").encode(make_records(n, "distinct", "jitter")).payload
        assert payload[10] == width  # first byte of the site stream


# -- helpers, value by value -------------------------------------------------------


def _varint_bytes(values) -> bytes:
    out, _ = stages._pack_varints(np.array(values, dtype=np.uint64))
    return out.tobytes()


def test_varint_edges_match_reference():
    assert _varint_bytes(VARINT_EDGES) == ref._encode_varints(VARINT_EDGES)
    for v in VARINT_EDGES:
        assert _varint_bytes([v]) == ref._encode_varints([v])


def test_zigzag_edges_match_reference():
    v = np.array(DELTA_EDGES, dtype=np.int64)
    z = stages._zigzag(v)
    assert z.tolist() == [ref._zigzag(x) for x in DELTA_EDGES]
    assert stages._unzigzag(z).tolist() == [ref._unzigzag(x) for x in z.tolist()]
    assert np.array_equal(stages._unzigzag(z), v)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
@settings(max_examples=150, deadline=None)
def test_varint_roundtrip_matches_reference(values):
    data = _varint_bytes(values)
    assert data == ref._encode_varints(values)
    a = np.frombuffer(data, dtype=np.uint8)
    decoded = stages._unpack_varints(a, np.flatnonzero(a < 0x80))
    assert decoded.tolist() == ref._decode_varints(data, len(values))[0] == values


_int64 = st.integers(INT64_MIN, INT64_MAX) | st.sampled_from(DELTA_EDGES)
_record = st.tuples(st.integers(0, 5), _int64, _int64)


@given(st.lists(_record, max_size=80), st.sampled_from(REGISTERED_CHAINS))
@settings(max_examples=200, deadline=None)
def test_drawn_batches_match_reference(rows, spec):
    n = len(rows)
    batch = np.zeros((n, 40), dtype=np.uint8)
    if n:
        site, t_start, t_end = zip(*rows)
        batch[:, 4] = site
        bits = batch[:, 24:].view("<i8")
        bits[:, 0], bits[:, 1] = t_start, t_end
    _assert_same(spec, batch.tobytes(), build_chain(spec), ref.ReferenceChain(spec), 0.0)


# -- the wire, pinned --------------------------------------------------------------

#: SHA-256 of each chain's payloads over the seeded corpus, concatenated,
#: computed with the scalar reference at the commit that froze it.  A zlib
#: chain is hashed after inflating and so shares the entry of the chain
#: before it: the table pins this repository's bytes, not the host's zlib.
WIRE_SHA256 = {
    "": "50ecc007a3f2c9c46b6ad32db4181bd29f896bba4d366448ce1262f420fd71ed",
    "delta": "943e63c7bf8f6f51bfc0642c8b40d98767a6cf9962b171980c77b798a200ee66",
    "dict": "be8b54335dc1ddb5576560768a93e82d653215df8687a4d074797e164f6cc435",
    "delta+dict": "fd609ce7bf33da9b5974e8efbf637ddadbc620f4e8d099841278fbf06e319f0f",
    "sample:0.5+quant+delta+dict": (
        "cd4b716f1e3556d267a9775d03238109a6e73b610490f73431425cca6b0cf528"
    ),
}


@pytest.mark.parametrize("spec", CHAINS)
def test_wire_bytes_are_pinned(spec):
    chain = build_chain(spec)
    tokens = spec.split("+")
    digest = hashlib.sha256()
    for step, (n, site_mode, time_mode) in enumerate(_corpus(lossy=not chain.lossless)):
        payload = chain.encode(make_records(n, site_mode, time_mode), now=step * 0.25).payload
        digest.update(zlib.decompress(payload) if "zlib" in tokens else payload)
    assert digest.hexdigest() == WIRE_SHA256["+".join(t for t in tokens if t != "zlib")]
