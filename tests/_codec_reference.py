"""Frozen scalar reference for the reduction stages — a test oracle only.

This is the pre-vectorisation ``repro.codec.stages`` (PR 11 state) kept
verbatim: the per-record ``_encode_varints`` / ``_decode_varints`` /
``_zigzag`` / ``_unzigzag`` loops, the ``np.unique(axis=0)`` dictionary
encoder and the bytes-copying columnar container.  ``src/`` holds exactly
one implementation (array ops over the record buffer); this module exists
so ``tests/test_codec_differential.py`` can hold that implementation to
the same wire bytes and the same decoded records.  Do not optimise it and
do not import it from ``src/``.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, PackFormatError

RECORD_SIZE = 40  # matches instrument.events.EVENT_RECORD_SIZE (asserted there)
_SITE_BYTES = 24  # the non-temporal record prefix ("call site")
_TIME_BYTES = 16  # t_start + t_end, two little-endian f64

# A record is the 24-byte call-site prefix followed by the two timestamps.
_REC_DTYPE = np.dtype(
    {
        "names": ["site", "t_start", "t_end"],
        "formats": ["V24", "<f8", "<f8"],
        "offsets": [0, _SITE_BYTES, _SITE_BYTES + 8],
        "itemsize": RECORD_SIZE,
    }
)

SITE_RAW, SITE_DICT = 0, 1
TIME_RAW, TIME_DELTA = 0, 1
_COL_FMT = "<BBII"  # site_enc, time_enc, count, sites_len
_COL_STRUCT = struct.Struct(_COL_FMT)
_COL_HEADER_SIZE = _COL_STRUCT.size


@dataclass
class CodecContext:
    """Per-encode state threaded through the stages of one pack seal."""

    now: float = 0.0
    events_dropped: int = 0


@dataclass
class Columnar:
    """The split record batch phase-1 stages transform.

    ``sites`` and ``times`` each carry their own encoding tag, so the
    container is self-describing and a decoder can detect when the chain
    it was asked to apply does not match the bytes in front of it.
    """

    count: int
    site_enc: int
    time_enc: int
    sites: bytes
    times: bytes

    def serialize(self) -> bytes:
        return (
            _COL_STRUCT.pack(
                self.site_enc, self.time_enc, self.count, len(self.sites)
            )
            + self.sites
            + self.times
        )

    @classmethod
    def parse(cls, data: bytes) -> "Columnar":
        if len(data) < _COL_HEADER_SIZE:
            raise PackFormatError(
                f"columnar container of {len(data)} bytes shorter than header"
            )
        site_enc, time_enc, count, sites_len = _COL_STRUCT.unpack_from(data, 0)
        body = data[_COL_HEADER_SIZE:]
        if sites_len > len(body):
            raise PackFormatError(
                f"columnar sites length {sites_len} exceeds body of {len(body)} bytes"
            )
        return cls(
            count=count,
            site_enc=site_enc,
            time_enc=time_enc,
            sites=bytes(body[:sites_len]),
            times=bytes(body[sites_len:]),
        )


def _split_columnar(records: bytes) -> Columnar:
    count = len(records) // RECORD_SIZE
    arr = np.frombuffer(records, dtype=_REC_DTYPE)
    times = np.empty((count, 2), dtype="<f8")
    times[:, 0] = arr["t_start"]
    times[:, 1] = arr["t_end"]
    return Columnar(
        count=count,
        site_enc=SITE_RAW,
        time_enc=TIME_RAW,
        sites=arr["site"].tobytes(),
        times=times.tobytes(),
    )


def _reassemble(col: Columnar) -> bytes:
    if col.site_enc != SITE_RAW or col.time_enc != TIME_RAW:
        raise PackFormatError(
            "codec descriptor mismatch: columnar payload still encoded "
            f"(site_enc={col.site_enc}, time_enc={col.time_enc}) after chain decode"
        )
    if len(col.sites) != col.count * _SITE_BYTES:
        raise PackFormatError(
            f"columnar sites of {len(col.sites)} bytes, "
            f"count {col.count} implies {col.count * _SITE_BYTES}"
        )
    if len(col.times) != col.count * _TIME_BYTES:
        raise PackFormatError(
            f"columnar times of {len(col.times)} bytes, "
            f"count {col.count} implies {col.count * _TIME_BYTES}"
        )
    out = np.empty(col.count, dtype=_REC_DTYPE)
    out["site"] = np.frombuffer(col.sites, dtype="V24")
    times = np.frombuffer(col.times, dtype="<f8").reshape(col.count, 2)
    out["t_start"] = times[:, 0]
    out["t_end"] = times[:, 1]
    return out.tobytes()


def _encode_varints(values) -> bytes:
    out = bytearray()
    for v in values:
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _decode_varints(data: bytes, count: int) -> tuple[list[int], int]:
    """Decode exactly ``count`` varints; returns (values, bytes consumed)."""
    values: list[int] = []
    pos = 0
    total = len(data)
    for _ in range(count):
        shift = 0
        acc = 0
        while True:
            if pos >= total:
                raise PackFormatError("varint stream truncated")
            byte = data[pos]
            pos += 1
            acc |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        values.append(acc)
    return values, pos


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63)


def _unzigzag(z: int) -> int:
    return (z >> 1) ^ -(z & 1)


class Stage:
    """One symmetric encode/decode step of a reduction chain.

    Subclasses override the pair of hooks matching their phase; the
    defaults are identity, so decode always mirrors encode.
    """

    name: str = "?"
    phase: int = 0
    lossless: bool = True
    cost_weight: float = 1.0  # relative CPU per raw byte, scales the cost model

    def spec(self) -> str:
        return self.name

    # phase 0 — records in, records out
    def encode_records(self, records: bytes, ctx: CodecContext) -> bytes:
        return records

    def decode_records(self, records: bytes) -> bytes:
        return records

    # phase 1 — columnar transforms (mutate in place)
    def encode_columnar(self, col: Columnar, ctx: CodecContext) -> None:
        return None

    def decode_columnar(self, col: Columnar) -> None:
        return None

    # phase 2 — opaque bytes
    def encode_bytes(self, data: bytes, ctx: CodecContext) -> bytes:
        return data

    def decode_bytes(self, data: bytes) -> bytes:
        return data


class SampleStage(Stage):
    """Adaptive event sampling against a target wire budget (lossy).

    Keeps every record while the cumulative content volume stays under
    ``target_bps * elapsed + burst``; past that, keeps a deterministic,
    evenly spaced subset of each batch and reports the exact drop count
    through :attr:`CodecContext.events_dropped` (carried on the frame's
    SAMPLING section, so the analyzer's accounting is exact, not
    estimated).  Decode is the identity — dropped events are gone.
    """

    name = "sample"
    phase = 0
    lossless = False
    cost_weight = 0.2

    def __init__(self, arg: str | None = None):
        self.target_bps = float(arg) if arg else 262144.0
        if self.target_bps <= 0:
            raise ConfigError(f"sample target must be positive, got {self.target_bps}")
        self.burst_bytes = 65536.0
        self._t0: float | None = None
        self._sent_bytes = 0.0

    def spec(self) -> str:
        return f"{self.name}:{self.target_bps:g}"

    def encode_records(self, records: bytes, ctx: CodecContext) -> bytes:
        count = len(records) // RECORD_SIZE
        if count == 0:
            return records
        if self._t0 is None:
            self._t0 = ctx.now
        allowed = self.target_bps * (ctx.now - self._t0) + self.burst_bytes
        budget = allowed - self._sent_bytes
        keep = min(count, max(0, int(budget // RECORD_SIZE)))
        self._sent_bytes += keep * RECORD_SIZE
        if keep >= count:
            return records
        ctx.events_dropped += count - keep
        if keep == 0:
            return b""
        idx = (np.arange(keep, dtype=np.int64) * count) // keep
        arr = np.frombuffer(records, dtype=_REC_DTYPE)
        return arr[idx].tobytes()


class QuantStage(Stage):
    """Duration quantization (lossy): snap ``t_end - t_start`` to a grid.

    ``t_start`` is untouched (event ordering and inter-event gaps stay
    exact); the duration is rounded to the nearest multiple of ``q``
    seconds, collapsing near-equal durations so downstream ``delta`` and
    ``zlib`` stages see far fewer distinct values.
    """

    name = "quant"
    phase = 0
    lossless = False
    cost_weight = 0.3

    def __init__(self, arg: str | None = None):
        self.q = float(arg) if arg else 1e-6
        if self.q <= 0:
            raise ConfigError(f"quant grid must be positive, got {self.q}")

    def spec(self) -> str:
        return f"{self.name}:{self.q:g}"

    def encode_records(self, records: bytes, ctx: CodecContext) -> bytes:
        if not records:
            return records
        arr = np.frombuffer(records, dtype=_REC_DTYPE).copy()
        dur = arr["t_end"] - arr["t_start"]
        arr["t_end"] = arr["t_start"] + np.round(dur / self.q) * self.q
        return arr.tobytes()


class DeltaStage(Stage):
    """Timestamp delta + varint encoding (lossless, exact for floats).

    Timestamps are monotone positive doubles, so their IEEE-754 bit
    patterns are monotone 63-bit integers: delta + zigzag + varint over
    the *bit patterns* compresses them without losing a single ULP.
    ``t_end`` is stored as the varint difference to its own ``t_start``.
    """

    name = "delta"
    phase = 1
    lossless = True
    cost_weight = 1.0

    def encode_columnar(self, col: Columnar, ctx: CodecContext) -> None:
        if col.count == 0 or col.time_enc != TIME_RAW:
            return
        pairs = np.frombuffer(col.times, dtype="<f8").reshape(col.count, 2)
        ts_bits = np.ascontiguousarray(pairs[:, 0]).view(np.int64)
        te_bits = np.ascontiguousarray(pairs[:, 1]).view(np.int64)
        ts_vals = [int(ts_bits[0])] + np.diff(ts_bits).tolist()
        te_vals = (te_bits - ts_bits).tolist()
        ts_stream = _encode_varints(_zigzag(v) for v in ts_vals)
        te_stream = _encode_varints(_zigzag(v) for v in te_vals)
        col.times = struct.pack("<I", len(ts_stream)) + ts_stream + te_stream
        col.time_enc = TIME_DELTA

    def decode_columnar(self, col: Columnar) -> None:
        if col.time_enc != TIME_DELTA:
            if col.time_enc == TIME_RAW and col.count == 0:
                return  # empty batches are left raw on encode
            raise PackFormatError(
                f"delta decode on time_enc={col.time_enc} columnar payload"
            )
        data = col.times
        if len(data) < 4:
            raise PackFormatError("delta time stream shorter than its length prefix")
        (ts_len,) = struct.unpack_from("<I", data, 0)
        ts_zz, used = _decode_varints(data[4 : 4 + ts_len], col.count)
        if used != ts_len:
            raise PackFormatError(
                f"delta t_start stream: {ts_len} bytes declared, {used} consumed"
            )
        te_zz, used = _decode_varints(data[4 + ts_len :], col.count)
        if 4 + ts_len + used != len(data):
            raise PackFormatError("trailing bytes after delta t_end stream")
        ts_bits = np.cumsum(
            np.array([_unzigzag(z) for z in ts_zz], dtype=np.int64), dtype=np.int64
        )
        te_bits = ts_bits + np.array(
            [_unzigzag(z) for z in te_zz], dtype=np.int64
        )
        pairs = np.empty((col.count, 2), dtype=np.int64)
        pairs[:, 0] = ts_bits
        pairs[:, 1] = te_bits
        col.times = pairs.view("<f8").tobytes()
        col.time_enc = TIME_RAW


class DictStage(Stage):
    """Dictionary encoding of call sites (lossless).

    The 24-byte non-temporal record prefix — call id, flags, peer, tag,
    communicator size, message bytes — repeats heavily inside a pack
    (loops issue the same call shape thousands of times).  Unique
    prefixes go into a table; each record stores a 1/2/4-byte index.
    """

    name = "dict"
    phase = 1
    lossless = True
    cost_weight = 1.0

    def encode_columnar(self, col: Columnar, ctx: CodecContext) -> None:
        if col.count == 0 or col.site_enc != SITE_RAW:
            return
        arr = np.frombuffer(col.sites, dtype=np.uint8).reshape(col.count, _SITE_BYTES)
        uniq, inverse = np.unique(arr, axis=0, return_inverse=True)
        nuniq = uniq.shape[0]
        if nuniq <= 256:
            idx_dtype, idx_width = np.dtype("<u1"), 1
        elif nuniq <= 65536:
            idx_dtype, idx_width = np.dtype("<u2"), 2
        else:
            idx_dtype, idx_width = np.dtype("<u4"), 4
        col.sites = (
            struct.pack("<BI", idx_width, nuniq)
            + uniq.tobytes()
            + inverse.reshape(-1).astype(idx_dtype).tobytes()
        )
        col.site_enc = SITE_DICT

    def decode_columnar(self, col: Columnar) -> None:
        if col.site_enc != SITE_DICT:
            if col.site_enc == SITE_RAW and col.count == 0:
                return
            raise PackFormatError(
                f"dict decode on site_enc={col.site_enc} columnar payload"
            )
        data = col.sites
        if len(data) < 5:
            raise PackFormatError("dict site stream shorter than its header")
        idx_width, nuniq = struct.unpack_from("<BI", data, 0)
        if idx_width not in (1, 2, 4):
            raise PackFormatError(f"dict index width {idx_width} not in (1, 2, 4)")
        table_end = 5 + nuniq * _SITE_BYTES
        expected = table_end + col.count * idx_width
        if len(data) != expected:
            raise PackFormatError(
                f"dict site stream of {len(data)} bytes, "
                f"table {nuniq} × index {idx_width} implies {expected}"
            )
        table = np.frombuffer(data[5:table_end], dtype=np.uint8).reshape(
            nuniq, _SITE_BYTES
        )
        idx = np.frombuffer(data[table_end:], dtype=f"<u{idx_width}")
        if nuniq and int(idx.max(initial=0)) >= nuniq:
            raise PackFormatError("dict index out of table range")
        col.sites = table[idx].tobytes()
        col.site_enc = SITE_RAW


class ZlibStage(Stage):
    """zlib entropy coding of the whole serialized batch (lossless)."""

    name = "zlib"
    phase = 2
    lossless = True
    cost_weight = 2.5

    def __init__(self, arg: str | None = None):
        self.level = int(arg) if arg else 6
        if not (1 <= self.level <= 9):
            raise ConfigError(f"zlib level must be 1..9, got {self.level}")

    def spec(self) -> str:
        return f"{self.name}:{self.level}" if self.level != 6 else self.name

    def encode_bytes(self, data: bytes, ctx: CodecContext) -> bytes:
        return zlib.compress(data, self.level)

    def decode_bytes(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise PackFormatError(f"zlib payload failed to inflate: {exc}") from exc


_STAGES = {
    "sample": SampleStage,
    "quant": QuantStage,
    "delta": lambda arg=None: DeltaStage(),
    "dict": lambda arg=None: DictStage(),
    "zlib": ZlibStage,
}


class ReferenceChain:
    """The old ``CodecChain.encode``/``decode`` bodies, minus registry and hostprof."""

    def __init__(self, spec: str):
        self.stages = []
        for token in (t for t in spec.split("+") if t):
            name, _, arg = token.partition(":")
            self.stages.append(_STAGES[name](arg or None))

    def _phase(self, phase: int) -> list[Stage]:
        return [s for s in self.stages if s.phase == phase]

    def encode(self, records: bytes, now: float = 0.0) -> tuple[bytes, int, int]:
        """Returns ``(payload, count, events_dropped)``."""
        ctx = CodecContext(now=now)
        data = bytes(records)
        for stage in self._phase(0):
            data = stage.encode_records(data, ctx)
        count = len(data) // RECORD_SIZE
        if self._phase(1):
            col = _split_columnar(data)
            for stage in self._phase(1):
                stage.encode_columnar(col, ctx)
            data = col.serialize()
        for stage in self._phase(2):
            data = stage.encode_bytes(data, ctx)
        return data, count, ctx.events_dropped

    def decode(self, payload: bytes, count: int) -> bytes:
        data = payload
        for stage in reversed(self._phase(2)):
            data = stage.decode_bytes(data)
        if self._phase(1):
            col = Columnar.parse(data)
            if col.count != count:
                raise PackFormatError(
                    f"columnar count {col.count} disagrees with frame count {count}"
                )
            for stage in reversed(self._phase(1)):
                stage.decode_columnar(col)
            data = _reassemble(col)
        if len(data) != count * RECORD_SIZE:
            raise PackFormatError(
                f"decoded payload of {len(data)} bytes, "
                f"frame count {count} implies {count * RECORD_SIZE}"
            )
        return data
