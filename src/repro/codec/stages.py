"""Composable measurements-reduction stages and the codec-chain registry.

A chain is an ordered list of :class:`Stage` objects built from a spec
string such as ``"delta+dict+zlib"`` (stage args after a colon:
``"quant:1e-6+zlib:9"``).  Encoding applies stages left to right;
decoding applies their inverses right to left, so every stage's decoder
sees exactly what its encoder produced.

Stages are typed by *phase*, and a chain must be phase-ordered:

    phase 0 — record filters (``sample``, ``quant``): fixed-width records
              in, fixed-width records out; may drop or rewrite events.
    phase 1 — columnar transforms (``delta``, ``dict``): operate on the
              split site/time columns of the record batch.
    phase 2 — byte codecs (``zlib``): opaque bytes in, opaque bytes out.

Between phases 0 and 2 the chain serializes a small self-describing
columnar container, which is what makes ``delta`` and ``dict`` compose
without either knowing the other's output format.

``sample`` and ``quant`` are deliberately lossy (that is the point of
online reduction); every chain listed in :data:`REGISTERED_CHAINS` is
lossless and must round-trip bit-exactly — the randomized codec tests
enforce this.

No stage loops over records in Python: every transform is a handful of
numpy array operations over the packed record buffer
(``scripts/check_hotpath_invariants.py`` enforces it).  Record bytes are
copied once per direction — :meth:`Columnar.serialize` on encode,
:func:`_reassemble` on decode — so "records" below means any contiguous
byte buffer (``bytes``, ``memoryview``, flat ``uint8`` array).  The scalar
reference implementation the wire bytes are pinned against lives in
``tests/_codec_reference.py`` only (DESIGN 9).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import ConfigError, PackFormatError, UnknownCodecError

RECORD_SIZE = 40  # matches instrument.events.EVENT_RECORD_SIZE (asserted there)
_SITE_BYTES = 24  # the non-temporal record prefix ("call site")
_TIME_BYTES = 16  # t_start + t_end, two little-endian f64

#: a record as its two halves, each one opaque block of bytes
_SITE_VOID = np.dtype(("V", _SITE_BYTES))
_TIME_VOID = np.dtype(("V", _TIME_BYTES))
_RECORD_HALVES = np.dtype([("site", _SITE_VOID), ("time", _TIME_VOID)])

SITE_RAW, SITE_DICT = 0, 1
TIME_RAW, TIME_DELTA = 0, 1
_COL_FMT = "<BBII"  # site_enc, time_enc, count, sites_len
_COL_STRUCT = struct.Struct(_COL_FMT)
_COL_HEADER_SIZE = _COL_STRUCT.size
_DICT_HEADER = struct.Struct("<BI")  # index width, table entries
_U32 = struct.Struct("<I")

_VARINT_MAX = 10  # a u64 spans at most ten 7-bit groups
_SHIFTS = np.arange(_VARINT_MAX, dtype=np.uint64) * np.uint64(7)
#: least value needing 1, 2, ... 10 bytes: a value's byte count is the
#: number of these floors it reaches
_LENGTH_FLOORS = np.concatenate(([np.uint64(0)], np.uint64(1) << _SHIFTS[1:]))
#: dictionary index dtype by index width
_INDEX_DTYPES = {width: np.dtype(f"<u{width}") for width in (1, 2, 4)}


@dataclass
class CodecContext:
    """Per-encode state threaded through the stages of one pack seal."""

    now: float = 0.0
    events_dropped: int = 0


class EncodeResult(NamedTuple):
    """Outcome of encoding one record batch through a chain (one per pack,
    so a tuple rather than a frozen dataclass)."""

    payload: bytes  # the frame's payload-section body
    count: int  # records the payload decodes back to (post-sampling)
    raw_bytes: int  # kept-record bytes before lossless transforms
    events_dropped: int  # records the sampler removed from this batch


def _rows(records) -> np.ndarray:
    """A record buffer as a zero-copy ``(count, RECORD_SIZE)`` byte matrix."""
    return np.frombuffer(records, dtype=np.uint8).reshape(-1, RECORD_SIZE)


@dataclass(slots=True)
class Columnar:
    """The split record batch phase-1 stages transform.

    ``sites`` and ``times`` each carry their own encoding tag, so the
    container is self-describing and a decoder can detect when the chain
    it was asked to apply does not match the bytes in front of it.  Both
    columns are ``uint8`` arrays of ``.size`` bytes: strided views of the
    record buffer while raw on the encode side, flat views of the payload
    on the decode side, fresh arrays once a stage has transformed them.
    """

    count: int
    site_enc: int
    time_enc: int
    sites: np.ndarray
    times: np.ndarray

    def serialize(self) -> bytes:
        # The one copy of the encode side: a column no stage transformed is
        # still a strided view of the caller's records and is packed here.
        sites = np.ascontiguousarray(self.sites)
        header = _COL_STRUCT.pack(self.site_enc, self.time_enc, self.count, sites.size)
        return b"".join((header, sites, np.ascontiguousarray(self.times)))

    @classmethod
    def parse(cls, data) -> "Columnar":
        if len(data) < _COL_HEADER_SIZE:
            raise PackFormatError(
                f"columnar container of {len(data)} bytes shorter than header"
            )
        site_enc, time_enc, count, sites_len = _COL_STRUCT.unpack_from(data, 0)
        body = np.frombuffer(data, dtype=np.uint8, offset=_COL_HEADER_SIZE)
        if sites_len > body.size:
            raise PackFormatError(
                f"columnar sites length {sites_len} exceeds body of {body.size} bytes"
            )
        return cls(count, site_enc, time_enc, body[:sites_len], body[sites_len:])


def _split_columnar(records) -> Columnar:
    rows = _rows(records)
    return Columnar(
        count=rows.shape[0],
        site_enc=SITE_RAW,
        time_enc=TIME_RAW,
        sites=rows[:, :_SITE_BYTES],
        times=rows[:, _SITE_BYTES:],
    )


def _reassemble(col: Columnar) -> memoryview:
    if col.site_enc != SITE_RAW or col.time_enc != TIME_RAW:
        raise PackFormatError(
            "codec descriptor mismatch: columnar payload still encoded "
            f"(site_enc={col.site_enc}, time_enc={col.time_enc}) after chain decode"
        )
    if col.sites.size != col.count * _SITE_BYTES:
        raise PackFormatError(
            f"columnar sites of {col.sites.size} bytes, "
            f"count {col.count} implies {col.count * _SITE_BYTES}"
        )
    if col.times.size != col.count * _TIME_BYTES:
        raise PackFormatError(
            f"columnar times of {col.times.size} bytes, "
            f"count {col.count} implies {col.count * _TIME_BYTES}"
        )
    # The one copy of the decode side: columns interleave into fresh records,
    # one opaque site and one opaque time pair per record.
    out = np.empty(col.count, dtype=_RECORD_HALVES)
    out["site"] = col.sites.view(_SITE_VOID)
    out["time"] = col.times.view(_TIME_VOID)
    return out.view(np.uint8).data


def _zigzag(v: np.ndarray) -> np.ndarray:
    """int64 -> u64, small magnitudes of either sign to small values."""
    return ((v << 1) ^ (v >> 63)).view(np.uint64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    return (z >> 1).view(np.int64) ^ -(z & 1).view(np.int64)


def _group_shifts(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Bit shift of every byte of a varint stream: 7 x its index in its value."""
    # per byte: 7 x where its value starts, taken from 7 x its own index
    first = (starts * 7).repeat(lengths).view(np.uint64)
    shifts = np.arange(0, 7 * first.size, 7, dtype=np.uint64)
    shifts -= first
    return shifts


def _pack_varints(z: np.ndarray, head: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode u64 values: (concatenated bytes, end offset of each value).

    One output byte per 7-bit group: each value is repeated once per byte
    it needs and every copy shifted down to its group.  Every byte but a
    value's last gets the continuation flag.  The first ``head`` bytes of
    the output are left for the caller (offsets count from after them).
    """
    lengths = _LENGTH_FLOORS.searchsorted(z, side="right")
    ends = lengths.cumsum()
    shifted = z.repeat(lengths)
    shifted >>= _group_shifts(ends - lengths, lengths)
    flags = np.full(shifted.size, 0x80, dtype=np.uint8)
    flags[ends - 1] = 0
    out = np.empty(head + shifted.size, dtype=np.uint8)
    np.bitwise_or(shifted.astype(np.uint8), flags, out=out[head:])
    return out, ends


def _unpack_varints(a: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """u64 values of the varints of ``a`` whose terminators sit at ``ends``.

    ``ends`` must cover ``a`` exactly (last terminator on the last byte).
    The inverse layout of :func:`_pack_varints`: each byte's low 7 bits
    shift up to their group, then OR-reduce per value.
    """
    starts = np.empty_like(ends)
    starts[:1] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = ends - starts
    lengths += 1
    longest = np.maximum.reduce(lengths, initial=0)
    if longest > _VARINT_MAX:
        raise PackFormatError(f"varint longer than {_VARINT_MAX} bytes")
    if longest == _VARINT_MAX and (a[ends[lengths == _VARINT_MAX]] > 1).any():
        raise PackFormatError("varint overflows 64 bits")
    groups = (a & 0x7F).astype(np.uint64)
    groups <<= _group_shifts(starts, lengths)
    return np.bitwise_or.reduceat(groups, starts)


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

    def encode_records(self, records, ctx: CodecContext):
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
        return _rows(records)[idx].reshape(-1)


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

    def encode_records(self, records, ctx: CodecContext):
        if not len(records):
            return records
        rows = _rows(records).copy()  # never rewrite the caller's buffer
        t = rows[:, _SITE_BYTES:].view("<f8")
        start = t[:, 0]
        t[:, 1] = start + np.round((t[:, 1] - start) / self.q) * self.q
        return rows.reshape(-1)


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
        n = col.count
        bits = col.times.view("<i8")  # (n, 2) IEEE-754 bit patterns
        # Row 0: first t_start, then t_start deltas; row 1: t_end - t_start.
        # Both streams go through zigzag + varint in one pass.
        vals = np.empty((2, n), dtype=np.int64)
        vals[0, 0] = bits[0, 0]
        np.subtract(bits[1:, 0], bits[:-1, 0], out=vals[0, 1:])
        np.subtract(bits[:, 1], bits[:, 0], out=vals[1])
        # The varint bytes land after a 4-byte slot for the t_start length.
        times, ends = _pack_varints(_zigzag(vals.reshape(-1)), head=4)
        _U32.pack_into(times, 0, int(ends[n - 1]))
        col.times = times
        col.time_enc = TIME_DELTA

    def decode_columnar(self, col: Columnar) -> None:
        if col.time_enc != TIME_DELTA:
            if col.time_enc == TIME_RAW and col.count == 0:
                return  # empty batches are left raw on encode
            raise PackFormatError(
                f"delta decode on time_enc={col.time_enc} columnar payload"
            )
        n = col.count
        if col.times.size < 4:
            raise PackFormatError("delta time stream shorter than its length prefix")
        (ts_len,) = _U32.unpack_from(col.times, 0)
        a = col.times[4:]
        ends = (a < 0x80).nonzero()[0]  # varint terminators of both streams
        nends = ends.size
        # Fewer than n terminators inside the declared t_start stream.
        if n and (nends < n or ends[n - 1] >= ts_len):
            raise PackFormatError("varint stream truncated")
        used = int(ends[n - 1]) + 1 if n else 0
        if used != ts_len:
            raise PackFormatError(
                f"delta t_start stream: {ts_len} bytes declared, {used} consumed"
            )
        if nends < 2 * n:
            raise PackFormatError("varint stream truncated")
        if (int(ends[2 * n - 1]) + 1 if n else 0) != a.size:
            raise PackFormatError("trailing bytes after delta t_end stream")
        deltas = _unzigzag(_unpack_varints(a, ends))
        bits = np.empty((n, 2), dtype=np.int64)
        deltas[:n].cumsum(out=bits[:, 0])
        np.add(bits[:, 0], deltas[n:], out=bits[:, 1])
        col.times = bits.reshape(-1).view(np.uint8)
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
        n = col.count
        # Three big-endian u64 words per site: numeric word order is byte-
        # lexicographic order, so the table comes out sorted by raw bytes.
        words = col.sites.view("<u8").byteswap()
        order = np.lexsort((words[:, 2], words[:, 1], words[:, 0]))
        words = words.take(order, axis=0)
        differs = words[1:] != words[:-1]
        first = np.empty(n, dtype=np.bool_)  # sorted row opens a new table entry
        first[0] = True
        np.logical_or(differs[:, 0], differs[:, 1], out=first[1:])
        first[1:] |= differs[:, 2]
        entry = first.cumsum()  # per sorted row: 1 + its table entry
        nuniq = int(entry[-1])
        idx_width = 1 if nuniq <= 256 else 2 if nuniq <= 65536 else 4
        # header | table | index, written in place into the one output array
        table_end = _DICT_HEADER.size + nuniq * _SITE_BYTES
        sites = np.empty(table_end + n * idx_width, dtype=np.uint8)
        _DICT_HEADER.pack_into(sites, 0, idx_width, nuniq)
        col.sites.take(
            order[first],
            axis=0,
            out=sites[_DICT_HEADER.size : table_end].reshape(nuniq, _SITE_BYTES),
        )
        entry -= 1
        sites[table_end:].view(_INDEX_DTYPES[idx_width])[order] = entry
        col.sites = sites
        col.site_enc = SITE_DICT

    def decode_columnar(self, col: Columnar) -> None:
        if col.site_enc != SITE_DICT:
            if col.site_enc == SITE_RAW and col.count == 0:
                return
            raise PackFormatError(
                f"dict decode on site_enc={col.site_enc} columnar payload"
            )
        data = col.sites
        if data.size < _DICT_HEADER.size:
            raise PackFormatError("dict site stream shorter than its header")
        idx_width, nuniq = _DICT_HEADER.unpack_from(data, 0)
        if idx_width not in _INDEX_DTYPES:
            raise PackFormatError(f"dict index width {idx_width} not in (1, 2, 4)")
        table_end = _DICT_HEADER.size + nuniq * _SITE_BYTES
        expected = table_end + col.count * idx_width
        if data.size != expected:
            raise PackFormatError(
                f"dict site stream of {data.size} bytes, "
                f"table {nuniq} × index {idx_width} implies {expected}"
            )
        table = data[_DICT_HEADER.size : table_end].reshape(nuniq, _SITE_BYTES)
        idx = data[table_end:].view(_INDEX_DTYPES[idx_width])
        if idx.size and np.maximum.reduce(idx) >= nuniq:
            raise PackFormatError("dict index out of table range")
        col.sites = table.take(idx, axis=0).reshape(-1)
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


#: Stage factories by the name a chain spec uses; the argument is the
#: token's ``:arg`` part, or None.
_STAGES: dict[str, Callable[[str | None], Stage]] = {
    "sample": SampleStage,
    "quant": QuantStage,
    "delta": lambda arg=None: DeltaStage(),
    "dict": lambda arg=None: DictStage(),
    "zlib": ZlibStage,
}


def available_stages() -> list[str]:
    return sorted(_STAGES)


#: Every lossless chain the randomized round-trip tests must pass bit-exactly.
REGISTERED_CHAINS: tuple[str, ...] = (
    "",
    "delta",
    "dict",
    "zlib",
    "delta+dict",
    "delta+zlib",
    "dict+zlib",
    "delta+dict+zlib",
)


class CodecChain:
    """An ordered, phase-validated list of stages with one spec string."""

    def __init__(self, stages: Sequence[Stage]):
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate stage in chain: {'+'.join(names)}")
        phases = [s.phase for s in stages]
        if phases != sorted(phases):
            raise ConfigError(
                "chain stages out of phase order "
                f"({'+'.join(names)}): record filters (sample, quant) must come "
                "before columnar transforms (delta, dict), byte codecs (zlib) last"
            )
        self.stages = list(stages)
        # Phase partition, computed once: the encode/decode hot loops must
        # not rebuild these lists per pack.
        self._phase0 = [s for s in self.stages if s.phase == 0]
        self._phase1 = [s for s in self.stages if s.phase == 1]
        self._phase2 = [s for s in self.stages if s.phase == 2]

    @property
    def spec(self) -> str:
        return "+".join(s.spec() for s in self.stages)

    @property
    def lossless(self) -> bool:
        return all(s.lossless for s in self.stages)

    @property
    def cost_weight(self) -> float:
        """Relative CPU per raw byte; the cost model's codec multiplier."""
        return sum(s.cost_weight for s in self.stages)

    def __bool__(self) -> bool:
        return bool(self.stages)

    def __repr__(self) -> str:
        return f"CodecChain({self.spec!r})"

    def encode(self, records, now: float = 0.0) -> EncodeResult:
        """Run one record batch through the chain (left to right)."""
        if len(records) % RECORD_SIZE:
            raise PackFormatError(
                f"record batch of {len(records)} bytes is not a multiple of "
                f"{RECORD_SIZE}"
            )
        ctx = CodecContext(now=now)
        # Zero-copy entry: ``records`` may be a view of the packer's reuse
        # buffer.  Stages only read it, and every array derived from it is
        # dead by return -- the payload below always owns its bytes.
        data = records
        for stage in self._phase0:
            data = stage.encode_records(data, ctx)
        count = len(data) // RECORD_SIZE
        raw_bytes = len(data)
        columnar = self._phase1
        if columnar:
            col = _split_columnar(data)
            for stage in columnar:
                stage.encode_columnar(col, ctx)
            data = col.serialize()
        for stage in self._phase2:
            data = stage.encode_bytes(data, ctx)
        if not isinstance(data, bytes):
            data = bytes(data)  # filter-only chain: still the caller's buffer or an array
        return EncodeResult(
            payload=data,
            count=count,
            raw_bytes=raw_bytes,
            events_dropped=ctx.events_dropped,
        )

    def decode(self, payload, count: int) -> bytes | memoryview:
        """Invert :meth:`encode`: payload bytes back to fixed-width records."""
        # Zero-copy entry: ``payload`` may be a memoryview straight out of
        # parse_frame; every stage accepts buffer objects, and the identity
        # chain hands the view back uncopied.
        data = payload
        for stage in reversed(self._phase2):
            data = stage.decode_bytes(data)
        columnar = self._phase1
        if columnar:
            col = Columnar.parse(data)
            if col.count != count:
                raise PackFormatError(
                    f"columnar count {col.count} disagrees with frame count {count}"
                )
            for stage in reversed(columnar):
                stage.decode_columnar(col)
            data = _reassemble(col)
        if len(data) != count * RECORD_SIZE:
            raise PackFormatError(
                f"decoded payload of {len(data)} bytes, "
                f"frame count {count} implies {count * RECORD_SIZE}"
            )
        for stage in reversed(self._phase0):
            data = stage.decode_records(data)
        return data


def build_chain(spec: str | Sequence[str] | None) -> CodecChain:
    """Build a fresh chain (fresh stage state) from a spec.

    Accepts a ``"+"``-joined string, a sequence of stage tokens, or
    ``None``/``""``/``[]`` for the identity chain.  Unknown stage names
    raise :class:`UnknownCodecError`; structurally invalid chains
    (duplicates, phase order) raise :class:`ConfigError`.
    """
    if spec is None:
        tokens: list[str] = []
    elif isinstance(spec, str):
        tokens = [t for t in spec.split("+") if t] if spec else []
    else:
        tokens = [str(t) for t in spec if str(t)]
    stages = []
    for token in tokens:
        name, _, arg = token.partition(":")
        name = name.strip()
        factory = _STAGES.get(name)
        if factory is None:
            raise UnknownCodecError(
                f"unknown codec stage {name!r} "
                f"(available: {', '.join(available_stages())})"
            )
        stages.append(factory(arg.strip() or None))
    return CodecChain(stages)


_DECODE_CHAINS: dict[str, CodecChain] = {}


def decode_chain(spec: str) -> CodecChain:
    """A cached chain for *decoding* a wire descriptor.

    Decode is stateless, so instances are shared; never use the returned
    chain to encode (``sample`` carries budget state across packs).
    Structural errors in a wire descriptor surface as
    :class:`UnknownCodecError` so ingest can reject the pack.
    """
    chain = _DECODE_CHAINS.get(spec)
    if chain is None:
        try:
            chain = build_chain(spec)
        except ConfigError as exc:
            raise UnknownCodecError(str(exc)) from exc
        if len(_DECODE_CHAINS) < 64:
            _DECODE_CHAINS[spec] = chain
    return chain
