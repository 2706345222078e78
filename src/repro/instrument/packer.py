"""Event packs: the ~1 MB blocks travelling through VMPI streams.

Since wire format v2 a pack is a :mod:`repro.codec.frame` — one header
plus typed, length-prefixed sections (payload, CRC, codec descriptor,
sampling accounting, provenance).  Everything here is a thin wrapper
over that single frame implementation; there is no trailer sniffing or
byte arithmetic left in this module.

Accounting still budgets the v1 content layout — a 16-byte logical
header plus 40 bytes per record (:data:`PACK_HEADER_SIZE`,
``EVENT_RECORD_SIZE``) — so pack capacity and the modelled stream
volume are independent of framing, checksums, provenance stamps and
codec output sizes.  ``PackHeader.count`` is the number of *kept*
records (after any sampling stage), which is also what the payload
decodes back to.

When a reduction chain is configured (see :mod:`repro.codec.stages`),
:meth:`EventPackBuilder.emit` encodes the sealed batch and stamps the
chain spec into the frame's codec-descriptor section, so the analyzer
self-describes its decode path from the wire bytes alone.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from repro.codec.frame import (
    CONTENT_HEADER_SIZE,
    PackProvenance,
    build_frame,
    parse_frame,
)
from repro.codec.stages import CodecChain, decode_chain
from repro.errors import InstrumentationError, PackFormatError
from repro.instrument.events import (
    CALL_IDS,
    EVENT_RECORD_SIZE,
    decode_events,
    pack_record_into,
)
from repro.mpi.pmpi import CallRecord

PACK_HEADER_SIZE = CONTENT_HEADER_SIZE  # modelled content header, v1-compatible

#: records a fresh builder's buffer holds before its first doubling
_INITIAL_RECORDS = 64

__all__ = [
    "PACK_HEADER_SIZE",
    "PackHeader",
    "PackProvenance",
    "EventPackBuilder",
    "verify_pack",
    "decode_pack",
    "decode_pack_frame",
]


class PackHeader(NamedTuple):
    """A decoded pack's identity: one per pack, so a tuple, not a frozen
    dataclass (whose ``__init__`` pays one ``object.__setattr__`` per field)."""

    app_id: int
    rank: int
    count: int


class EventPackBuilder:
    """Accumulates encoded events until the block budget is reached.

    ``chain`` (a :class:`repro.codec.stages.CodecChain`) is applied when
    the pack is sealed; the builder keeps exact reduction accounting in
    ``bytes_content`` / ``bytes_wire`` / ``events_sampled_out``.
    """

    def __init__(
        self,
        app_id: int,
        rank: int,
        capacity_bytes: int = 1024 * 1024,
        chain: CodecChain | None = None,
    ):
        min_capacity = PACK_HEADER_SIZE + EVENT_RECORD_SIZE
        if capacity_bytes < min_capacity:
            raise PackFormatError(
                f"pack capacity {capacity_bytes} below minimum {min_capacity}"
            )
        if not (0 <= app_id < 2**16):
            raise PackFormatError(f"app_id {app_id} outside u16")
        if not (0 <= rank < 2**32):
            raise PackFormatError(f"rank {rank} outside u32")
        self.app_id = app_id
        self.rank = rank
        self.capacity_bytes = capacity_bytes
        self.max_records = (capacity_bytes - PACK_HEADER_SIZE) // EVENT_RECORD_SIZE
        self.chain = chain if chain else None
        # Per-writer record buffer: add() packs straight into it (no
        # per-event bytes object, no list growth); emit() hands the filled
        # prefix to the chain/framer and resets the write cursor.  It starts
        # small and doubles on demand up to the pack capacity, so a writer
        # that never fills a pack never pays for (or zero-fills) a full one.
        self._buf = bytearray(min(self.max_records, _INITIAL_RECORDS) * EVENT_RECORD_SIZE)
        self._count = 0
        self.total_events = 0
        self.packs_emitted = 0
        self.bytes_content = 0  # modelled content bytes of emitted packs
        self.bytes_wire = 0  # physical frame bytes of emitted packs
        self.events_sampled_out = 0
        self.last_encode = None  # EncodeResult of the latest emit (chain only)

    @property
    def count(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        return self._count >= self.max_records

    def add(self, record: CallRecord) -> bool:
        """Append one event; returns True when the pack is now full."""
        count = self._count
        name, t_start, t_end, _comm_id, _rank, comm_size, peer, tag, nbytes = record
        while True:
            try:
                pack_record_into(
                    self._buf,
                    count * EVENT_RECORD_SIZE,
                    CALL_IDS[name],
                    0,
                    peer,
                    tag,
                    comm_size if comm_size > 0 else 0,
                    nbytes,
                    t_start,
                    t_end,
                )
            except KeyError:
                raise InstrumentationError(f"unknown MPI call name {name!r}") from None
            except struct.error:
                # No size compare on the hot path: a short buffer announces
                # itself here, and the record is packed again after growing.
                # Anything else (a field out of range, a pack already at
                # capacity) is the caller's error and re-raises unchanged.
                size = len(self._buf)
                if not size:
                    raise InstrumentationError("add() on a closed pack builder") from None
                capacity = self.max_records * EVENT_RECORD_SIZE
                if size >= capacity or size >= (count + 1) * EVENT_RECORD_SIZE:
                    raise
                self._buf.extend(bytes(min(size, capacity - size)))
                continue
            break
        self._count = count = count + 1
        self.total_events += 1
        return count >= self.max_records

    def emit(
        self, now: float = 0.0, provenance: PackProvenance | None = None
    ) -> bytes:
        """Seal, encode and reset; empty packs serialize with count == 0."""
        # A view of the filled prefix; consumed (and copied at most once)
        # before this method resets the cursor, so reuse is safe.
        records = memoryview(self._buf)[: self._count * EVENT_RECORD_SIZE]
        if self.chain is not None:
            result = self.chain.encode(records, now=now)
            payload, count = result.payload, result.count
            dropped, spec = result.events_dropped, self.chain.spec
            self.last_encode = result
        else:
            payload, count = records, self._count
            dropped, spec = 0, ""
        blob = build_frame(
            self.app_id,
            self.rank,
            count,
            payload,
            codec=spec,
            provenance=provenance,
            events_dropped=dropped,
        )
        records.release()
        self._count = 0
        self.packs_emitted += 1
        self.bytes_content += PACK_HEADER_SIZE + count * EVENT_RECORD_SIZE
        self.bytes_wire += len(blob)
        self.events_sampled_out += dropped
        return blob

    def close(self) -> None:
        """Hand the record buffer back once the last pack is sealed.

        The counters stay readable; :meth:`add` afterwards raises
        :class:`InstrumentationError`.
        """
        if self._count:
            raise InstrumentationError(
                f"closing a pack builder with {self._count} unsealed records"
            )
        self._buf = bytearray()


def verify_pack(blob: bytes | memoryview) -> PackHeader:
    """Check a pack's frame structure and CRC without decoding events.

    Returns the parsed header; raises a :class:`PackFormatError` subclass
    if the frame is truncated, structurally invalid, carries a bad
    checksum, or names a codec chain this build cannot decode.
    """
    frame = parse_frame(blob)
    decode_chain(frame.codec)  # raises UnknownCodecError on a foreign descriptor
    return PackHeader(app_id=frame.app_id, rank=frame.rank, count=frame.count)


def decode_pack(blob: bytes | memoryview) -> tuple[PackHeader, np.ndarray]:
    """Decode one pack into its header and event array.

    Verifies the CRC, then inverts the codec chain named by the frame's
    descriptor (identity when absent).  Raises a :class:`PackFormatError`
    subclass on bad magic/version/structure/checksum/codec.
    """
    return decode_pack_frame(parse_frame(blob))


def decode_pack_frame(frame) -> tuple[PackHeader, np.ndarray]:
    """:func:`decode_pack` for an already-parsed frame.

    The ingest pipeline parses each pack exactly once and threads the
    frame to the unpacker knowledge source; this entry point skips the
    re-parse (and re-CRC) of the blob form.  The caller is responsible
    for having verified the checksum.
    """
    count = frame.count
    records = decode_chain(frame.codec).decode(frame.payload, count)
    return PackHeader(frame.app_id, frame.rank, count), decode_events(records, count)
