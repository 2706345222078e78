"""Binary event records.

The paper's trace format is deliberately trivial: "the C structure is
directly sent".  One event is a fixed 40-byte little-endian record::

    u16 call_id | u16 flags | i32 peer | i32 tag | u32 comm_size
    | i64 nbytes | f64 t_start | f64 t_end

Records decode zero-copy into a numpy structured array
(:data:`EVENT_DTYPE`), which is what all analysis knowledge sources consume.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import InstrumentationError
from repro.mpi.pmpi import CallRecord

_STRUCT_FMT = "<HHiiIqdd"
_RECORD_STRUCT = struct.Struct(_STRUCT_FMT)
EVENT_RECORD_SIZE = _RECORD_STRUCT.size
assert EVENT_RECORD_SIZE == 40
# The codec layer hardcodes the record layout (24-byte call-site prefix +
# two f64 timestamps) without importing this module; keep them in lockstep.
from repro.codec.frame import CONTENT_RECORD_SIZE as _CODEC_RECORD_SIZE  # noqa: E402
from repro.codec.stages import RECORD_SIZE as _STAGE_RECORD_SIZE  # noqa: E402

assert EVENT_RECORD_SIZE == _CODEC_RECORD_SIZE == _STAGE_RECORD_SIZE

EVENT_DTYPE = np.dtype(
    [
        ("call", "<u2"),
        ("flags", "<u2"),
        ("peer", "<i4"),
        ("tag", "<i4"),
        ("comm_size", "<u4"),
        ("nbytes", "<i8"),
        ("t_start", "<f8"),
        ("t_end", "<f8"),
    ]
)
assert EVENT_DTYPE.itemsize == EVENT_RECORD_SIZE

#: Call name registry.  Order is the wire format; only append.
CALL_NAMES: tuple[str, ...] = (
    "MPI_Init",
    "MPI_Finalize",
    "MPI_Send",
    "MPI_Isend",
    "MPI_Recv",
    "MPI_Irecv",
    "MPI_Wait",
    "MPI_Waitall",
    "MPI_Sendrecv",
    "MPI_Iprobe",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Gather",
    "MPI_Allgather",
    "MPI_Scatter",
    "MPI_Alltoall",
    "MPI_Reduce_scatter",
    "MPI_Comm_split",
    "MPI_Comm_dup",
    # POSIX-ish calls the paper's density module also covers.
    "open",
    "read",
    "write",
    "close",
)

CALL_IDS: dict[str, int] = {name: i for i, name in enumerate(CALL_NAMES)}

#: Classification used by the analysis modules.
P2P_SEND_CALLS = frozenset(
    CALL_IDS[n] for n in ("MPI_Send", "MPI_Isend", "MPI_Sendrecv")
)
P2P_RECV_CALLS = frozenset(CALL_IDS[n] for n in ("MPI_Recv", "MPI_Irecv"))
WAIT_CALLS = frozenset(CALL_IDS[n] for n in ("MPI_Wait", "MPI_Waitall"))
COLLECTIVE_CALLS = frozenset(
    CALL_IDS[n]
    for n in (
        "MPI_Barrier",
        "MPI_Bcast",
        "MPI_Reduce",
        "MPI_Allreduce",
        "MPI_Gather",
        "MPI_Allgather",
        "MPI_Scatter",
        "MPI_Alltoall",
        "MPI_Reduce_scatter",
    )
)
POSIX_CALLS = frozenset(CALL_IDS[n] for n in ("open", "read", "write", "close"))


def call_id(name: str) -> int:
    """Wire id of a call name; raises on unknown names."""
    try:
        return CALL_IDS[name]
    except KeyError:
        raise InstrumentationError(f"unknown MPI call name {name!r}") from None


def encode_event(record: CallRecord) -> bytes:
    """Encode one PMPI call record into its 40-byte wire form."""
    return _RECORD_STRUCT.pack(
        call_id(record.name),
        0,
        record.peer,
        record.tag,
        max(0, record.comm_size),
        record.nbytes,
        record.t_start,
        record.t_end,
    )


#: Bound once for the pack builder, whose ``add()`` packs each record with
#: this single call straight into its preallocated buffer.
pack_record_into = _RECORD_STRUCT.pack_into


def decode_events(buffer: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Zero-copy decode of concatenated event records.

    Raises :class:`InstrumentationError` if the buffer is not a whole number
    of records or shorter than ``count`` records.
    """
    view = memoryview(buffer)
    if count is None:
        if len(view) % EVENT_RECORD_SIZE:
            raise InstrumentationError(
                f"event buffer of {len(view)} bytes is not a record multiple"
            )
        count = len(view) // EVENT_RECORD_SIZE
    needed = count * EVENT_RECORD_SIZE
    if len(view) < needed:
        raise InstrumentationError(
            f"event buffer of {len(view)} bytes shorter than {count} records"
        )
    return np.frombuffer(view[:needed], dtype=EVENT_DTYPE)
