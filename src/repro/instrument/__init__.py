"""Event instrumentation: record structs, ~1 MB packs, PMPI interceptor.

The paper streams raw C event structures in ~1 MB blocks from every
instrumented rank to its mapped analyzer rank.  Here events are fixed-layout
binary records (40 bytes, decodable zero-copy into a numpy structured array)
accumulated into :class:`~repro.instrument.packer.EventPackBuilder` blocks
and flushed through a VMPI stream by the
:class:`~repro.instrument.interceptor.StreamingInstrumentation` interceptor.
"""

from repro.instrument.events import (
    EVENT_DTYPE,
    EVENT_RECORD_SIZE,
    CALL_IDS,
    CALL_NAMES,
    call_id,
    encode_event,
    decode_events,
)
from repro.instrument.packer import (
    EventPackBuilder,
    PackHeader,
    decode_pack,
    verify_pack,
    PACK_HEADER_SIZE,
)
from repro.instrument.overhead import InstrumentationCost
from repro.instrument.interceptor import StreamingInstrumentation

__all__ = [
    "EVENT_DTYPE",
    "EVENT_RECORD_SIZE",
    "CALL_IDS",
    "CALL_NAMES",
    "call_id",
    "encode_event",
    "decode_events",
    "EventPackBuilder",
    "PackHeader",
    "decode_pack",
    "verify_pack",
    "PACK_HEADER_SIZE",
    "InstrumentationCost",
    "StreamingInstrumentation",
]
