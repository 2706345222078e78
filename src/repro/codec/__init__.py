"""Versioned pack frames and the composable measurements-reduction pipeline.

:mod:`repro.codec.frame` owns the wire format: one header plus typed,
length-prefixed sections (payload, CRC, provenance, codec descriptor,
sampling accounting).  It is the *only* place frame bytes are parsed;
``instrument.packer``, ``vmpi.stream``, fault tampering and analyzer
ingest all go through it.

:mod:`repro.codec.stages` owns the reduction pipeline: pluggable,
symmetric encode/decode stages composed into a :class:`CodecChain` from a
spec string such as ``"delta+dict+zlib"``.  The chain's spec travels in
the frame's codec-descriptor section, so a receiver needs no out-of-band
configuration to decode.

This package deliberately imports nothing from :mod:`repro.instrument`,
:mod:`repro.vmpi` or :mod:`repro.analysis` — it sits below all of them.
"""

from repro.codec.frame import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    FRAME_VERSION,
    SEC_CODEC,
    SEC_CRC,
    SEC_PAYLOAD,
    SEC_PROVENANCE,
    SEC_SAMPLING,
    SECTION_HEADER_SIZE,
    Frame,
    PackProvenance,
    build_frame,
    frame_content_size,
    parse_frame,
    peek_provenance,
    section_name,
)
from repro.codec.stages import (
    REGISTERED_CHAINS,
    CodecChain,
    CodecContext,
    EncodeResult,
    Stage,
    available_stages,
    build_chain,
    decode_chain,
)

__all__ = [
    "FRAME_HEADER_SIZE",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "SEC_CODEC",
    "SEC_CRC",
    "SEC_PAYLOAD",
    "SEC_PROVENANCE",
    "SEC_SAMPLING",
    "SECTION_HEADER_SIZE",
    "Frame",
    "PackProvenance",
    "build_frame",
    "frame_content_size",
    "parse_frame",
    "peek_provenance",
    "section_name",
    "REGISTERED_CHAINS",
    "CodecChain",
    "CodecContext",
    "EncodeResult",
    "Stage",
    "available_stages",
    "build_chain",
    "decode_chain",
]
