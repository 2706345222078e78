"""Versioned pack frames and the composable measurements-reduction pipeline.

:mod:`repro.codec.frame` owns the wire format: one header plus typed,
length-prefixed sections (payload, CRC, provenance, codec descriptor,
sampling accounting).  It is the *only* place frame bytes are parsed;
``instrument.packer``, ``vmpi.stream``, fault tampering and analyzer
ingest all go through it.

:mod:`repro.codec.stages` owns the reduction pipeline: pluggable,
symmetric encode/decode stages composed into a
:class:`~repro.codec.stages.CodecChain` from a spec string such as
``"delta+dict+zlib"``.  The chain's spec travels in the frame's
codec-descriptor section, so a receiver needs no out-of-band
configuration to decode.

This package deliberately imports nothing from :mod:`repro.instrument`,
:mod:`repro.vmpi` or :mod:`repro.analysis` — it sits below all of them.
"""

from repro.codec.stages import build_chain

__all__ = ["build_chain"]
