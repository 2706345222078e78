"""Instrumentation cost model.

These constants set how expensive measuring is — the quantity Figures 15/16
are about.  Values are calibrated against the paper's own numbers and the
usual magnitudes of PMPI-based tools:

* ``PER_EVENT_CPU`` — capture one event: timestamping, reading the call
  context, appending the struct to the current pack.  Direct PMPI
  instrumentation costs range 0.5–5 us/call in the literature; the value is
  calibrated so the most instrumentation-intensive point of the paper's
  grid (SP.C at 900 cores, ~1600 events per rank per step) stays inside the
  paper's "all overheads below 25 %" envelope of Figure 15 (measured ~22 %
  at 1.1 us; 1.8 us overshoots to ~36 %).
* ``VOLUME_MULTIPLIER`` — ratio of *modelled* stream volume to the 40-byte
  core records, accounting for the call context shipped with each event.
  Calibration: the paper reports online volumes ~2.9x larger than Score-P's
  OTF2 traces of the same runs (923.93 MB vs 313 MB at 256 procs; 333.22 GB
  vs 116 GB at 4096).  With OTF2's delta-encoded events at ~28 B/event
  (:data:`repro.baselines.tracer.OTF2_BYTES_PER_EVENT`), 2.0 x 40 B = 80 B
  per online event reproduces that ratio, and yields
  ``Bi(SP.D @ 900) ~ 0.32 GB/s`` against the paper's 334.99 MB/s.
* ``PACK_FLUSH_CPU`` — bookkeeping to seal a block and hand it to the
  stream (excluding the copy, which the stream itself charges).

No run sets another value for these three, so they are module constants,
read at each use (a test may patch one); :class:`InstrumentationCost`
holds the costs runs do vary.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec.stages import build_chain
from repro.errors import ConfigError, ReproError

PER_EVENT_CPU = 1.1e-6
PACK_FLUSH_CPU = 12.0e-6
VOLUME_MULTIPLIER = 2.0


@dataclass(frozen=True)
class InstrumentationCost:
    """Tunable costs of the online instrumentation chain."""

    block_size: int = 1024 * 1024
    na_buffers: int = 3
    # Failure-tolerance knobs, forwarded verbatim to the write stream
    # (see VMPIStream): None write_timeout keeps the classic blocking path.
    write_timeout: float | None = None
    max_retries: int = 3
    overflow: str = "block"
    #: Reduction-chain spec applied at pack seal ("" = identity, e.g.
    #: "delta+dict+zlib"; see :mod:`repro.codec.stages`).
    reduction: str = ""
    #: CPU seconds charged per raw record byte per unit stage cost weight
    #: when encoding a pack (~0.6 ns/B ≈ 1.7 GB/s through a full chain);
    #: zero codec CPU is charged while ``reduction`` is empty.
    codec_per_byte_cpu: float = 0.6e-9

    def __post_init__(self) -> None:
        if self.block_size < 4096:
            raise ConfigError("block_size must be >= 4096")
        if self.na_buffers < 1:
            raise ConfigError("na_buffers must be >= 1")
        if self.codec_per_byte_cpu < 0:
            raise ConfigError("codec_per_byte_cpu must be >= 0")
        if self.reduction:
            try:
                build_chain(self.reduction)
            except ReproError as exc:
                raise ConfigError(
                    f"invalid reduction chain {self.reduction!r}: {exc}"
                ) from exc

    def modeled_bytes(self, real_bytes: int) -> int:
        """Stream bytes charged for a pack of ``real_bytes`` core records."""
        return int(real_bytes * VOLUME_MULTIPLIER)
