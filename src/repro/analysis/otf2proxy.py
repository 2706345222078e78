"""Selective trace export — the paper's announced OTF2 IO-proxy module.

Section VI: "we are already working on the implementation of a module,
acting as an IO proxy, to generate selective traces in the OTF2 format in
order to combine our analysis with existing tools such as Vampir".

This module implements that design point: an analysis-side filter that
selects a *subset* of the event stream (by call name, rank range and time
window) and serializes it into a compact OTF2-like container.  The point of
selectivity is the economics: a full trace is what the online coupling
avoids, but a small targeted trace (one misbehaving rank, one time window)
re-enables timeline tools at a fraction of the volume.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.analysis.batch import EventBatch, call_lut
from repro.errors import ConfigError, ReproError
from repro.instrument.events import CALL_IDS, EVENT_DTYPE, EVENT_RECORD_SIZE

_MAGIC = 0x53545243  # "STRC"
_HEADER_FMT = "<IHHI"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)


@dataclass(frozen=True)
class SelectionConfig:
    """What the proxy keeps.  ``None`` means 'no restriction'."""

    calls: frozenset[str] | None = None
    rank_lo: int = 0
    rank_hi: int | None = None  # exclusive; None = app size
    t_min: float = 0.0
    t_max: float = float("inf")

    def __post_init__(self) -> None:
        if self.calls is not None:
            unknown = set(self.calls) - set(CALL_IDS)
            if unknown:
                raise ConfigError(f"unknown call names in selection: {sorted(unknown)}")
        if self.rank_lo < 0:
            raise ConfigError("rank_lo must be >= 0")
        if self.rank_hi is not None and self.rank_hi <= self.rank_lo:
            raise ConfigError("rank_hi must exceed rank_lo")
        if self.t_max < self.t_min:
            raise ConfigError("t_max must be >= t_min")

    @cached_property
    def call_table(self) -> np.ndarray | None:
        """Membership table for ``calls`` (built once per config), or None."""
        if self.calls is None:
            return None
        return call_lut(CALL_IDS[c] for c in self.calls)


class OTF2Proxy:
    """Mergeable selective-trace collector (one per application level)."""

    #: default: keep only point-to-point traffic of every rank
    DEFAULT_CALLS = frozenset(
        {
            "MPI_Send",
            "MPI_Isend",
            "MPI_Sendrecv",
            "MPI_Recv",
            "MPI_Irecv",
            "MPI_Wait",
            "MPI_Waitall",
        }
    )

    def __init__(self, app: str, app_size: int, config: SelectionConfig | None = None):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        self.config = config or SelectionConfig(calls=self.DEFAULT_CALLS)
        self._chunks: list[tuple[int, np.ndarray]] = []  # (rank, selected events)
        self.events_seen = 0
        self.events_selected = 0

    # -- accumulation ----------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> None:
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        events = batch.events
        self.events_seen += len(events)
        cfg = self.config
        hi = cfg.rank_hi if cfg.rank_hi is not None else self.app_size
        if not (cfg.rank_lo <= rank < hi):
            return
        mask = (events["t_start"] >= cfg.t_min) & (events["t_end"] <= cfg.t_max)
        lut = cfg.call_table
        if lut is not None:
            mask &= lut[batch.call]
        if not mask.any():
            return
        selected = events[mask].copy()
        self._chunks.append((rank, selected))
        self.events_selected += len(selected)

    def merge(self, other: "OTF2Proxy") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging proxies of different applications")
        self._chunks.extend(other._chunks)
        self.events_seen += other.events_seen
        self.events_selected += other.events_selected

    # -- output ----------------------------------------------------------------------

    @property
    def selectivity(self) -> float:
        """Fraction of the stream retained (the volume the proxy re-pays)."""
        if self.events_seen == 0:
            return 0.0
        return self.events_selected / self.events_seen

    def trace_bytes(self) -> int:
        """Size of the serialized selective trace."""
        return _HEADER_SIZE + sum(
            8 + len(events) * EVENT_RECORD_SIZE for _r, events in self._chunks
        )

    def serialize(self) -> bytes:
        """Produce the selective trace container (time-sorted per rank)."""
        parts = [struct.pack(_HEADER_FMT, _MAGIC, 1, len(self._chunks) & 0xFFFF, self.events_selected)]
        for rank, events in sorted(self._chunks, key=lambda c: (c[0], c[1]["t_start"][0] if len(c[1]) else 0.0)):
            parts.append(struct.pack("<II", rank, len(events)))
            parts.append(events.tobytes())
        return b"".join(parts)

    @staticmethod
    def deserialize(blob: bytes) -> dict[int, np.ndarray]:
        """Read a selective trace back: rank -> event array."""
        if len(blob) < _HEADER_SIZE:
            raise ReproError("selective trace shorter than header")
        magic, _version, _nchunks, _total = struct.unpack_from(_HEADER_FMT, blob, 0)
        if magic != _MAGIC:
            raise ReproError("bad selective-trace magic")
        out: dict[int, list[np.ndarray]] = {}
        offset = _HEADER_SIZE
        view = memoryview(blob)
        while offset < len(blob):
            rank, count = struct.unpack_from("<II", view, offset)
            offset += 8
            nbytes = count * EVENT_RECORD_SIZE
            events = np.frombuffer(view[offset : offset + nbytes], dtype=EVENT_DTYPE)
            if len(events) != count:
                raise ReproError("truncated selective trace chunk")
            out.setdefault(rank, []).append(events)
            offset += nbytes
        return {rank: np.concatenate(chunks) for rank, chunks in out.items()}

    def write_through(self, fs, path: str = "selective.otf2"):
        """Generator: write the serialized trace through the FS model."""
        from repro.iosim.file import SimFile

        f = SimFile(fs, path)
        yield from f.open()
        yield from f.write(self.trace_bytes())
        yield from f.close()
        return f.size
