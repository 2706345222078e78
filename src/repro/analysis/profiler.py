"""MPI profile module: per-call-name statistics.

Reduces event batches to an ``mpiP``-style interface profile: hits, total /
mean / min / max time, and byte volume per MPI call name, plus per-rank
wall-clock estimates.  States merge across analyzer ranks; the per-rank
part is keyed by the ranks seen and densified on query.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.batch import EventBatch, per_rank
from repro.errors import ReproError
from repro.instrument.events import CALL_NAMES, EVENT_RECORD_SIZE
from repro.util.tables import Table


class _CallStats:
    __slots__ = ("hits", "time", "nbytes", "t_min", "t_max")

    def __init__(self) -> None:
        self.hits = 0
        self.time = 0.0
        self.nbytes = 0
        self.t_min = math.inf
        self.t_max = 0.0

    def merge(self, other: "_CallStats") -> None:
        self.hits += other.hits
        self.time += other.time
        self.nbytes += other.nbytes
        self.t_min = min(self.t_min, other.t_min)
        self.t_max = max(self.t_max, other.t_max)


class MPIProfile:
    """Mergeable per-application MPI interface profile."""

    def __init__(self, app: str, app_size: int):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        self.calls: dict[int, _CallStats] = {}
        self.events_total = 0
        self.bytes_total = 0
        # rank -> [first event t, last event t, events]: wall-time estimates
        self.ranks: dict[int, list] = {}

    # -- accumulation ------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> None:
        """Fold one event batch from one application rank."""
        if not (0 <= rank < self.app_size):
            raise ReproError(f"event batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        count = len(batch)
        if count == 0:
            return
        self.events_total += count
        self.bytes_total += batch.nbytes_total
        cell = self._cell(rank)
        cell[0] = min(cell[0], batch.t0)
        cell[1] = max(cell[1], batch.t1)
        cell[2] += count
        calls = self.calls
        # min()/max() keep the running value unless the new one is strictly
        # smaller/larger; so do the compares below, without the builtin calls.
        for call, hits, time, nbytes, d_min, d_max in batch.groups:
            stats = calls.get(call)
            if stats is None:
                stats = calls[call] = _CallStats()
            stats.hits += hits
            stats.time += time
            stats.nbytes += nbytes
            if d_min < stats.t_min:
                stats.t_min = d_min
            if d_max > stats.t_max:
                stats.t_max = d_max

    def merge(self, other: "MPIProfile") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging profiles of different applications")
        for call, stats in other.calls.items():
            self.calls.setdefault(call, _CallStats()).merge(stats)
        self.events_total += other.events_total
        self.bytes_total += other.bytes_total
        for rank, (t0, t1, events) in other.ranks.items():
            cell = self._cell(rank)
            cell[0] = min(cell[0], t0)
            cell[1] = max(cell[1], t1)
            cell[2] += events

    def _cell(self, rank: int) -> list:
        cell = self.ranks.get(rank)
        if cell is None:
            cell = self.ranks[rank] = [math.inf, 0.0, 0]
        return cell

    # -- results ------------------------------------------------------------------

    @property
    def rank_t0(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 0, fill=math.inf)

    @property
    def rank_t1(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 1)

    @property
    def rank_events(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 2, fill=0, dtype=np.int64)

    @property
    def walltime_estimate(self) -> float:
        """Max first-to-last event span across ranks."""
        t0 = self.rank_t0
        spans = self.rank_t1 - np.where(np.isfinite(t0), t0, 0.0)
        valid = self.rank_events > 0
        return float(spans[valid].max()) if valid.any() else 0.0

    @property
    def mpi_time_total(self) -> float:
        return sum(s.time for s in self.calls.values())

    def instrumentation_bandwidth(self) -> float:
        """``Bi = total event size / execution time`` (paper Sec. IV-C)."""
        wall = self.walltime_estimate
        if wall <= 0:
            return 0.0
        return self.events_total * EVENT_RECORD_SIZE / wall

    def rows(self) -> list[tuple[str, int, float, float, float, float, int]]:
        """(name, hits, total time, mean, min, max, bytes), by time desc."""
        out = []
        for call, stats in self.calls.items():
            name = CALL_NAMES[call] if call < len(CALL_NAMES) else f"call#{call}"
            mean = stats.time / stats.hits if stats.hits else 0.0
            tmin = stats.t_min if stats.hits else 0.0
            out.append((name, stats.hits, stats.time, mean, tmin, stats.t_max, stats.nbytes))
        out.sort(key=lambda row: row[2], reverse=True)
        return out

    def table(self) -> Table:
        t = Table(
            ["call", "hits", "time_s", "mean_s", "min_s", "max_s", "bytes"],
            title=f"MPI profile — {self.app} ({self.app_size} ranks)",
        )
        for row in self.rows():
            t.add_row(*row)
        return t
