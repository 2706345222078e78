"""Wait-state analysis (the paper's work-in-progress module, Sec. IV-D).

A preliminary single-engine version of the distributed wait-state analysis
the paper announces as future work: it attributes the time an application
spends inside blocking/completion calls (``MPI_Wait``, ``MPI_Waitall``,
``MPI_Recv``, collectives) per rank, computes the waiting fraction of each
rank's window, and flags *late-sender-like* imbalance: ranks whose waiting
time exceeds the application mean by a configurable factor.

State is keyed by the ranks seen; the per-rank vectors are built on query.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.batch import BLOCKING_CALLS, EventBatch, call_lut, per_rank
from repro.errors import ReproError
from repro.instrument.events import COLLECTIVE_CALLS

_COLLECTIVE = call_lut(COLLECTIVE_CALLS)


class WaitState:
    """Mergeable per-rank waiting-time attribution."""

    def __init__(self, app: str, app_size: int):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        # rank -> [wait time, collective time, window t0, window t1]
        self.ranks: dict[int, list[float]] = {}

    def update(self, rank: int, events: np.ndarray) -> None:
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        if len(batch) == 0:
            return
        call, durations = batch.call, batch.durations
        cell = self._cell(rank)
        # Cross-call sums: a different element set than any per-call group,
        # so they are summed here rather than derived from ``batch.groups``.
        cell[0] += float(np.add.reduce(durations[BLOCKING_CALLS[call]]))
        cell[1] += float(np.add.reduce(durations[_COLLECTIVE[call]]))
        cell[2] = min(cell[2], batch.t0)
        cell[3] = max(cell[3], batch.t1)

    def merge(self, other: "WaitState") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging wait states of different applications")
        for rank, (wait, collective, t0, t1) in other.ranks.items():
            cell = self._cell(rank)
            cell[0] += wait
            cell[1] += collective
            cell[2] = min(cell[2], t0)
            cell[3] = max(cell[3], t1)

    def _cell(self, rank: int) -> list[float]:
        cell = self.ranks.get(rank)
        if cell is None:
            cell = self.ranks[rank] = [0.0, 0.0, math.inf, 0.0]
        return cell

    # -- results ----------------------------------------------------------------------

    @property
    def wait_time(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 0)

    @property
    def collective_time(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 1)

    @property
    def window_t0(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 2, fill=math.inf)

    @property
    def window_t1(self) -> np.ndarray:
        return per_rank(self.app_size, self.ranks, 3)

    def waiting_fraction(self) -> np.ndarray:
        """Per-rank fraction of the observation window spent waiting."""
        t0 = self.window_t0
        spans = self.window_t1 - np.where(np.isfinite(t0), t0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(spans > 0, self.wait_time / spans, 0.0)
        return frac.clip(0.0, 1.0)

    def late_ranks(self, factor: float = 1.5) -> list[int]:
        """Ranks whose waiting time exceeds ``factor`` x the app mean."""
        if factor <= 0:
            raise ReproError(f"factor must be > 0, got {factor}")
        wait = self.wait_time
        mean = wait.mean()
        if mean == 0:
            return []
        return [int(r) for r in np.nonzero(wait > factor * mean)[0]]

    def summary(self) -> dict[str, float]:
        frac = self.waiting_fraction()
        wait = self.wait_time
        return {
            "wait_time_total": float(wait.sum()),
            "wait_time_max": float(wait.max()),
            "wait_fraction_mean": float(frac.mean()),
            "wait_fraction_max": float(frac.max()),
            "collective_time_total": float(self.collective_time.sum()),
            "late_rank_count": float(len(self.late_ranks())),
        }
