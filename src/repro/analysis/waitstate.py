"""Wait-state analysis (the paper's work-in-progress module, Sec. IV-D).

A preliminary single-engine version of the distributed wait-state analysis
the paper announces as future work: it attributes the time an application
spends inside blocking/completion calls (``MPI_Wait``, ``MPI_Waitall``,
``MPI_Recv``, collectives) per rank, computes the waiting fraction of each
rank's window, and flags *late-sender-like* imbalance: ranks whose waiting
time exceeds the application mean by a configurable factor.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.batch import BLOCKING_CALLS, EventBatch, call_lut
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
        self.wait_time = np.zeros(app_size)
        self.collective_time = np.zeros(app_size)
        self.window_t0 = np.full(app_size, np.inf)
        self.window_t1 = np.zeros(app_size)

    def update(self, rank: int, events: np.ndarray) -> None:
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        if len(batch) == 0:
            return
        call, durations = batch.call, batch.durations
        # Cross-call sums: a different element set than any per-call group,
        # so they are summed here rather than derived from ``batch.groups``.
        self.wait_time[rank] += float(durations[BLOCKING_CALLS[call]].sum())
        self.collective_time[rank] += float(durations[_COLLECTIVE[call]].sum())
        self.window_t0[rank] = min(self.window_t0[rank], batch.t0)
        self.window_t1[rank] = max(self.window_t1[rank], batch.t1)

    def merge(self, other: "WaitState") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging wait states of different applications")
        self.wait_time += other.wait_time
        self.collective_time += other.collective_time
        np.minimum(self.window_t0, other.window_t0, out=self.window_t0)
        np.maximum(self.window_t1, other.window_t1, out=self.window_t1)

    # -- results ----------------------------------------------------------------------

    def waiting_fraction(self) -> np.ndarray:
        """Per-rank fraction of the observation window spent waiting."""
        spans = self.window_t1 - np.where(np.isfinite(self.window_t0), self.window_t0, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(spans > 0, self.wait_time / spans, 0.0)
        return frac.clip(0.0, 1.0)

    def late_ranks(self, factor: float = 1.5) -> list[int]:
        """Ranks whose waiting time exceeds ``factor`` x the app mean."""
        if factor <= 0:
            raise ReproError(f"factor must be > 0, got {factor}")
        mean = self.wait_time.mean()
        if mean == 0:
            return []
        return [int(r) for r in np.nonzero(self.wait_time > factor * mean)[0]]

    def summary(self) -> dict[str, float]:
        frac = self.waiting_fraction()
        return {
            "wait_time_total": float(self.wait_time.sum()),
            "wait_time_max": float(self.wait_time.max()),
            "wait_fraction_mean": float(frac.mean()),
            "wait_fraction_max": float(frac.max()),
            "collective_time_total": float(self.collective_time.sum()),
            "late_rank_count": float(len(self.late_ranks())),
        }
