"""Density map module: per-rank behaviour comparison (paper Fig. 18).

For every MPI (and POSIX) call name the module maintains three vectors over
application ranks — hits, total time and total size — "useful to identify
spatial imbalances".  Maps can be rendered as 2D ASCII heat grids when the
application's rank layout is a square/rectangular mesh (as the paper's PNG
density maps are).

State is keyed by call and then by the ranks seen; the vectors over every
application rank are built on query.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.batch import EventBatch, per_rank
from repro.errors import ReproError
from repro.instrument.events import CALL_IDS, CALL_NAMES

#: :meth:`DensityMaps.render_grid`'s shades, lowest to highest
_LEVELS = " .:-=+*#%@"


class DensityMaps:
    """Mergeable per-rank x per-call density statistics."""

    METRICS = ("hits", "time", "size")

    def __init__(self, app: str, app_size: int):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        # call id -> rank -> [hits, time, size]
        self.cells: dict[int, dict[int, list[float]]] = {}

    def _cell(self, call: int, rank: int) -> list[float]:
        ranks = self.cells.get(call)
        if ranks is None:
            ranks = self.cells[call] = {}
        cell = ranks.get(rank)
        if cell is None:
            cell = ranks[rank] = [0.0, 0.0, 0.0]
        return cell

    # -- accumulation --------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> None:
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        cells = self.cells
        for call, hits, time, nbytes, _d_min, _d_max in EventBatch.of(events).groups:
            ranks = cells.get(call)
            if ranks is None:
                ranks = cells[call] = {}
            cell = ranks.get(rank)
            if cell is None:
                cell = ranks[rank] = [0.0, 0.0, 0.0]
            cell[0] += hits
            cell[1] += time
            cell[2] += float(nbytes)

    def merge(self, other: "DensityMaps") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging density maps of different applications")
        for call, ranks in other.cells.items():
            for rank, (hits, time, size) in ranks.items():
                cell = self._cell(call, rank)
                cell[0] += hits
                cell[1] += time
                cell[2] += size

    # -- queries -----------------------------------------------------------------------

    @property
    def maps(self) -> dict[int, dict[str, np.ndarray]]:
        """call id -> metric -> vector over every application rank."""
        return {
            call: {
                metric: per_rank(self.app_size, ranks, i)
                for i, metric in enumerate(self.METRICS)
            }
            for call, ranks in self.cells.items()
        }

    def map_for(self, call_name: str, metric: str = "hits") -> np.ndarray:
        """The per-rank vector for one call/metric (zeros if never seen)."""
        if metric not in self.METRICS:
            raise ReproError(f"unknown metric {metric!r}; choose from {self.METRICS}")
        call = CALL_IDS.get(call_name)
        if call is None:
            # calls_seen() names an id past this build's registry "call#<id>".
            prefix, _, digits = call_name.partition("#")
            if prefix != "call" or not digits.isdigit():
                raise ReproError(f"unknown call name {call_name!r}")
            call = int(digits)
        return per_rank(self.app_size, self.cells.get(call, {}), self.METRICS.index(metric))

    def aggregate(self, call_names: list[str], metric: str) -> np.ndarray:
        """Sum of maps over several calls (e.g. all collectives)."""
        total = np.zeros(self.app_size)
        for name in call_names:
            total += self.map_for(name, metric)
        return total

    def imbalance(self, call_name: str, metric: str = "time") -> float:
        """(max - min) / mean over ranks; 0 for a perfectly flat map."""
        vec = self.map_for(call_name, metric)
        mean = vec.mean()
        if mean == 0:
            return 0.0
        return float((vec.max() - vec.min()) / mean)

    def calls_seen(self) -> list[str]:
        return sorted(
            CALL_NAMES[c] if c < len(CALL_NAMES) else f"call#{c}" for c in self.cells
        )

    # -- rendering ------------------------------------------------------------------------

    def render_grid(
        self,
        call_name: str,
        metric: str = "hits",
        columns: int | None = None,
    ) -> str:
        """ASCII heat grid over the rank mesh (row-major rank order)."""
        vec = self.map_for(call_name, metric)
        n = self.app_size
        if columns is None:
            columns = int(math.isqrt(n))
            if columns * columns != n:
                columns = min(n, 32)
        rows = -(-n // columns)
        lo, hi = float(vec.min()), float(vec.max())
        span = hi - lo
        out = [f"{self.app}: {call_name} [{metric}]  min={lo:.4g} max={hi:.4g}"]
        for r in range(rows):
            cells = []
            for c in range(columns):
                idx = r * columns + c
                if idx >= n:
                    break
                if span == 0:
                    cells.append(_LEVELS[0])
                else:
                    level = int((vec[idx] - lo) / span * (len(_LEVELS) - 1))
                    cells.append(_LEVELS[level])
            out.append("".join(cells))
        return "\n".join(out)
