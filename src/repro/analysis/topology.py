"""Topological module: communication matrices and graphs (paper Fig. 17).

For every point-to-point communication the module accumulates a sparse
``src -> dst`` matrix weighted in *hits*, *total size* and *total time*.
The graph is exported as DOT text (the paper invokes Graphviz on the same
data).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.batch import EventBatch
from repro.errors import ReproError

#: largest app the DOT export renders (beyond it the graph is unreadable)
DOT_MAX_NODES = 256


class CommMatrix:
    """Mergeable sparse point-to-point communication matrix."""

    def __init__(self, app: str, app_size: int):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        # (src, dst) -> [hits, bytes, time]
        self.cells: dict[tuple[int, int], list[float]] = {}

    # -- accumulation -----------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> None:
        """Fold the send events of one batch (``rank`` is the sender)."""
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        if len(batch) == 0:
            return
        top = batch.send_peer_max
        if top < 0:
            return
        peers = batch.send_peers
        # Validate before touching ``cells``: a rejected batch leaves no trace.
        if top >= self.app_size:
            dst = int(peers[peers >= self.app_size].min())
            raise ReproError(f"send to rank {dst} outside app of {self.app_size}")
        # Per-peer sums in arrival order (bincount adds sequentially); the
        # bins run to the largest peer, which the check above bounds.
        mask = batch.sends
        hits = np.bincount(peers)
        byte_sums = np.bincount(peers, weights=batch.nbytes[mask])
        time_sums = np.bincount(peers, weights=batch.durations[mask])
        dsts = hits.nonzero()[0]
        cells = self.cells
        for dst, nhits, nbytes, time in zip(
            dsts.tolist(),
            hits[dsts].tolist(),
            byte_sums[dsts].tolist(),
            time_sums[dsts].tolist(),
        ):
            cell = cells.get((rank, dst))
            if cell is None:
                cell = cells[(rank, dst)] = [0.0, 0.0, 0.0]
            cell[0] += float(nhits)
            cell[1] += nbytes
            cell[2] += time

    def merge(self, other: "CommMatrix") -> None:
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging comm matrices of different applications")
        for key, vals in other.cells.items():
            cell = self.cells.setdefault(key, [0.0, 0.0, 0.0])
            for i in range(3):
                cell[i] += vals[i]

    # -- queries -----------------------------------------------------------------------

    _WEIGHTS = {"hits": 0, "size": 1, "time": 2}

    def dense(self, weight: str = "size") -> np.ndarray:
        """Dense matrix (use only for small apps / plots)."""
        idx = self._weight_index(weight)
        m = np.zeros((self.app_size, self.app_size))
        for (src, dst), vals in self.cells.items():
            m[src, dst] = vals[idx]
        return m

    def degree_histogram(self) -> dict[int, int]:
        """Out-degree -> count of ranks; reveals mesh structure."""
        degrees: dict[int, int] = {}
        out: dict[int, int] = {}
        for (src, _dst) in self.cells:
            out[src] = out.get(src, 0) + 1
        for rank in range(self.app_size):
            d = out.get(rank, 0)
            degrees[d] = degrees.get(d, 0) + 1
        return degrees

    def top_pairs(self, weight: str = "size", k: int = 10) -> list[tuple[int, int, float]]:
        idx = self._weight_index(weight)
        ranked = sorted(
            ((src, dst, vals[idx]) for (src, dst), vals in self.cells.items()),
            key=lambda t: t[2],
            reverse=True,
        )
        return ranked[:k]

    def totals(self) -> tuple[float, float, float]:
        """(hits, bytes, time) summed over all pairs."""
        hits = sum(v[0] for v in self.cells.values())
        size = sum(v[1] for v in self.cells.values())
        time = sum(v[2] for v in self.cells.values())
        return hits, size, time

    def is_symmetric(self, weight: str = "hits") -> bool:
        """True when every src->dst cell has a matching dst->src cell."""
        idx = self._weight_index(weight)
        for (src, dst), vals in self.cells.items():
            back = self.cells.get((dst, src))
            if back is None or back[idx] != vals[idx]:
                return False
        return True

    def to_dot(self, weight: str = "size") -> str:
        """Graphviz DOT text (what the paper feeds to Graphviz)."""
        if self.app_size > DOT_MAX_NODES:
            raise ReproError(
                f"DOT export limited to {DOT_MAX_NODES} nodes, app has {self.app_size}"
            )
        idx = self._weight_index(weight)
        peak = max((v[idx] for v in self.cells.values()), default=1.0) or 1.0
        lines = [f'digraph "{self.app}" {{']
        lines.append("  node [shape=circle, fontsize=8];")
        for (src, dst), vals in sorted(self.cells.items()):
            w = vals[idx]
            if w <= 0:
                continue
            pen = 0.5 + 3.0 * w / peak
            lines.append(f'  {src} -> {dst} [penwidth={pen:.2f}, label="{w:.3g}"];')
        lines.append("}")
        return "\n".join(lines)

    def _weight_index(self, weight: str) -> int:
        try:
            return self._WEIGHTS[weight]
        except KeyError:
            raise ReproError(
                f"unknown weight {weight!r}; choose from {sorted(self._WEIGHTS)}"
            ) from None
