"""One derivation per decoded pack, shared by every analysis module.

The unpacker knowledge source wraps each decoded event array in an
:class:`EventBatch`; every module's ``update()`` reads the columns and the
group-by-call table from it instead of recomputing them.  Derivation is lazy,
so it runs (once) inside the first module that asks, and what no enabled
module reads is never computed.

Float sums must keep the bits the per-module code produced with
``durations[call == c].sum()``: a *stable* sort by call id leaves each call's
durations contiguous and in arrival order, so ``.sum()`` on that slice walks
the same elements through numpy's same pairwise tree.  ``np.add.reduceat`` and
``np.bincount(weights=)`` add sequentially — different rounding — and are
therefore used for the integer and min/max columns only (DESIGN 14).

Module state is keyed by the ranks an analyzer rank has seen; :func:`per_rank`
is the one way back to a vector over the whole application, built on query.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.instrument.events import CALL_IDS, P2P_SEND_CALLS, WAIT_CALLS


def call_lut(call_ids: Iterable[int]) -> np.ndarray:
    """Boolean membership table over every representable ``<u2`` call id.

    ``lut[batch.call]`` is the membership mask of ``call`` in ``call_ids``,
    without rebuilding and searching a sorted id array on every pack.
    """
    lut = np.zeros(1 << 16, dtype=bool)
    lut[np.fromiter(call_ids, dtype=np.intp)] = True
    lut.setflags(write=False)
    return lut


def per_rank(
    size: int, cells: dict[int, Any], field: int | None = None, fill: Any = 0.0, dtype=float
) -> np.ndarray:
    """Read-only vector over ``size`` ranks of ``cells[rank][field]``
    (``cells[rank]`` when ``field`` is None), ``fill`` for unseen ranks.

    ``fill`` is the value a module's first contribution meets (``0.0`` for a
    sum, ``inf`` for a min), so the vector holds the bits a dense
    accumulator would have.
    """
    vec = np.full(size, fill, dtype=dtype)
    if cells:
        values = cells.values() if field is None else [c[field] for c in cells.values()]
        vec[np.fromiter(cells, dtype=np.intp, count=len(cells))] = list(values)
    vec.flags.writeable = False
    return vec


#: call classes more than one module asks about, built once per process
SEND_CALLS = call_lut(P2P_SEND_CALLS)
BLOCKING_CALLS = call_lut(WAIT_CALLS | {CALL_IDS["MPI_Recv"]})


class _derived:
    """``functools.cached_property`` minus its lock: the first read computes
    the value and stores it in the instance ``__dict__``, which every later
    read finds before this (non-data) descriptor.  Two concurrent first
    reads (thread-pool workers running one batch's module jobs) compute the
    same value and one store wins, so there is nothing for a lock to guard.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, batch, owner=None):
        if batch is None:
            return self
        value = batch.__dict__[self.name] = self.fn(batch)
        return value


class EventBatch:
    """A decoded event array plus what the analysis modules derive from it."""

    def __init__(self, events: np.ndarray):
        self.events = events

    @classmethod
    def of(cls, events: "np.ndarray | EventBatch") -> "EventBatch":
        """``events`` itself when it already is a batch, else a new wrapper."""
        return events if isinstance(events, cls) else cls(events)

    def __len__(self) -> int:
        return len(self.events)

    @_derived
    def call(self) -> np.ndarray:
        return np.ascontiguousarray(self.events["call"])

    @_derived
    def durations(self) -> np.ndarray:
        return self.events["t_end"] - self.events["t_start"]

    @_derived
    def nbytes(self) -> np.ndarray:
        """Byte counts with negative (unknown) sizes clipped to 0."""
        return np.maximum(self.events["nbytes"], 0)

    @_derived
    def nbytes_total(self) -> int:
        return int(np.add.reduce(self.nbytes))

    @_derived
    def t0(self) -> float:
        """Earliest ``t_start``; undefined (raises) on an empty batch."""
        return float(np.minimum.reduce(self.events["t_start"]))

    @_derived
    def t1(self) -> float:
        """Latest ``t_end``; undefined (raises) on an empty batch."""
        return float(np.maximum.reduce(self.events["t_end"]))

    @_derived
    def sends(self) -> np.ndarray:
        """Mask of the point-to-point sends that name a destination rank."""
        return SEND_CALLS[self.call] & (self.events["peer"] >= 0)

    @_derived
    def send_peers(self) -> np.ndarray:
        """Destination ranks of :attr:`sends`, in arrival order."""
        return self.events["peer"][self.sends]

    @_derived
    def send_peer_max(self) -> int:
        """Largest of :attr:`send_peers`; -1 when no send names a rank."""
        peers = self.send_peers
        return int(np.maximum.reduce(peers)) if peers.size else -1

    @_derived
    def groups(self) -> list[tuple[int, int, float, int, float, float]]:
        """``(call, hits, time_sum, nbytes_sum, d_min, d_max)`` by ascending call id."""
        call = self.call
        n = len(call)
        if n == 0:
            return []
        order = call.argsort(kind="stable")
        by_call = call[order]
        opens = np.empty(n, dtype=np.bool_)  # sorted row opens a new group
        opens[0] = True
        np.not_equal(by_call[1:], by_call[:-1], out=opens[1:])
        starts = opens.nonzero()[0]
        durations = self.durations[order]
        byte_sums = np.add.reduceat(self.nbytes[order], starts).tolist()
        d_min = np.minimum.reduceat(durations, starts).tolist()
        d_max = np.maximum.reduceat(durations, starts).tolist()
        bounds = starts.tolist()
        bounds.append(n)
        # One pairwise reduce per contiguous slice (what .sum() calls, minus
        # its Python wrapper); see the module docstring.
        add = np.add.reduce
        return [
            (call_id, hi - lo, float(add(durations[lo:hi])), nbytes, lo_d, hi_d)
            for call_id, lo, hi, nbytes, lo_d, hi_d in zip(
                by_call[starts].tolist(), bounds, bounds[1:], byte_sums, d_min, d_max
            )
        ]
