"""Frozen pre-``EventBatch`` ``update()`` bodies of the seven analysis modules.

Kept only for tests: ``test_analysis_differential.py`` feeds the same event
batches to these and to the live modules and requires bit-equal state.  Each
function is the old method verbatim (``OTF2Proxy``'s with the deleted
``SelectionConfig.call_ids()`` inlined), taking the live class's instance as
``self`` (constructors, ``merge`` and the result accessors did not change),
so a difference can only come from the accumulation path.

Do not "fix" or speed these up — ``CommMatrix``'s reject-after-partial-update
behaviour included; they are the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.profiler import _CallStats
from repro.errors import ReproError
from repro.instrument.events import (
    CALL_IDS,
    COLLECTIVE_CALLS,
    P2P_SEND_CALLS,
    WAIT_CALLS,
)

_WAITSTATE_BLOCKING = frozenset(WAIT_CALLS) | {CALL_IDS["MPI_Recv"]}
_ALERT_BLOCKING = np.array(sorted(set(WAIT_CALLS) | {CALL_IDS["MPI_Recv"]}), dtype="<u2")
_ALERT_SENDS = np.array(sorted(P2P_SEND_CALLS), dtype="<u2")
_LATE_SEND_CALLS = np.array(
    [CALL_IDS["MPI_Send"], CALL_IDS["MPI_Isend"], CALL_IDS["MPI_Sendrecv"]],
    dtype="<u2",
)
_LATE_RECV_CALLS = np.array([CALL_IDS["MPI_Recv"], CALL_IDS["MPI_Wait"]], dtype="<u2")


def profile_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"event batch from rank {rank} outside app of {self.app_size}")
    if len(events) == 0:
        return
    durations = events["t_end"] - events["t_start"]
    self.events_total += len(events)
    self.bytes_total += int(events["nbytes"].clip(min=0).sum())
    self.rank_t0[rank] = min(self.rank_t0[rank], float(events["t_start"].min()))
    self.rank_t1[rank] = max(self.rank_t1[rank], float(events["t_end"].max()))
    self.rank_events[rank] += len(events)
    for call in np.unique(events["call"]):
        mask = events["call"] == call
        stats = self.calls.setdefault(int(call), _CallStats())
        stats.hits += int(mask.sum())
        d = durations[mask]
        stats.time += float(d.sum())
        stats.nbytes += int(events["nbytes"][mask].clip(min=0).sum())
        stats.t_min = min(stats.t_min, float(d.min()))
        stats.t_max = max(stats.t_max, float(d.max()))


def density_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    if len(events) == 0:
        return
    durations = events["t_end"] - events["t_start"]
    for call in np.unique(events["call"]):
        mask = events["call"] == call
        vecs = self._vectors(int(call))
        vecs["hits"][rank] += int(mask.sum())
        vecs["time"][rank] += float(durations[mask].sum())
        vecs["size"][rank] += float(events["nbytes"][mask].clip(min=0).sum())


def waitstate_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    if len(events) == 0:
        return
    durations = events["t_end"] - events["t_start"]
    blocking = np.isin(
        events["call"], np.array(sorted(_WAITSTATE_BLOCKING), dtype=events["call"].dtype)
    )
    collective = np.isin(
        events["call"], np.array(sorted(COLLECTIVE_CALLS), dtype=events["call"].dtype)
    )
    self.wait_time[rank] += float(durations[blocking].sum())
    self.collective_time[rank] += float(durations[collective].sum())
    self.window_t0[rank] = min(self.window_t0[rank], float(events["t_start"].min()))
    self.window_t1[rank] = max(self.window_t1[rank], float(events["t_end"].max()))


def topology_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    send_ids = np.array(sorted(P2P_SEND_CALLS), dtype=events["call"].dtype)
    mask = np.isin(events["call"], send_ids) & (events["peer"] >= 0)
    if not mask.any():
        return
    peers = events["peer"][mask].astype(np.int64)
    nbytes = events["nbytes"][mask].clip(min=0).astype(np.float64)
    times = (events["t_end"] - events["t_start"])[mask]
    uniq, inverse = np.unique(peers, return_inverse=True)
    hit_sums = np.bincount(inverse)
    byte_sums = np.bincount(inverse, weights=nbytes)
    time_sums = np.bincount(inverse, weights=times)
    for i, dst in enumerate(uniq):
        if dst >= self.app_size:
            raise ReproError(f"send to rank {dst} outside app of {self.app_size}")
        cell = self.cells.setdefault((rank, int(dst)), [0.0, 0.0, 0.0])
        cell[0] += float(hit_sums[i])
        cell[1] += float(byte_sums[i])
        cell[2] += float(time_sums[i])


def alerts_update(self, rank: int, events: np.ndarray) -> list:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    if len(events) == 0:
        return []
    new: list = []
    cfg = self.config
    t_lo = float(events["t_start"].min())
    t_hi = float(events["t_end"].max())
    self._seen[rank] = True
    self._last_event[rank] = max(self._last_event[rank], t_hi)
    span = max(t_hi - t_lo, 1e-12)

    durations = events["t_end"] - events["t_start"]
    blocking = float(durations[np.isin(events["call"], _ALERT_BLOCKING)].sum())
    window = max(span, cfg.window)
    wait_fraction = blocking / window
    if wait_fraction > cfg.wait_threshold:
        new += self._raise("waiting", rank, t_hi, wait_fraction, cfg.wait_threshold)

    sends = int(np.isin(events["call"], _ALERT_SENDS).sum())
    rate = sends / window
    if rate > cfg.rate_threshold:
        new += self._raise("message_rate", rank, t_hi, rate, cfg.rate_threshold)

    self._record(new)
    return new


def otf2proxy_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    self.events_seen += len(events)
    cfg = self.config
    hi = cfg.rank_hi if cfg.rank_hi is not None else self.app_size
    if not (cfg.rank_lo <= rank < hi):
        return
    mask = (events["t_start"] >= cfg.t_min) & (events["t_end"] <= cfg.t_max)
    if cfg.calls is not None:  # the body of the deleted SelectionConfig.call_ids()
        ids = np.array(sorted(CALL_IDS[c] for c in cfg.calls), dtype="<u2")
        mask &= np.isin(events["call"], ids)
    if not mask.any():
        return
    selected = events[mask].copy()
    self._chunks.append((rank, selected))
    self.events_selected += len(selected)


def latesender_update(self, rank: int, events: np.ndarray) -> None:
    if not (0 <= rank < self.app_size):
        raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
    if len(events) == 0:
        return
    send_mask = np.isin(events["call"], _LATE_SEND_CALLS) & (events["peer"] >= 0)
    for ev in events[send_mask]:
        self.sends[(rank, int(ev["peer"]), int(ev["tag"]))].append(
            float(ev["t_start"])
        )
    recv_mask = np.isin(events["call"], _LATE_RECV_CALLS) & (events["peer"] >= 0)
    for ev in events[recv_mask]:
        self.recvs[(int(ev["peer"]), rank, int(ev["tag"]))].append(
            float(ev["t_end"])
        )


#: engine module name -> frozen update body
REFERENCE_UPDATES = {
    "profile": profile_update,
    "topology": topology_update,
    "density": density_update,
    "waitstate": waitstate_update,
    "otf2proxy": otf2proxy_update,
    "alerts": alerts_update,
    "latesender": latesender_update,
}
