"""Frozen pre-``EventBatch`` analysis modules, dense per-rank state and all.

Kept only for tests: ``test_analysis_differential.py`` feeds the same event
batches to these and to the live modules and requires bit-equal dense views.
Each ``*_update`` function is the old method verbatim (``OTF2Proxy``'s with the
deleted ``SelectionConfig.call_ids()`` inlined).  The live modules key their
per-rank state by the ranks seen; the ``Dense*`` classes below keep the vectors
over every application rank they replaced — constructor, ``merge`` and the
accessors that read them, verbatim — and expose them under the live classes'
view names, so the live query code runs unchanged on the old state.
``CommMatrix`` and ``OTF2Proxy`` hold no per-rank vectors: their reference is
the live class with the frozen ``update``.

Do not "fix" or speed these up — ``CommMatrix``'s reject-after-partial-update
behaviour included; they are the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.alerts import AlertMonitor
from repro.analysis.density import DensityMaps
from repro.analysis.latesender import LateSenderAnalysis
from repro.analysis.otf2proxy import OTF2Proxy
from repro.analysis.profiler import MPIProfile, _CallStats
from repro.analysis.topology import CommMatrix
from repro.analysis.waitstate import WaitState
from repro.errors import ReproError
from repro.instrument.events import (
    CALL_IDS,
    CALL_NAMES,
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


# -- the dense state the live modules no longer hold -----------------------------------


def _dense(name: str) -> property:
    """A vector of ``self._dense``, under the name of the live class's view."""

    def set_(self, value):
        self._dense[name] = value

    return property(lambda self: self._dense[name], set_)


class DenseMPIProfile(MPIProfile):
    update = profile_update
    rank_t0, rank_t1, rank_events = _dense("rank_t0"), _dense("rank_t1"), _dense("rank_events")

    def __init__(self, app: str, app_size: int):
        super().__init__(app, app_size)
        del self.ranks
        self._dense = {
            "rank_t0": np.full(app_size, np.inf),
            "rank_t1": np.zeros(app_size),
            "rank_events": np.zeros(app_size, dtype=np.int64),
        }

    def merge(self, other):
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging profiles of different applications")
        for call, stats in other.calls.items():
            self.calls.setdefault(call, _CallStats()).merge(stats)
        self.events_total += other.events_total
        self.bytes_total += other.bytes_total
        np.minimum(self.rank_t0, other.rank_t0, out=self.rank_t0)
        np.maximum(self.rank_t1, other.rank_t1, out=self.rank_t1)
        self.rank_events += other.rank_events


class DenseDensityMaps(DensityMaps):
    update = density_update
    maps = _dense("maps")

    def __init__(self, app: str, app_size: int):
        super().__init__(app, app_size)
        del self.cells
        self._dense = {"maps": {}}

    def _vectors(self, call: int) -> dict:
        entry = self.maps.get(call)
        if entry is None:
            entry = {
                "hits": np.zeros(self.app_size),
                "time": np.zeros(self.app_size),
                "size": np.zeros(self.app_size),
            }
            self.maps[call] = entry
        return entry

    def merge(self, other):
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging density maps of different applications")
        for call, vecs in other.maps.items():
            mine = self._vectors(call)
            for metric in self.METRICS:
                mine[metric] += vecs[metric]

    def map_for(self, call_name: str, metric: str = "hits") -> np.ndarray:
        if metric not in self.METRICS:
            raise ReproError(f"unknown metric {metric!r}; choose from {self.METRICS}")
        call = CALL_IDS.get(call_name)
        if call is None:
            prefix, _, digits = call_name.partition("#")
            if prefix != "call" or not digits.isdigit():
                raise ReproError(f"unknown call name {call_name!r}")
            call = int(digits)
        vecs = self.maps.get(call)
        if vecs is None:
            return np.zeros(self.app_size)
        return vecs[metric].copy()

    def calls_seen(self) -> list[str]:
        return sorted(
            CALL_NAMES[c] if c < len(CALL_NAMES) else f"call#{c}" for c in self.maps
        )


class DenseWaitState(WaitState):
    update = waitstate_update
    wait_time, collective_time = _dense("wait_time"), _dense("collective_time")
    window_t0, window_t1 = _dense("window_t0"), _dense("window_t1")

    def __init__(self, app: str, app_size: int):
        super().__init__(app, app_size)
        del self.ranks
        self._dense = {
            "wait_time": np.zeros(app_size),
            "collective_time": np.zeros(app_size),
            "window_t0": np.full(app_size, np.inf),
            "window_t1": np.zeros(app_size),
        }

    def merge(self, other):
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging wait states of different applications")
        self.wait_time += other.wait_time
        self.collective_time += other.collective_time
        np.minimum(self.window_t0, other.window_t0, out=self.window_t0)
        np.maximum(self.window_t1, other.window_t1, out=self.window_t1)


class DenseAlertMonitor(AlertMonitor):
    update = alerts_update
    last_event = property(lambda self: self._last_event)
    seen = property(lambda self: self._seen)

    def __init__(self, app: str, app_size: int, config=None, router=None):
        super().__init__(app, app_size, config, router)
        self._last_event = np.zeros(app_size)
        self._seen = np.zeros(app_size, dtype=bool)

    def finalize(self, t_end: float) -> list:
        new: list = []
        for rank in range(self.app_size):
            if not self._seen[rank]:
                continue
            silence = t_end - self._last_event[rank]
            if silence > self.config.silence_threshold:
                new += self._raise(
                    "silence", rank, t_end, silence, self.config.silence_threshold
                )
        self._record(new)
        return new

    def merge(self, other):
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging alert monitors of different applications")
        self.alerts.extend(other.alerts)
        np.maximum(self._last_event, other._last_event, out=self._last_event)
        self._seen |= other._seen


class DenseLateSenderAnalysis(LateSenderAnalysis):
    update = latesender_update
    late_send_time, late_send_count = _dense("late_send_time"), _dense("late_send_count")

    def __init__(self, app: str, app_size: int):
        super().__init__(app, app_size)
        del self.late
        self._dense = {
            "late_send_time": np.zeros(app_size),
            "late_send_count": np.zeros(app_size, dtype=np.int64),
        }

    def finalize(self) -> None:
        if self._finalized:
            raise ReproError("finalize() called twice")
        self._finalized = True
        for channel, send_times in self.sends.items():
            recv_times = self.recvs.get(channel, [])
            send_times.sort()
            recv_times.sort()
            npairs = min(len(send_times), len(recv_times))
            self.matched_pairs += npairs
            self.unmatched_sends += len(send_times) - npairs
            self.unmatched_recvs += len(recv_times) - npairs
            receiver = channel[1]
            for i in range(npairs):
                lateness = max(0.0, recv_times[i] - send_times[i])
                self.late_send_time[receiver] += lateness
                self.late_send_count[receiver] += 1
        for channel, recv_times in self.recvs.items():
            if channel not in self.sends:
                self.unmatched_recvs += len(recv_times)

    def merge(self, other):
        if other.app != self.app or other.app_size != self.app_size:
            raise ReproError("merging late-sender analyses of different apps")
        if self._finalized != other._finalized:
            raise ReproError("merging finalized with unfinalized state")
        if not self._finalized:
            for channel, times in other.sends.items():
                self.sends[channel].extend(times)
            for channel, times in other.recvs.items():
                self.recvs[channel].extend(times)
            return
        self.matched_pairs += other.matched_pairs
        self.unmatched_sends += other.unmatched_sends
        self.unmatched_recvs += other.unmatched_recvs
        self.late_send_time += other.late_send_time
        self.late_send_count += other.late_send_count


#: engine module name -> reference class (its ``update`` the frozen body)
REFERENCE_CLASSES = {
    "profile": DenseMPIProfile,
    "topology": type("ReferenceCommMatrix", (CommMatrix,), {"update": topology_update}),
    "density": DenseDensityMaps,
    "waitstate": DenseWaitState,
    "otf2proxy": type("ReferenceOTF2Proxy", (OTF2Proxy,), {"update": otf2proxy_update}),
    "alerts": DenseAlertMonitor,
    "latesender": DenseLateSenderAnalysis,
}
