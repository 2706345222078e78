"""Distributed late-sender analysis — the paper's stateful-analysis future work.

Section VI announces a wait-state analysis "taking advantage of a
distributed blackboard", extending the data-flow across analyzer processes.
The difficulty it names is *state*: matching a receive on rank B with its
send on rank A requires both events, but the streams of A and B usually
land on different analyzer ranks.

This module implements that distributed data-flow in two phases:

1. **Local phase** (during streaming) — each analyzer rank reduces its
   slice of the event stream to compact per-message tuples: sends
   ``(src, dst, tag, t_start)`` and receive completions
   ``(src, dst, tag, t_end)``; blocking receives and resolved waits carry
   the matched source, so both sides are available.
2. **Exchange phase** (after EOF) — tuples are *sharded by the sending
   application rank* and redistributed across the analyzer partition (an
   all-to-all), so each shard owns every send **and** every receive of its
   senders.  MPI's non-overtaking guarantee makes k-th-send ↔ k-th-receive
   matching exact per (src, dst, tag) channel.

The result is the classic late-sender metric: for each matched pair, the
receiver waited ``max(0, t_send_start - t_recv_... )`` — here approximated
as the receive-completion time minus the send start when the send started
after the receive was already pending.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.batch import SEND_CALLS, EventBatch, call_lut, per_rank
from repro.errors import ReproError
from repro.instrument.events import CALL_IDS

#: receive completions with a resolved source: blocking recv, sendrecv, wait
_RECV_CALLS = call_lut((CALL_IDS["MPI_Recv"], CALL_IDS["MPI_Wait"]))


class LateSenderAnalysis:
    """Mergeable, shardable send/receive matcher (one per application level)."""

    def __init__(self, app: str, app_size: int):
        if app_size <= 0:
            raise ReproError(f"app_size must be > 0, got {app_size}")
        self.app = app
        self.app_size = app_size
        # channel = (src, dst, tag) -> ordered timestamp lists
        self.sends: dict[tuple[int, int, int], list[float]] = defaultdict(list)
        self.recvs: dict[tuple[int, int, int], list[float]] = defaultdict(list)
        # finalize() results
        self.matched_pairs = 0
        self.unmatched_sends = 0
        self.unmatched_recvs = 0
        self.late: dict[int, list] = {}  # receiver rank -> [late time, pairs]
        self._finalized = False

    # -- local phase ---------------------------------------------------------------

    def update(self, rank: int, events: np.ndarray) -> None:
        """Fold one event batch from application rank ``rank``."""
        if not (0 <= rank < self.app_size):
            raise ReproError(f"batch from rank {rank} outside app of {self.app_size}")
        batch = EventBatch.of(events)
        if len(batch) == 0:
            return
        events, call = batch.events, batch.call
        has_peer = events["peer"] >= 0
        for ev in events[SEND_CALLS[call] & has_peer]:
            self.sends[(rank, int(ev["peer"]), int(ev["tag"]))].append(
                float(ev["t_start"])
            )
        for ev in events[_RECV_CALLS[call] & has_peer]:
            self.recvs[(int(ev["peer"]), rank, int(ev["tag"]))].append(
                float(ev["t_end"])
            )

    # -- exchange phase ----------------------------------------------------------------

    def shard(self, nshards: int) -> list[dict]:
        """Split state into per-shard packets, keyed by the *sender* rank.

        Shard ``i`` receives every channel whose source rank hashes to it,
        i.e. both the send and the receive side of those messages.
        """
        if nshards <= 0:
            raise ReproError(f"nshards must be > 0, got {nshards}")
        packets: list[dict] = [
            {"app": self.app, "sends": {}, "recvs": {}} for _ in range(nshards)
        ]
        for channel, times in self.sends.items():
            packets[channel[0] % nshards]["sends"][channel] = times
        for channel, times in self.recvs.items():
            packets[channel[0] % nshards]["recvs"][channel] = times
        return packets

    def absorb(self, packet: dict) -> None:
        """Fold one exchanged packet into this shard's state."""
        if packet is None:
            return
        if packet.get("app") != self.app:
            raise ReproError("absorbing packet of a different application")
        for channel, times in packet["sends"].items():
            self.sends[channel].extend(times)
        for channel, times in packet["recvs"].items():
            self.recvs[channel].extend(times)

    def reset_local(self) -> None:
        """Drop the pre-exchange local state (it now lives on its shards)."""
        self.sends = defaultdict(list)
        self.recvs = defaultdict(list)

    # -- matching -----------------------------------------------------------------------

    def finalize(self) -> None:
        """Match channels FIFO and accumulate late-sender times."""
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
            if not npairs:
                continue
            cell = self._cell(channel[1])
            for i in range(npairs):
                # The receive completed at recv_times[i]; if the send only
                # *started* close to that completion, the receiver idled.
                lateness = max(0.0, recv_times[i] - send_times[i])
                # Transfer time is part of lateness here; what we attribute
                # is the span between send start and receive completion.
                cell[0] += lateness
            cell[1] += npairs
        for channel, recv_times in self.recvs.items():
            if channel not in self.sends:
                self.unmatched_recvs += len(recv_times)

    # -- reduction ------------------------------------------------------------------------

    def merge(self, other: "LateSenderAnalysis") -> None:
        """Merge *finalized* shard results (post-exchange reduction)."""
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
        for rank, (time, count) in other.late.items():
            cell = self._cell(rank)
            cell[0] += time
            cell[1] += count

    def _cell(self, rank: int) -> list:
        cell = self.late.get(rank)
        if cell is None:
            cell = self.late[rank] = [0.0, 0]
        return cell

    # -- results ---------------------------------------------------------------------------

    @property
    def late_send_time(self) -> np.ndarray:
        """Late-sender time per receiving application rank."""
        return per_rank(self.app_size, self.late, 0)

    @property
    def late_send_count(self) -> np.ndarray:
        """Matched pairs per receiving application rank."""
        return per_rank(self.app_size, self.late, 1, fill=0, dtype=np.int64)

    def summary(self) -> dict[str, float]:
        late = self.late_send_time
        return {
            "matched_pairs": float(self.matched_pairs),
            "unmatched_sends": float(self.unmatched_sends),
            "unmatched_recvs": float(self.unmatched_recvs),
            "late_time_total": float(late.sum()),
            "late_time_max_rank": float(late.max()),
        }

    def worst_receivers(self, k: int = 5) -> list[tuple[int, float]]:
        """Ranks losing the most time to late senders."""
        late = self.late_send_time
        order = np.argsort(late)[::-1][:k]
        return [(int(r), float(late[r])) for r in order if late[r] > 0]
