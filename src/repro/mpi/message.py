"""Message envelopes and tag/source matching.

Every rank owns a :class:`Mailbox`.  Senders *deliver* an
:class:`Envelope` at send time (zero matching latency — payload timing is
carried separately by the envelope's arrival event); receivers *post*
receives.  Matching is FIFO per communicator with MPI wildcard semantics
(``ANY_SOURCE`` / ``ANY_TAG``), which preserves the MPI non-overtaking
guarantee because envelope delivery order follows simulated program order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import MPIError
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.status import Status
from repro.simt.primitives import SimEvent, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel


class Envelope:
    """One in-flight point-to-point message (metadata + optional payload)."""

    __slots__ = (
        "comm_id",
        "src",
        "tag",
        "nbytes",
        "payload",
        "arrival",
        "match_event",
        "matched",
    )

    def __init__(
        self,
        comm_id: int,
        src: int,
        tag: int,
        nbytes: int,
        payload: Any,
        arrival: SimEvent,
        match_event: SimEvent | None,
    ):
        self.comm_id = comm_id
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        #: Event fired when the payload has fully arrived at the destination.
        self.arrival = arrival
        #: Event fired when a receive matches (rendezvous send completion).
        self.match_event = match_event
        self.matched = False


class PostedRecv:
    """A receive waiting for a matching envelope; once matched, the object
    whose bound methods ride the arrival (and receive-overhead) events."""

    __slots__ = ("src", "tag", "completion", "o_recv", "waited", "env", "status")

    def __init__(self, src: int, tag: int, completion: SimEvent, o_recv: float, waited=False):
        self.src = src
        self.tag = tag
        self.completion = completion
        self.o_recv = o_recv
        #: posted by a blocking call: receive overhead and completion are one
        #: heap entry.  Transitional — valid for every post, but the others run
        #: where ``kernel_events`` is a golden fingerprint; the flag and
        #: ``_finish`` go when it is not (ROADMAP item 2, DESIGN 14).
        self.waited = waited
        self.env: Envelope | None = None  # the matched envelope
        self.status: Status | None = None  # built when its payload is in

    def matches(self, env: Envelope) -> bool:
        if self.src != ANY_SOURCE and self.src != env.src:
            return False
        if self.tag != ANY_TAG and self.tag != env.tag:
            return False
        return True

    def _arrived(self, _arrival: SimEvent) -> None:
        """The matched payload is in: charge the receive overhead, complete."""
        env = self.env
        status = Status(env.src, env.tag, env.nbytes, env.payload)
        if not self.o_recv > 0:
            self.completion.succeed(status)
        elif self.waited:
            self.completion.succeed_after(self.o_recv, status)
        else:
            self.status = status
            Timeout(self.completion.kernel, self.o_recv).callbacks.append(self._finish)

    def _finish(self, _tick: SimEvent) -> None:
        self.completion.succeed(self.status)


class Mailbox:
    """Per-rank matching structure, segregated by communicator id.

    Each communicator's queues are plain lists: a match removes near the
    front of a short queue, and an empty list costs a tenth of a ``deque``.
    """

    __slots__ = ("kernel", "owner_rank", "_recv_name", "_unexpected", "_posted",
                 "_n_unexpected", "delivered", "unexpected_peak")

    def __init__(self, kernel: "Kernel", owner_rank: int):
        self.kernel = kernel
        self.owner_rank = owner_rank
        self._recv_name = f"recv@r{owner_rank}"  # formatted once, not per post
        self._unexpected: dict[int, list[Envelope]] = {}
        self._posted: dict[int, list[PostedRecv]] = {}
        #: envelopes queued in ``_unexpected`` right now, over every
        #: communicator — kept running so a delivery never rescans them
        self._n_unexpected = 0
        self.delivered = 0
        self.unexpected_peak = 0

    # -- sender side --------------------------------------------------------------

    def deliver(self, env: Envelope) -> None:
        """Offer an envelope for matching (called at send time)."""
        self.delivered += 1
        posted = self._posted.get(env.comm_id)
        if posted:
            for i, recv in enumerate(posted):
                if recv.matches(env):
                    del posted[i]
                    self._complete(recv, env)
                    return
        queue = self._unexpected.get(env.comm_id)
        if queue is None:
            queue = self._unexpected[env.comm_id] = []
        queue.append(env)
        self._n_unexpected = total = self._n_unexpected + 1
        if total > self.unexpected_peak:
            self.unexpected_peak = total

    # -- receiver side -------------------------------------------------------------

    def post(self, comm_id: int, src: int, tag: int, o_recv: float,
             waited: bool = False) -> SimEvent:
        """Post a receive; returns its completion event (value = Status).
        ``waited``: the caller is its one waiter (see :class:`PostedRecv`)."""
        completion = SimEvent(self.kernel, self._recv_name)
        recv = PostedRecv(src, tag, completion, o_recv, waited)
        queue = self._unexpected.get(comm_id)
        if queue:
            for i, env in enumerate(queue):
                if recv.matches(env):
                    del queue[i]
                    self._n_unexpected -= 1
                    self._complete(recv, env)
                    return completion
        posted = self._posted.get(comm_id)
        if posted is None:
            posted = self._posted[comm_id] = []
        posted.append(recv)
        return completion

    def probe(self, comm_id: int, src: int, tag: int) -> Envelope | None:
        """Non-destructive match against the unexpected queue (``MPI_Iprobe``)."""
        queue = self._unexpected.get(comm_id)
        if not queue:
            return None
        template = PostedRecv(src, tag, None, 0.0)  # type: ignore[arg-type]
        for env in queue:
            if template.matches(env):
                return env
        return None

    # -- internals -------------------------------------------------------------------

    def _complete(self, recv: PostedRecv, env: Envelope) -> None:
        if env.matched:
            raise MPIError("envelope matched twice (matching bug)")
        env.matched = True
        match_event = env.match_event
        if match_event is not None and match_event.state == 0:  # still pending
            match_event.succeed()
        recv.env = env
        env.arrival.add_callback(recv._arrived)

    def pending_counts(self) -> tuple[int, int]:
        """(unexpected envelopes, posted receives) across communicators."""
        posted = sum(len(q) for q in self._posted.values())
        return self._n_unexpected, posted
