"""Communicators: shared groups and per-rank views.

:class:`CommGroup` is the shared state of a communicator (member list,
collective engine).  :class:`Comm` is the handle a specific rank holds —
its methods are generators driven by that rank's process.  All byte counts
are explicit (``nbytes``); optional ``payload`` objects ride along for
convenience (the VMPI layer ships real event packs this way).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CommunicatorError, MPIError
from repro.mpi.collectives import CollectiveEngine
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.message import Envelope
from repro.mpi.request import Join, Request, waitall as _waitall
from repro.mpi.status import Status
from repro.simt.primitives import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import RankContext, World


class CommGroup:
    """Shared communicator state: ordered global ranks + collective engine."""

    def __init__(self, world: "World", global_ranks: tuple[int, ...], label: str):
        if len(set(global_ranks)) != len(global_ranks):
            raise CommunicatorError(f"duplicate ranks in group {label}")
        self.world = world
        self.global_ranks = tuple(global_ranks)
        self.size = len(self.global_ranks)
        self.label = label
        self.id = world._register_group(self)
        self.rank_of_global = {g: i for i, g in enumerate(self.global_ranks)}
        self.coll = CollectiveEngine(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommGroup {self.label} id={self.id} size={self.size}>"


def _matched(status, peer: int, tag: int, nbytes: int):
    """``around(post=)`` of a receive or wait: the wildcard-resolved fields."""
    if status is None:  # a waited send request has no status
        return peer, tag, nbytes
    return status.source, status.tag, status.nbytes


def _received_total(statuses, peer: int, tag: int, _nbytes: int):
    """``around(post=)`` of ``waitall``: the bytes its receives brought in."""
    total = 0
    for st in statuses:
        if st is not None:
            total += st.nbytes
    return peer, tag, total


class Comm:
    """One rank's handle on a communicator.  Every MPI call is made as
    ``result = yield from comm.<call>(...)``: the point-to-point and wait
    methods return the generator to delegate to, the collectives are
    generators themselves."""

    __slots__ = ("group", "rank", "ctx", "id", "size", "_global_rank", "_coll_seq",
                 "_global_ranks", "_kernel", "_mailbox", "_ranks", "_transfer", "_o_send",
                 "_o_recv", "_eager_threshold", "_eager_copy_bandwidth")

    def __init__(self, group: CommGroup, rank: int, ctx: "RankContext"):
        if not (0 <= rank < group.size):
            raise CommunicatorError(f"rank {rank} outside group of {group.size}")
        self.group = group
        self.rank = rank
        self.ctx = ctx
        # A group's id and membership never change: plain attributes, not
        # properties — the p2p path reads them per message.
        self.id = group.id
        self.size = group.size
        self._global_rank = group.global_ranks[rank]
        self._coll_seq = 0
        # What _raw_isend / _raw_irecv read per message, resolved once: the
        # group's rank table, the rank's kernel and mailbox, the world's
        # rank table and link model, and the cost constants (CostModel is
        # frozen and a world keeps its own for life).
        world = ctx.world
        cost = world.cost
        self._global_ranks = group.global_ranks
        self._kernel = ctx.kernel
        self._mailbox = ctx.mailbox
        self._ranks = world.ranks
        self._transfer = world.cluster.transfer
        self._o_send = cost.o_send
        self._o_recv = cost.o_recv
        self._eager_threshold = cost.eager_threshold
        self._eager_copy_bandwidth = cost.eager_copy_bandwidth

    # -- basic properties ---------------------------------------------------------

    @property
    def label(self) -> str:
        return self.group.label

    def global_rank_of(self, rank: int) -> int:
        if not (0 <= rank < self.size):
            raise CommunicatorError(
                f"rank {rank} outside communicator {self.label} of size {self.size}"
            )
        return self.group.global_ranks[rank]

    # -- point-to-point -------------------------------------------------------------
    #
    # Each call hands its body generator to PMPIStack.around, with the Comm
    # positional, and returns the generator that comes back -- the body
    # itself while no interceptor is attached -- for the caller to
    # ``yield from``: no generator frame of the Comm's own in between, and
    # nothing about the record computed unless an interceptor is attached.

    def isend(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Non-blocking send: returns the generator to ``yield from`` for the Request."""
        return self.ctx.pmpi.around(
            "MPI_Isend", self._raw_isend(dest, nbytes, tag, payload),
            self, dest, tag, nbytes,
        )

    def send(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Blocking send (eager/rendezvous rules): returns the generator to ``yield from``."""
        return self.ctx.pmpi.around(
            "MPI_Send", self._raw_isend(dest, nbytes, tag, payload, True),
            self, dest, tag, nbytes,
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking receive: returns the generator to ``yield from`` for the Request."""
        return self.ctx.pmpi.around("MPI_Irecv", self._raw_irecv(source, tag), self, source, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive: returns the generator to ``yield from`` for the matched Status."""
        return self.ctx.pmpi.around(
            "MPI_Recv", self._raw_irecv(source, tag, True),
            self, source, tag, 0, _matched,
        )

    def sendrecv(
        self,
        dest: int,
        send_nbytes: int,
        source: int = ANY_SOURCE,
        tag: int = 0,
        recv_tag: int | None = None,
        payload: Any = None,
    ):
        """Send+receive: returns the generator to ``yield from`` for the receive Status."""

        def _impl():
            send_req = yield from self._raw_isend(dest, send_nbytes, tag, payload)
            status = yield self._mailbox.post(
                self.id, source, tag if recv_tag is None else recv_tag, self._o_recv, waited=True
            )
            yield send_req.event
            return status

        return self.ctx.pmpi.around("MPI_Sendrecv", _impl(), self, dest, tag, send_nbytes)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking probe: returns the generator to ``yield from`` for a Status or None."""

        def _impl():
            yield 0.0
            env = self.ctx.mailbox.probe(self.id, source, tag)
            if env is None:
                return None
            return Status(source=env.src, tag=env.tag, nbytes=env.nbytes)

        return self.ctx.pmpi.around("MPI_Iprobe", _impl(), self, source, tag)

    # -- p2p machinery ----------------------------------------------------------------

    def _raw_isend(self, dest: int, nbytes: int, tag: int, payload: Any,
                   blocking: bool = False):
        """Generator: the un-intercepted send machinery; returns the Request.

        With ``blocking`` (``MPI_Send``) it returns once the send is complete,
        with no Request (``None``): an eager one as soon as it is delivered —
        the copy that completes it is the CPU delay, and nobody else waits.
        """
        if nbytes < 0:
            raise MPIError(f"negative message size: {nbytes}")
        if not (0 <= dest < self.size):
            raise CommunicatorError(
                f"rank {dest} outside communicator {self.label} of size {self.size}"
            )
        g_dst = self._global_ranks[dest]
        kernel = self._kernel
        eager = nbytes <= self._eager_threshold
        # Sender CPU: the send overhead, plus the copy into MPI buffering on
        # the eager path — charged as one delay.
        yield self._o_send + (nbytes / self._eager_copy_bandwidth if eager else 0.0)
        arrival = self._transfer(self._global_rank, g_dst, nbytes)
        if eager:
            match_event = None
            if not blocking:
                completion = SimEvent(kernel, "isend.eager")
                completion.succeed()
        else:
            match_event = SimEvent(kernel, "isend.match")
            completion = Join(kernel, [match_event, arrival], "isend.complete")
        env = Envelope(self.id, self.rank, tag, nbytes, payload, arrival, match_event)
        self._ranks[g_dst].mailbox.deliver(env)
        if blocking:
            if not eager:
                yield completion
            return None
        req = Request(kernel, completion, "send")
        req.envelope = env
        return req

    def _raw_irecv(self, source: int, tag: int, blocking: bool = False):
        """Generator: the un-intercepted receive machinery.

        Posts the receive and returns its Request, or — with ``blocking``
        (``MPI_Recv``) — waits for the message and returns its Status.
        """
        completion = self._mailbox.post(self.id, source, tag, self._o_recv, blocking)
        if blocking:
            return (yield completion)
        return Request(self._kernel, completion, "recv")

    # -- collectives -----------------------------------------------------------------

    def _collective(
        self,
        mpi_name: str,
        op: str,
        nbytes: int,
        root: int = 0,
        payload: Any = None,
        reduce_fn: Callable | None = None,
    ):
        if not (0 <= root < self.size):
            raise CommunicatorError(f"root {root} outside {self.label}")
        seq = self._coll_seq
        self._coll_seq += 1

        def _impl():
            completion = self.group.coll.join(
                self.rank, seq, op, nbytes, root=root, payload=payload, reduce_fn=reduce_fn
            )
            result = yield completion
            return result

        return self.ctx.pmpi.around(mpi_name, _impl(), self, -1, -1, nbytes)

    def barrier(self):
        """Generator: synchronize all ranks of the communicator."""
        yield from self._collective("MPI_Barrier", "barrier", 0)

    def bcast(self, nbytes: int, root: int = 0, payload: Any = None):
        """Generator: broadcast; returns root's payload on every rank."""
        result = yield from self._collective("MPI_Bcast", "bcast", nbytes, root, payload)
        return result

    def reduce(self, nbytes: int, root: int = 0, payload: Any = None, reduce_fn=None):
        """Generator: reduce to root; returns folded payload at root else None."""
        result = yield from self._collective(
            "MPI_Reduce", "reduce", nbytes, root, payload, reduce_fn
        )
        return result

    def allreduce(self, nbytes: int, payload: Any = None, reduce_fn=None):
        """Generator: allreduce; returns folded payload on every rank."""
        result = yield from self._collective(
            "MPI_Allreduce", "allreduce", nbytes, 0, payload, reduce_fn
        )
        return result

    def gather(self, nbytes: int, root: int = 0, payload: Any = None):
        """Generator: gather; returns rank-ordered list at root else None."""
        result = yield from self._collective("MPI_Gather", "gather", nbytes, root, payload)
        return result

    def allgather(self, nbytes: int, payload: Any = None):
        """Generator: allgather; returns rank-ordered list on every rank."""
        result = yield from self._collective("MPI_Allgather", "allgather", nbytes, 0, payload)
        return result

    def scatter(self, nbytes: int, root: int = 0, payload: Any = None):
        """Generator: scatter; root passes a list, each rank gets its item."""
        result = yield from self._collective("MPI_Scatter", "scatter", nbytes, root, payload)
        return result

    def alltoall(self, nbytes: int, payload: Any = None):
        """Generator: all-to-all; ``nbytes`` is the per-pair chunk size."""
        result = yield from self._collective("MPI_Alltoall", "alltoall", nbytes, 0, payload)
        return result

    def reduce_scatter(self, nbytes: int, payload: Any = None, reduce_fn=None):
        """Generator: reduce-scatter (folded result delivered to every rank)."""
        result = yield from self._collective(
            "MPI_Reduce_scatter", "reduce_scatter", nbytes, 0, payload, reduce_fn
        )
        return result

    # -- wait operations (intercepted: profilers track time in waits) ----------------

    def wait(self, request: Request):
        """MPI_Wait: returns the generator to ``yield from`` for the Status (or None)."""
        return self.ctx.pmpi.around("MPI_Wait", request.wait(), self, -1, -1, 0, _matched)

    def waitall(self, requests: list[Request]):
        """MPI_Waitall: returns the generator to ``yield from`` for the list of statuses."""
        return self.ctx.pmpi.around(
            "MPI_Waitall", _waitall(self.ctx.kernel, requests),
            self, -1, -1, 0, _received_total,
        )

    # -- communicator management -------------------------------------------------------

    def split(self, color: int | None, key: int | None = None):
        """Generator: MPI_Comm_split; returns the new Comm (None if color<0)."""
        sort_key = self.rank if key is None else key
        seq = self._coll_seq
        self._coll_seq += 1

        def _impl():
            completion = self.group.coll.join(
                self.rank,
                seq,
                "allgather",
                nbytes=12,
                payload=(color, sort_key, self.rank),
            )
            triples = yield completion
            if color is None or color < 0:
                return None
            mine = sorted((k, r) for (c, k, r) in triples if c == color)
            members = tuple(self.global_rank_of(r) for _k, r in mine)
            group = self.ctx.world.intern_group(
                members,
                f"{self.label}/split{color}",
                key=(self.id, "split", seq, color),
            )
            new_rank = members.index(self.global_rank_of(self.rank))
            return Comm(group, new_rank, self.ctx)

        return (yield from self.ctx.pmpi.around("MPI_Comm_split", _impl(), self))

    def dup(self):
        """Generator: MPI_Comm_dup; returns a new Comm over the same group."""
        seq = self._coll_seq
        self._coll_seq += 1

        def _impl():
            completion = self.group.coll.join(self.rank, seq, "barrier", nbytes=0)
            yield completion
            group = self.ctx.world.intern_group(
                self.group.global_ranks,
                f"{self.label}/dup",
                key=(self.id, "dup", seq),
            )
            return Comm(group, self.rank, self.ctx)

        return (yield from self.ctx.pmpi.around("MPI_Comm_dup", _impl(), self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm {self.label} rank={self.rank}/{self.size}>"
