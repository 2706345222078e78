"""Non-blocking operation handles (``MPI_Request`` analogue)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import MPIError
from repro.mpi.status import Status
from repro.simt.primitives import FAILED, PENDING, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel


class Join(SimEvent):
    """Fires once every child has fired, with no value; the first failure
    propagates.

    :class:`~repro.simt.primitives.AllOf` without the ``{event: value}`` dict
    no MPI caller reads: it succeeds or fails at the same point, so the
    schedule is the same ``(time, seq)`` sequence.  ``events`` must be
    non-empty and on ``kernel``.
    """

    __slots__ = ("_remaining",)

    def __init__(self, kernel: "Kernel", events: list[SimEvent], name: str):
        # SimEvent.__init__ inlined.
        self.kernel = kernel
        self.state = PENDING
        self.value = None
        self.callbacks = []
        self.name = name
        self.num_waiters = -1
        self._remaining = len(events)
        on_child = self._on_child  # bound once, not once per child
        for ev in events:
            callbacks = ev.callbacks
            if callbacks is None:  # already dispatched: counts at once
                on_child(ev)
            else:
                callbacks.append(on_child)

    def _on_child(self, ev: SimEvent) -> None:
        if self.state != PENDING:
            return
        if ev.state == FAILED:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed()


class Request:
    """Handle on a pending send or receive.

    ``yield from req.wait()`` blocks the calling process until completion and
    returns the :class:`~repro.mpi.status.Status` (receives) or ``None``
    (sends).  ``test()`` polls without blocking.
    """

    __slots__ = ("kernel", "event", "kind", "envelope", "_consumed")

    def __init__(self, kernel: "Kernel", event: SimEvent, kind: str):
        self.kernel = kernel
        self.event = event
        self.kind = kind  # "send" | "recv"
        #: For sends: the in-flight Envelope, until delivery consumes it.
        #: Lets transport-level fault handling reach unmatched messages.
        self.envelope = None
        self._consumed = False

    def wait(self):
        """Generator: block until the operation completes."""
        if self._consumed:
            raise MPIError(f"wait() on already-waited {self.kind} request")
        self._consumed = True
        value = yield self.event
        return value if isinstance(value, Status) else None

    def test(self) -> tuple[bool, Status | None]:
        """Non-blocking completion check (``MPI_Test`` without the free)."""
        if not self.event.triggered:
            return False, None
        value = self.event.value
        return True, value if isinstance(value, Status) else None


def waitall(kernel: "Kernel", requests: list[Request]):
    """Generator: block until every request in the list completes.

    Returns the list of statuses (``None`` entries for sends), in request
    order — mirrors ``MPI_Waitall``.
    """
    if not requests:
        return []
    for req in requests:
        if req._consumed:
            raise MPIError("waitall() includes an already-waited request")
        req._consumed = True
    yield Join(kernel, [r.event for r in requests], "waitall")
    out: list[Status | None] = []
    for req in requests:
        value = req.event.value
        out.append(value if isinstance(value, Status) else None)
    return out


def waitany(kernel: "Kernel", requests: list[Request]):
    """Generator: block until one request completes; returns (index, status).

    The completed request is marked consumed; the others stay waitable —
    mirrors ``MPI_Waitany``.
    """
    if not requests:
        raise MPIError("waitany() on empty request list")
    live = [r for r in requests if not r._consumed]
    if not live:
        raise MPIError("waitany() with all requests already waited")
    yield kernel.any_of([r.event for r in live])
    for idx, req in enumerate(requests):
        if not req._consumed and req.event.triggered:
            req._consumed = True
            value = req.event.value
            return idx, (value if isinstance(value, Status) else None)
    raise MPIError("waitany() woke with no completed request (kernel bug)")
