"""PMPI-style interception.

The paper generates its virtualization and instrumentation layers with an
MPI wrapper generator over the PMPI profiling interface.  Here every
simulated MPI call runs through a :class:`PMPIStack`: a stack of
:class:`Interceptor` objects that observe the call, may charge extra CPU
time (instrumentation overhead), and may run blocking work (flushing a full
event pack through a stream exerts backpressure on the application — the
paper's central overhead mechanism).
"""

from __future__ import annotations

import inspect
from typing import TYPE_CHECKING, Any, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import RankContext


class CallRecord(NamedTuple):
    """What an interceptor sees about one completed MPI call.

    An immutable value record, one allocation to build: every intercepted
    call makes one and every interceptor on the stack shares it.
    """

    name: str
    t_start: float
    t_end: float
    comm_id: int
    comm_rank: int
    comm_size: int
    peer: int  # destination / matched source; -1 for collectives
    tag: int  # -1 when not applicable
    nbytes: int

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class Interceptor:
    """Base interceptor; subclass and override the hooks you need.

    ``on_enter`` / ``on_exit`` may return ``None`` (free), a float (CPU
    seconds charged to the calling rank), or a generator (driven to
    completion on the calling rank's timeline — use this for blocking work
    such as stream writes).
    """

    def on_enter(self, ctx: "RankContext", name: str) -> Any:
        return None

    def on_exit(self, ctx: "RankContext", record: CallRecord) -> Any:
        return None

    def on_attach(self, ctx: "RankContext") -> None:
        """Called when the interceptor is installed on a rank."""

    def on_detach(self, ctx: "RankContext") -> None:
        """Called when the rank's program finalizes."""


class PMPIStack:
    """Ordered interceptor stack for one rank."""

    __slots__ = ("ctx", "interceptors", "calls_seen", "_on_enter", "_on_exit", "around")

    def __init__(self, ctx: "RankContext"):
        self.ctx = ctx
        self.interceptors: list[Interceptor] = []
        self.calls_seen = 0
        #: the *overridden* hooks, bound at attach in stack order: ``around``
        #: never calls the base class's no-op once per intercepted call.
        #: Tuples, so a rank nobody intercepts shares the empty singleton.
        self._on_enter: tuple = ()
        self._on_exit: tuple = ()
        #: what every MPI call hands its body generator to, rebound with the
        #: hooks: :func:`_unobserved` (``impl`` straight back, no generator of
        #: its own) while nothing is attached, else :meth:`_intercepted`.
        self.around = _unobserved

    def attach(self, interceptor: Interceptor) -> None:
        self.interceptors.append(interceptor)
        self.around = self._intercepted
        kind = type(interceptor)
        if kind.on_enter is not Interceptor.on_enter:
            self._on_enter += (interceptor.on_enter,)
        if kind.on_exit is not Interceptor.on_exit:
            self._on_exit += (interceptor.on_exit,)
        interceptor.on_attach(self.ctx)

    def detach_all(self) -> None:
        for interceptor in self.interceptors:
            interceptor.on_detach(self.ctx)
        self.interceptors.clear()
        self._on_enter = self._on_exit = ()
        self.around = _unobserved

    @property
    def active(self) -> bool:
        return bool(self.interceptors)

    def _intercepted(self, name: str, impl, comm, peer: int = -1, tag: int = -1,
                     nbytes: int = 0, post=None):
        """Generator: run ``impl`` (a generator) under the interceptors.

        ``comm`` is the :class:`~repro.mpi.communicator.Comm` the call was
        made on; its id, rank and size go into the record, and are read only
        when an interceptor is attached.  ``post(result, peer, tag, nbytes)``
        may return the ``(peer, tag, nbytes)`` that are only known after
        completion (matched source, actual byte count of a wildcard
        receive, ...).
        """
        self.calls_seen += 1
        ctx = self.ctx
        kernel = ctx.kernel
        # Hook results are interpreted inline: the overwhelmingly common
        # None / seconds outcomes never build a _drive generator frame.
        for on_enter in self._on_enter:
            hooked = on_enter(ctx, name)
            if hooked is None:
                continue
            if isinstance(hooked, (int, float)):
                if hooked > 0:
                    yield float(hooked)
                continue
            yield from _drive(hooked)
        t_start = kernel.now
        result = yield from impl
        if post is not None:
            peer, tag, nbytes = post(result, peer, tag, nbytes)
        record = CallRecord(
            name, t_start, kernel.now, comm.id, comm.rank, comm.size, peer, tag, nbytes
        )
        for on_exit in self._on_exit:
            hooked = on_exit(ctx, record)
            if hooked is None:
                continue
            if isinstance(hooked, (int, float)):
                if hooked > 0:
                    yield float(hooked)
                continue
            yield from _drive(hooked)
        return result


def _unobserved(name, impl, comm, peer=-1, tag=-1, nbytes=0, post=None):
    """``PMPIStack.around`` with no interceptor attached: the body itself."""
    return impl


def _drive(hook_result):
    """Generator: interpret a hook's return value (None / float / generator)."""
    if hook_result is None:
        return
    if isinstance(hook_result, (int, float)):
        if hook_result > 0:
            yield float(hook_result)
        return
    if inspect.isgenerator(hook_result):
        yield from hook_result
        return
    raise TypeError(
        f"interceptor hook returned {type(hook_result).__name__}; "
        "expected None, seconds, or a generator"
    )
