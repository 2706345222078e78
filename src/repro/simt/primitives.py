"""Waitable primitives for the simulation kernel.

A *waitable* is anything a process generator may ``yield``:

* :class:`SimEvent` — a one-shot event that succeeds (with a value) or fails
  (with an exception); processes waiting on it are resumed.
* :class:`Timeout` — an event pre-scheduled to succeed after a delay; to
  compose or hang callbacks on (a process that only waits yields the float).
* :class:`AnyOf` / :class:`AllOf` — composite conditions over events.
* :class:`~repro.simt.process.Process` — processes are themselves events that
  fire on termination, so ``yield other_process`` is a join.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel

# Event lifecycle states.
PENDING = 0
SUCCEEDED = 1
FAILED = 2


class SimEvent:
    """One-shot event.

    Callbacks registered via :meth:`add_callback` run when the event fires;
    the kernel uses them to resume waiting processes.  Firing an already-fired
    event is an error (events are one-shot by design, like SimPy's).
    """

    __slots__ = ("kernel", "state", "value", "callbacks", "name", "num_waiters")

    #: class flag the dispatch loop reads instead of an isinstance() check;
    #: Process overrides it with True
    _is_process = False

    def __init__(self, kernel: "Kernel", name: str = ""):
        self.kernel = kernel
        self.state = PENDING
        self.value: Any = None
        self.callbacks: list[Callable[[SimEvent], None]] = []
        self.name = name
        # callbacks at dispatch time; -1 = not yet, -2 = not yet, but scheduled
        self.num_waiters = -1

    @property
    def triggered(self) -> bool:
        return self.state != PENDING

    @property
    def ok(self) -> bool:
        return self.state == SUCCEEDED

    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self.state != PENDING or self.num_waiters != -1:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        self.state = SUCCEEDED
        self.value = value
        # Schedule the dispatch at the current instant; ties fire in
        # scheduling order.
        kernel = self.kernel
        kernel._seq = seq = kernel._seq + 1
        heappush(kernel._heap, (kernel.now, seq, self))
        return self

    def fail(self, exc: BaseException) -> "SimEvent":
        """Fire the event with an exception; waiters will see it raised."""
        if self.state != PENDING or self.num_waiters != -1:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self.state = FAILED
        self.value = exc
        kernel = self.kernel
        kernel._seq = seq = kernel._seq + 1
        heappush(kernel._heap, (kernel.now, seq, self))
        return self

    def succeed_after(self, delay: float, value: Any = None) -> "SimEvent":
        """Succeed ``delay`` seconds from now, as one heap entry: the
        :class:`Timeout` contract on an existing event (value set now, PENDING
        until the kernel dispatches it), and as one-shot as :meth:`succeed`."""
        if self.state != PENDING or self.num_waiters != -1:
            raise SimulationError(f"event {self.name or id(self)} already triggered")
        if not delay >= 0:  # also rejects NaN, which would poison heap order
            raise SimulationError(f"succeed_after delay must be a number >= 0, got {delay}")
        self.value = value
        self.num_waiters = -2
        kernel = self.kernel
        kernel._seq = seq = kernel._seq + 1
        heappush(kernel._heap, (kernel.now + delay, seq, self))
        return self

    def add_callback(self, cb: Callable[["SimEvent"], None]) -> None:
        """Register ``cb(event)``; called immediately if already dispatched."""
        if self.callbacks is None:  # already dispatched
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {PENDING: "pending", SUCCEEDED: "ok", FAILED: "failed"}[self.state]
        return f"<SimEvent {self.name or hex(id(self))} {state}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` simulated seconds after creation.

    Stays PENDING until the kernel dispatches it (so conditions composed
    over timeouts observe the correct not-yet-fired state); the kernel
    promotes it to SUCCEEDED at its scheduled instant.
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would poison heap order
            raise SimulationError(f"timeout delay must be a number >= 0, got {delay}")
        # SimEvent.__init__ inlined: one frame per timeout, not two.
        self.kernel = kernel
        self.state = PENDING
        self.value = value
        self.callbacks = []
        self.name = "timeout"
        self.num_waiters = -1
        self.delay = delay
        kernel._seq = seq = kernel._seq + 1
        heappush(kernel._heap, (kernel.now + delay, seq, self))


class Interrupt(Exception):
    """Raised inside a process that gets interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Condition(SimEvent):
    """Base for AnyOf/AllOf: watches child events and fires per policy."""

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel: "Kernel", events: list[SimEvent], name: str):
        super().__init__(kernel, name=name)
        self.events = list(events)
        for ev in self.events:
            if ev.kernel is not kernel:
                raise SimulationError("condition mixes events from different kernels")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        on_child = self._on_child  # bound once, not once per child
        for ev in self.events:
            ev.add_callback(on_child)

    def _on_child(self, ev: SimEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[SimEvent, Any]:
        return {ev: ev.value for ev in self.events if ev.state == SUCCEEDED}


class AnyOf(_Condition):
    """Fires as soon as any child fires (failure propagates)."""

    __slots__ = ()

    def __init__(self, kernel: "Kernel", events: list[SimEvent]):
        super().__init__(kernel, events, name="any_of")

    def _on_child(self, ev: SimEvent) -> None:
        if self.triggered:
            return
        if ev.state == FAILED:
            self.fail(ev.value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires once every child has fired (first failure propagates)."""

    __slots__ = ()

    def __init__(self, kernel: "Kernel", events: list[SimEvent]):
        super().__init__(kernel, events, name="all_of")

    def _on_child(self, ev: SimEvent) -> None:
        if self.triggered:
            return
        if ev.state == FAILED:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
