"""The simulation event loop.

The kernel keeps two containers: a FIFO of the events due *now* and a binary
heap of ``(time, sequence, event)`` entries for everything later.  Events
fire in timestamp order; ties break by scheduling order, which makes whole
simulations deterministic.  A process that yielded a float — a pure delay —
is its own entry: dispatching it resumes it.  Deadlock (live processes but
nothing scheduled) raises :class:`~repro.errors.DeadlockError` naming the
blocked processes, which in practice pinpoints mismatched sends/receives.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop
from typing import Any, Generator

from repro.errors import DeadlockError, ProcessCrashError, SimulationError
from repro.simt.primitives import AllOf, AnyOf, SimEvent, Timeout
from repro.simt.process import Process
from repro.telemetry.core import KERNEL_PID, NULL_TELEMETRY, Telemetry

_INF = float("inf")

#: ``step()``'s ``stop``, triggered from the start: the loop returns after one
#: dispatch whatever it was (a process whose delay ends stays PENDING).
_TRIGGERED = SimEvent(None, name="step")  # type: ignore[arg-type]
_TRIGGERED.state = 1


class PeriodicHook:
    """One periodic kernel callback (see :meth:`Kernel.call_every`)."""

    __slots__ = ("interval", "fn", "next_due", "active", "fired")

    def __init__(self, interval: float, fn):
        self.interval = interval
        self.fn = fn
        self.next_due = 0.0
        self.active = True
        self.fired = 0

    def cancel(self) -> None:
        self.active = False


class Kernel:
    """Discrete-event simulation kernel with virtual time in seconds."""

    __slots__ = (
        "now",
        "_heap",
        "_ready",
        "_seq",
        "_processes",
        "_hooks",
        "_hooks_due",
        "telemetry",
        "_ctr_dispatched",
        "_gauge_heap",
        "events_dispatched",
        "timeout",
    )

    def __init__(self, *, telemetry: Telemetry | None = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, SimEvent]] = []
        #: the entries due at ``now`` (computed time == now), in seq order
        self._ready: deque[SimEvent] = deque()
        self._seq = 0
        self._processes: list[Process] = []
        self._hooks: list[PeriodicHook] = []
        #: earliest ``next_due`` among active hooks (inf when none) — the
        #: dispatch loop's per-event hook test is one float compare, never
        #: a scan.  May go stale-low (a directly cancelled hook), in which
        #: case :meth:`_fire_hooks` recomputes and fires nothing; it must
        #: never be stale-high, so every registration lowers it.
        self._hooks_due: float = _INF
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self.telemetry.bind_clock(lambda: self.now)
            self.telemetry.name_track(KERNEL_PID, "simulation kernel")
            self._ctr_dispatched = self.telemetry.counter("kernel.events_dispatched")
            self._gauge_heap = self.telemetry.gauge("kernel.heap_depth", pid=KERNEL_PID)
        self.events_dispatched = 0
        #: ``timeout(delay, value=None)`` — a :class:`Timeout` on this kernel.
        #: Bound once as a C-level partial: the most-called factory costs
        #: no Python frame of its own.
        self.timeout = partial(Timeout, self)

    # -- process management ----------------------------------------------------

    def spawn(
        self, generator: Generator, name: str = "", kind: type[Process] = Process
    ) -> Process:
        """Create a process from a generator; it starts at the current time.
        ``kind`` is the class built: :class:`Process` or a subclass."""
        proc = kind(self, generator, name=name)
        self._processes.append(proc)
        return proc

    def alive_processes(self) -> list[Process]:
        return [p for p in self._processes if p.is_alive]

    # -- waitable factories ------------------------------------------------------

    def event(self, name: str = "") -> SimEvent:
        return SimEvent(self, name=name)

    def any_of(self, events: list[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: list[SimEvent]) -> AllOf:
        return AllOf(self, events)

    # -- periodic callbacks ------------------------------------------------------

    def call_every(self, interval: float, fn, *, first: float | None = None) -> PeriodicHook:
        """Register ``fn(now)`` to run every ``interval`` virtual seconds.

        Hooks are observers, not events: they never enter the schedule, so
        they cannot keep the simulation alive — they fire only while real
        events remain, immediately before the dispatch that first reaches
        or passes their due time (the clock reads exactly the due time).
        Multiple hooks due at once fire in registration order, keeping runs
        deterministic.  A hook must not raise; exceptions propagate out of
        :meth:`run`.  ``run(until=<deadline>)`` does not fire hooks in the
        idle gap between the last event and the deadline.

        ``first`` pins the first due time to an absolute virtual instant
        (it must not be in the past), letting a subscriber align its firing
        grid — e.g. window boundaries at exact multiples of the interval —
        independent of when it attached; later firings step by ``interval``
        from there.
        """
        if interval <= 0:
            raise SimulationError(f"call_every interval must be > 0, got {interval}")
        hook = PeriodicHook(float(interval), fn)
        if first is None:
            hook.next_due = self.now + hook.interval
        else:
            if first < self.now:
                raise SimulationError(
                    f"call_every first={first} is in the past (now={self.now})"
                )
            hook.next_due = float(first)
        self._hooks.append(hook)
        if hook.next_due < self._hooks_due:
            self._hooks_due = hook.next_due
        return hook

    def cancel_every(self, hook: PeriodicHook) -> None:
        hook.cancel()
        self._prune_hooks()

    def _prune_hooks(self) -> None:
        """Forget cancelled hooks (``hook.cancel()`` only marks them) and
        recompute the earliest due time over the ones left."""
        self._hooks = live = [h for h in self._hooks if h.active]
        self._hooks_due = min((h.next_due for h in live), default=_INF)

    def _fire_hooks(self, upto: float) -> None:
        """Run every hook due at or before ``upto``, advancing the clock."""
        ready, heap = self._ready, self._heap
        while True:
            due = min(
                (h.next_due for h in self._hooks if h.active), default=None
            )
            if due is None or due > upto:
                break
            if due > self.now:
                self.now = due
            queued = len(ready)
            for hook in list(self._hooks):
                if hook.active and hook.next_due <= due:
                    hook.next_due += hook.interval
                    hook.fired += 1
                    hook.fn(self.now)
            if self.now < upto:
                # The clock sits before the popped instant: a hook's entry due
                # before it is in the past, one due at it queues in seq order.
                if len(ready) > queued or heap and heap[0][0] < upto:
                    raise SimulationError("time went backwards (kernel bug)")
                while heap and heap[0][0] == upto:
                    ready.append(heappop(heap)[2])
        self._prune_hooks()

    # -- the loop ---------------------------------------------------------------

    def _dispatch(self, limit: float, stop: SimEvent | None = None) -> None:
        """The dispatch loop — every event of every run goes through here.

        Drains the events due now, then pops the heap head while it is due
        at or before ``limit``; with ``stop``, returns right after the
        dispatch that leaves ``stop`` triggered.  :meth:`run` picks the two
        arguments for its three modes and :meth:`step` passes a ``stop``
        that already is, so there is one set of dispatch semantics.
        """
        heap = self._heap
        ready = self._ready
        popleft, append = ready.popleft, ready.append
        observed = self.telemetry.enabled
        # events_dispatched is counted in a local; an observed run also
        # mirrors it and the schedule's length into their instruments.  All
        # three are written where they can be read -- before hooks fire and
        # when this loop exits -- not once per event (DESIGN 11).  ``depth``
        # is heap + FIFO right after the latest pop, ``high`` its peak.
        dispatched = synced = self.events_dispatched
        depth = high = self._gauge_heap.value if observed else 0
        when = self.now
        try:
            while True:
                if ready:
                    event = popleft()
                elif heap and heap[0][0] <= limit:
                    when, _seq, event = heappop(heap)
                    # The clock advances: the rest of this instant has lower
                    # seqs than anything this dispatch schedules, so it goes first.
                    while heap and heap[0][0] == when:
                        append(heappop(heap)[2])
                else:
                    break
                # A dispatched callback may register a hook due *now*
                # (call_every(first=now)), so the compare is per event; after
                # firing, _hooks_due > when.
                if when >= self._hooks_due:
                    self.events_dispatched = dispatched
                    if observed:
                        self._sync_instruments(dispatched - synced, depth, high)
                        synced = dispatched
                    self._fire_hooks(when)
                self.now = when
                dispatched += 1
                if observed:
                    depth = len(heap) + len(ready)
                    if depth > high:
                        high = depth
                if event.state == 0:  # PENDING: a delay ending now
                    if event._is_process:
                        # It yielded a float and is its own entry (a
                        # finished process is never PENDING): resume it.
                        event._wake(event)
                        if stop is not None and stop.state != 0:
                            return
                        continue
                    event.state = 1  # SUCCEEDED (value was set at creation)
                callbacks = event.callbacks
                event.callbacks = None  # later add_callback() calls run at once
                waiters = event.num_waiters = len(callbacks)
                if waiters == 1:
                    callbacks[0](event)
                elif waiters:
                    for cb in callbacks:
                        cb(event)
                elif event._is_process and event.state == 2:
                    # A process that crashed with nobody joining it must surface
                    # the error instead of silently vanishing from the simulation.
                    raise ProcessCrashError(event.name, event.value) from event.value
                if stop is not None and stop.state != 0:
                    return
        finally:
            self.events_dispatched = dispatched
            if observed:
                self._sync_instruments(dispatched - synced, depth, high)

    def _sync_instruments(self, events: int, depth: float, high: float) -> None:
        """Book ``events`` more dispatches and the current heap depth.

        ``Gauge.max`` takes the loop's own high-water, so it stays exact
        although the depths between two syncs are never ``set()``.
        """
        self._ctr_dispatched.inc(events)
        gauge = self._gauge_heap
        gauge.set(depth)
        if high > gauge.max:
            gauge.max = high

    def step(self) -> None:
        """Dispatch the next scheduled entry, and only that one."""
        if not self._heap and not self._ready:
            raise SimulationError("step() on an empty schedule")
        self._dispatch(_INF, _TRIGGERED)

    def run(self, until: float | SimEvent | None = None) -> Any:
        """Run to completion, to a deadline, or until an event fires.

        * ``until=None`` — drain the schedule.  If live processes remain
          afterwards, raise :class:`DeadlockError`.
        * ``until=<float>`` — advance virtual time to the deadline.
        * ``until=<SimEvent>`` — run until that event triggers and return its
          value (raising if it failed).
        """
        if self.telemetry.enabled:
            with self.telemetry.span("kernel.run", pid=KERNEL_PID, cat="kernel"):
                return self._drain(until)
        return self._drain(until)

    def _drain(self, until: float | SimEvent | None) -> Any:
        if isinstance(until, SimEvent):
            # Joining through run() counts as observing the event.
            until.add_callback(lambda _ev: None)
            if until.state == 0:
                self._dispatch(_INF, until)
                if until.state == 0:  # the schedule ran dry first
                    blocked = [p.name for p in self.alive_processes()]
                    raise DeadlockError(blocked or [f"<waiting for {until!r}>"])
            if until.state == 2:  # FAILED
                raise until.value
            return until.value

        if until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(f"deadline {deadline} is in the past ({self.now})")
            self._dispatch(deadline)
            self.now = deadline
            return None

        self._dispatch(_INF)
        blocked = self.alive_processes()
        if blocked:
            raise DeadlockError([p.name for p in blocked])
        return None
