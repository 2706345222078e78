"""Reference scheduler for the kernel's differential test (tests only).

:class:`ReferenceKernel` keeps the real kernel's bookkeeping (heap entries
pushed by the primitives, process table, periodic-hook registry) and
replaces everything that *dispatches*: one event per ``step()``, no
batching, no folded call chains, and the three ``run()`` modes as the three
obvious ``while`` loops.  It logs every dispatch as
``(now, seq, event name, num_waiters)`` — ``"delay"`` for waiters when the
entry is a process whose float delay ends — the schedule the single loop in
``src/repro/simt/kernel.py`` has to reproduce entry for entry.

Given a live ``Telemetry`` it writes the two kernel instruments once per
event (``kernel.events_dispatched`` += 1, ``kernel.heap_depth`` =
``len(heap)`` after the pop), which is what every reader of them — a
periodic hook, code between two ``run()``/``step()`` calls — has to see from
the real kernel, however rarely that one writes them.
"""

import heapq

from repro.errors import DeadlockError, ProcessCrashError, SimulationError
from repro.simt import Kernel, Process, SimEvent


class ReferenceKernel(Kernel):
    __slots__ = ("dispatched",)

    def __init__(self, telemetry=None):
        super().__init__(telemetry=telemetry)
        self.dispatched = []

    def step(self):
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, seq, event = heapq.heappop(self._heap)
        assert when >= self.now
        self._fire_hooks(when)  # fires nothing unless a hook is due
        self.now = when
        self.events_dispatched += 1
        if self.telemetry.enabled:
            self._ctr_dispatched.inc()
            self._gauge_heap.set(len(self._heap))
        if isinstance(event, Process) and event.is_alive:
            # It yielded a float and sat on the heap itself: resumed with
            # None, and *not* promoted -- it has not finished.
            self.dispatched.append((when, seq, event.name, "delay"))
            event._resume(event)
            return
        if not event.triggered:
            event.state = 1  # a timeout firing now
        callbacks, event.callbacks = event.callbacks, None
        event.num_waiters = len(callbacks)
        self.dispatched.append((when, seq, event.name, len(callbacks)))
        for callback in callbacks:
            callback(event)
        if isinstance(event, Process) and not event.ok and not callbacks:
            raise ProcessCrashError(event.name, event.value) from event.value

    def run(self, until=None):
        if isinstance(until, SimEvent):
            until.add_callback(lambda _ev: None)
            while not until.triggered:
                if not self._heap:
                    raise DeadlockError([p.name for p in self.alive_processes()] or ["?"])
                self.step()
            if not until.ok:
                raise until.value
            return until.value
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.step()
        if until is not None:
            self.now = float(until)
        elif self.alive_processes():
            raise DeadlockError([p.name for p in self.alive_processes()])
