"""Reference scheduler for the kernel's differential test (tests only).

:class:`ReferenceKernel` keeps the real kernel's bookkeeping (heap entries
pushed by the primitives, process table, periodic-hook registry) and
replaces everything that *dispatches*: one event per ``step()``, no
batching, no folded call chains, and the three ``run()`` modes as the three
obvious ``while`` loops.  It logs every dispatch as
``(now, seq, event name, num_waiters)`` — ``"delay"`` for waiters when the
entry is a process whose float delay ends — the schedule the single loop in
``src/repro/simt/kernel.py`` has to reproduce entry for entry.

The reference has no FIFO of events due now: its one heap holds every
entry, those due now included (:class:`_OnTheHeap` is where the primitives'
FIFO appends land), and its hook walk is the plain one, so nothing of the
real kernel's two-level schedule leaks into the oracle.

Given a live ``Telemetry`` it writes the two kernel instruments once per
event (``kernel.events_dispatched`` += 1, ``kernel.heap_depth`` =
``len(heap)`` after the pop), which is what every reader of them — a
periodic hook, code between two ``run()``/``step()`` calls — has to see from
the real kernel, however rarely that one writes them.

:func:`dispatch_log` reads the real kernel's dispatch order from outside its
loop: the heap pops, and a recording deque in place of its FIFO.
"""

import heapq
from collections import deque
from contextlib import contextmanager
from unittest import mock

from repro.errors import DeadlockError, ProcessCrashError, SimulationError
from repro.simt.kernel import Kernel
from repro.simt.primitives import SimEvent
from repro.simt.process import Process
from repro.simt import kernel as kernel_module


class _OnTheHeap(deque):
    """The reference's ``_ready``: an event the primitives queue as due now
    goes on the heap as ``(now, seq, event)`` instead; this deque stays empty."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def append(self, event):
        heapq.heappush(self.kernel._heap, (self.kernel.now, self.kernel._seq, event))


class ReferenceKernel(Kernel):
    __slots__ = ("dispatched",)

    def __init__(self, telemetry=None):
        super().__init__(telemetry=telemetry)
        self._ready = _OnTheHeap(self)
        self.dispatched = []

    def _fire_hooks(self, upto):
        while True:
            due = min((h.next_due for h in self._hooks if h.active), default=None)
            if due is None or due > upto:
                break
            self.now = max(self.now, due)
            for hook in list(self._hooks):
                if hook.active and hook.next_due <= due:
                    hook.next_due += hook.interval
                    hook.fired += 1
                    hook.fn(self.now)
        self._prune_hooks()

    def step(self):
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, seq, event = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("time went backwards")
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


def _logged(when, seq, event):
    # A process dispatched alive is its float delay ending, not its completion.
    return when, seq, event, isinstance(event, Process) and event.is_alive


@contextmanager
def dispatch_log(kernel):
    """Log every dispatch of the real ``kernel`` inside the block, in order,
    as ``(when, seq, event, delay_over)``.  Enter it before anything is
    scheduled: it swaps in a recording deque for the FIFO of events due now.

    A heap pop is a dispatch unless the loop moves the entry to the FIFO
    (the rest of an instant the clock just reached): that shows as an
    append of the popped event with no schedule in between -- a schedule
    site advances ``_seq`` first -- and the pop's log line waits for the
    FIFO to hand the event out.
    """
    log = []
    popped = []  # the latest heap pop and the kernel's _seq right after it
    real_pop = kernel_module.heappop

    def recording_pop(heap):
        entry = real_pop(heap)
        popped[:] = [entry, kernel._seq]
        log.append(_logged(*entry))
        return entry

    labels = deque()  # (when, seq) of each queued event

    class RecordingReady(deque):
        def append(self, event):
            if popped and popped[0][2] is event and popped[1] == kernel._seq:
                when, seq, _event = popped[0]
                log.pop()
            else:
                when, seq = kernel.now, kernel._seq
            popped.clear()
            super().append(event)
            labels.append((when, seq))

        def popleft(self):
            event = super().popleft()  # an interrupt may have swapped it
            log.append(_logged(*labels.popleft(), event))
            return event

    assert not kernel._ready and not kernel._heap
    kernel._ready = RecordingReady()
    with mock.patch.object(kernel_module, "heappop", recording_pop):
        yield log
