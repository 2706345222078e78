"""Generator-coroutine processes.

A process wraps a generator.  Each ``yield`` must produce a waitable
(:class:`~repro.simt.primitives.SimEvent` or another :class:`Process`) or a
non-negative ``float``.  On a waitable the process sleeps until it fires and
is resumed with its value (or the exception is thrown into the generator);
a float is a pure delay in seconds — the process puts *itself* on the
schedule, no event object in between, and is resumed with ``None``.  A
process is itself a :class:`SimEvent` that fires when the generator returns,
so joining is just ``result = yield child``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator

from repro.errors import SimulationError
from repro.simt.primitives import FAILED, PENDING, SUCCEEDED, Interrupt, SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel


class Process(SimEvent):
    """A running simulated process (also usable as a join event)."""

    __slots__ = ("generator", "_waiting_on", "_wake", "alive_since")

    _is_process = True  # see SimEvent._is_process

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(kernel, name=name or getattr(generator, "__name__", "proc"))
        self.generator = generator
        #: the event whose dispatch resumes us — the process itself during a
        #: pure delay; None before the first resume and once finished
        self._waiting_on: SimEvent | None = None
        #: the one callback this process ever registers, bound once here
        #: instead of once per ``yield``
        self._wake = self._resume
        self.alive_since = kernel.now
        # Bootstrap: start executing at the current simulated instant.
        init = SimEvent(kernel, name=f"{self.name}.start")
        init.callbacks.append(self._wake)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return self.state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt detaches the process from whatever it was waiting on;
        the underlying event stays valid and may fire later with no effect on
        this process.  Interrupting again before delivery replaces the
        pending interrupt.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is None:
            raise SimulationError(f"cannot interrupt {self.name}: not started/waiting")
        # Deliver via a fresh immediate event so ordering stays kernel-driven:
        # the process now waits on the kick, a failed event carrying the
        # Interrupt, and anything the old target still sends is stale.
        kick = SimEvent(self.kernel, name=f"{self.name}.interrupt")
        kick.callbacks.append(self._wake)
        kick.fail(Interrupt(cause))
        self._waiting_on = kick
        if target is self:
            # Cut a pure delay short: a live process is on the heap only as
            # its own delay, so that entry is found by identity and handed
            # to an inert event -- same (time, seq), still one counted
            # dispatch, and nothing that outlives the process.  O(heap).
            idle = SimEvent(self.kernel, name=f"{self.name}.delay")
            idle.state = SUCCEEDED
            heap = self.kernel._heap
            i = next(i for i, entry in enumerate(heap) if entry[2] is self)
            heap[i] = (*heap[i][:2], idle)
        # Drop our callback edge from the original event if it has not fired.
        elif target.callbacks is not None:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass

    # -- kernel-side machinery ------------------------------------------------

    def _resume(self, event: SimEvent) -> None:
        """The wake-up callback: feed ``event``'s outcome to the generator
        and register on whatever it yields next."""
        waiting = self._waiting_on
        if (waiting is not event and waiting is not None) or self.state != PENDING:
            return  # stale wake-up after an interrupt, or already finished
        self._waiting_on = None
        try:
            if event.state == FAILED:
                target = self.generator.throw(event.value)
            else:
                target = self.generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into joiners
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        kernel = self.kernel
        if isinstance(target, float):
            if target >= 0:
                # A pure delay: one heap entry, as a Timeout would be, with
                # the seq it would have had -- and the kernel resumes us.
                kernel._seq = seq = kernel._seq + 1
                heappush(kernel._heap, (kernel.now + target, seq, self))
                self._waiting_on = self
                return
            # Negative or NaN (it would poison heap order): raised at the
            # yield, like the error of a Timeout built there -- through an
            # event that failed without ever being scheduled.
            error = self._refusal(target)
            target = SimEvent(kernel, "refused")
            target.state = FAILED
            target.value = error
            target.callbacks = None  # as if dispatched: its outcome is final
        elif not isinstance(target, SimEvent):
            self.fail(self._refusal(target))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:  # already dispatched: its outcome is final
            self._resume(target)
        else:
            callbacks.append(self._wake)

    def _refusal(self, target: Any) -> SimulationError:
        """The error for a yield of neither a waitable nor a delay >= 0."""
        if isinstance(target, float):
            return SimulationError(f"delay must be a number >= 0, got {target}")
        return SimulationError(
            f"process {self.name} yielded {type(target).__name__}, "
            "expected a waitable or a float delay"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.is_alive else ("ok" if self.ok else "failed")
        return f"<Process {self.name} {status}>"
