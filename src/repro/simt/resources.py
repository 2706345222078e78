"""Shared simulation resources.

* :class:`Resource` — counted semaphore with a FIFO wait queue.
* :class:`Pipe` — a *serialized bandwidth channel*: transfers occupy the pipe
  back-to-back, so concurrent transfers share the bandwidth by queueing.  This
  is the O(1) flow-approximation used for NICs, bisection capacity and
  file-system lanes: aggregate throughput through a pipe can never exceed its
  bandwidth, and FIFO ordering keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.simt.primitives import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simt.kernel import Kernel


class Resource:
    """Counted resource; ``yield res.acquire()`` then ``res.release()``.

    Its waiters stay a ``deque``: every process sharing the resource may
    queue at once, so the depth has no bound.
    """

    __slots__ = ("kernel", "capacity", "name", "_acquire_name", "in_use", "_waiters")

    def __init__(self, kernel: "Kernel", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name or "resource"
        self._acquire_name = f"{self.name}.acquire"  # formatted once, not per acquire
        self.in_use = 0
        self._waiters: deque[SimEvent] = deque()

    def acquire(self) -> SimEvent:
        """Return an event that fires once a slot is granted to the caller."""
        ev = SimEvent(self.kernel, self._acquire_name)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free one slot; the longest-waiting acquirer (if any) gets it."""
        if self.in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1

    def cancel(self, ev: SimEvent) -> bool:
        """Withdraw a still-queued acquire; True if it was removed.

        An acquire that already succeeded holds a slot and cannot be
        cancelled — the caller owns it and must release it.
        """
        try:
            self._waiters.remove(ev)
            return True
        except ValueError:
            return False


class Pipe:
    """Serialized bandwidth channel with optional per-transfer latency.

    ``transfer(nbytes)`` returns an event firing when the transfer would
    complete under FIFO sharing of the pipe's bandwidth.  Cost per call is
    O(log n) (one timeout), independent of the number of concurrent flows.
    """

    def __init__(
        self,
        kernel: "Kernel",
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
    ):
        if bandwidth <= 0:
            raise SimulationError(f"Pipe bandwidth must be > 0, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"Pipe latency must be >= 0, got {latency}")
        self.kernel = kernel
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.name = name or "pipe"
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.busy_time = 0.0
        self.transfers = 0

    def scale_bandwidth(self, factor: float) -> float:
        """Multiply the pipe's bandwidth by ``factor`` (fault injection).

        Transfers already committed keep their completion times; only
        future commits see the new rate.  Returns the new bandwidth.
        """
        if factor <= 0:
            raise SimulationError(f"bandwidth factor must be > 0, got {factor}")
        self.bandwidth *= factor
        return self.bandwidth

    def commit(self, nbytes: float) -> float:
        """Book ``nbytes`` on the pipe; returns the absolute completion time.

        The cheap primitive behind :meth:`transfer` — callers combining
        several pipes can take the max of the commit times and schedule a
        single timeout.
        """
        if not nbytes >= 0:  # also rejects NaN, which would poison _busy_until
            raise SimulationError(f"transfer size must be a number >= 0, got {nbytes}")
        start = self.kernel.now
        if self._busy_until > start:
            start = self._busy_until
        duration = nbytes / self.bandwidth
        self._busy_until = done = start + duration
        self.bytes_transferred += int(nbytes)
        self.busy_time += duration
        self.transfers += 1
        return done + self.latency

    def transfer(self, nbytes: float) -> SimEvent:
        """Schedule ``nbytes`` through the pipe; event fires at completion."""
        done = self.commit(nbytes)
        return self.kernel.timeout(done - self.kernel.now)

    def eta(self, nbytes: float) -> float:
        """Completion time a transfer issued now would have (no side effects)."""
        start = max(self.kernel.now, self._busy_until)
        return start + nbytes / self.bandwidth + self.latency

    @property
    def backlog_seconds(self) -> float:
        """How far ahead of *now* the pipe is already committed."""
        return max(0.0, self._busy_until - self.kernel.now)

    def utilization(self, horizon: float | None = None) -> float:
        """Fraction of elapsed simulated time the pipe was busy."""
        elapsed = horizon if horizon is not None else self.kernel.now
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
