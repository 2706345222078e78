"""Host-speed calibration: why the time metrics are steady on a shared host.

This sandbox is a 2-vCPU guest whose speed drifts by tens of percent for
seconds to minutes at a time (identical deterministic runs measured 4.9 s
to 9.4 s here; user CPU time inflates with wall time, so it is the cores
that slow down, not the process that waits).  No estimator over repeats
inside one 20 s run survives a slow phase that outlasts the run, so the
child samples the host's speed *while it measures*: every ``INTERVAL_S`` a
timer signal interrupts the workload for one fixed burst of interpreter
work (a miniature event loop: heap, generators, small objects - the same
kind of work the simulator does, and none of the simulator's code, so a
faster program never moves it).  Each stretch of workload time between two
bursts is then rescaled by ``REFERENCE_BURST_S / (mean of the two bursts)``.

The result is "seconds on a host on which one burst takes 10 ms".  Bursts
are excluded from the timed region.  Raw, unscaled times are reported next
to the scaled ones; on this host scaling cut the run-to-run spread of
identical runs from 27-58 % to 4-8 %.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

REFERENCE_BURST_S = 0.010
INTERVAL_S = 0.2
_EVENTS_PER_BURST = 8000
_PROCESSES = 2000
_BALLAST = 20_000


class _Waitable:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: list = []
        self.value = None


class HostSpeed:
    """Owns the calibration event loop and the marks of one timed region."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, _Waitable, int]] = []
        self._seq = 0
        self._now = 0.0
        self._processes = [self._process(i) for i in range(_PROCESSES)]
        for process in self._processes:
            next(process)
        self._ballast: list = [None] * _BALLAST
        #: (wall at burst start, cpu at start, wall at end, cpu at end)
        self.marks: list[tuple[float, float, float, float]] = []
        self.burst()  # first touch of the state is not a speed sample

    def _process(self, index: int):
        resumed = 0
        while True:
            waitable = _Waitable()
            self._seq += 1
            delay = ((index * 7919 + resumed * 104729) % 1009) * 1e-6
            heapq.heappush(self._heap, (self._now + delay, self._seq, waitable, index))
            resumed += (yield waitable) or 0

    def burst(self) -> float:
        """One fixed unit of interpreter work; returns its wall seconds."""
        heap, processes, ballast = self._heap, self._processes, self._ballast
        pop = heapq.heappop
        t0 = time.perf_counter()
        for _ in range(_EVENTS_PER_BURST):
            when, _seq, waitable, index = pop(heap)
            self._now = when
            processes[index].send(1)
            ballast[int(when * 1e9) % _BALLAST] = waitable
        return time.perf_counter() - t0

    def speed_now(self) -> float:
        """Host speed relative to the reference, from three bursts."""
        return REFERENCE_BURST_S / statistics.median(self.burst() for _ in range(3))

    # -- a timed region ---------------------------------------------------------------

    def _mark(self, *_signal_args) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.burst()
        self.marks.append((wall0, cpu0, time.perf_counter(), time.process_time()))

    def start(self) -> None:
        self.marks.clear()
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict[str, float]:
        """End the region; raw and speed-scaled wall and CPU seconds of the
        workload stretches between bursts."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._mark()
        raw_wall = raw_cpu = wall = cpu = 0.0
        for before, after in zip(self.marks, self.marks[1:]):
            burst_s = ((before[2] - before[0]) + (after[2] - after[0])) / 2.0
            scale = REFERENCE_BURST_S / burst_s
            stretch_wall, stretch_cpu = after[0] - before[2], after[1] - before[3]
            raw_wall += stretch_wall
            raw_cpu += stretch_cpu
            wall += stretch_wall * scale
            cpu += stretch_cpu * scale
        return {
            "wall_s": wall,
            "cpu_s": cpu,
            "raw_wall_s": raw_wall,
            "raw_cpu_s": raw_cpu,
            "bursts": len(self.marks),
        }
