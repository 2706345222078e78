"""Worker pool sweeping the job FIFOs (paper Sec. III-B).

Real ``threading`` workers for standalone blackboard use — mirroring the
paper's Pthread implementation: each worker sweeps the FIFO array from a
random starting point; an exponential back-off prevents idle threads from
spinning over the locks in the absence of jobs.
"""

from __future__ import annotations

import random
import threading
import time

from repro.errors import BlackboardError
from repro.blackboard.board import Blackboard
from repro.telemetry.hostprof import host_now


class ThreadPool:
    """Pool of worker threads draining a blackboard's job queues."""

    #: initial back-off sleep when no job is found
    BACKOFF_MIN = 50e-6
    #: back-off ceiling
    BACKOFF_MAX = 2e-3
    #: host seconds :meth:`drain` waits for the board to go idle
    DRAIN_TIMEOUT = 30.0
    #: host seconds :meth:`stop` waits for each worker to join
    STOP_TIMEOUT = 5.0

    def __init__(self, board: Blackboard, nworkers: int = 4, seed: int = 0):
        if nworkers < 1:
            raise BlackboardError(f"nworkers must be >= 1, got {nworkers}")
        self.board = board
        self.nworkers = nworkers
        self.seed = seed
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self.jobs_per_worker = [0] * nworkers
        # Host-clock busy/idle accounting, always on.
        self.busy_s = [0.0] * nworkers
        self.idle_s = [0.0] * nworkers
        # Per-worker queue-dwell: how long the jobs a worker picked up had
        # been sitting in the FIFOs (needs telemetry on for submit stamps).
        self.dwell_s = [0.0] * nworkers
        self._started = False

    def start(self) -> None:
        if self._started:
            raise BlackboardError("thread pool already started")
        self._started = True
        for i in range(self.nworkers):
            t = threading.Thread(
                target=self._worker_loop, args=(i,), name=f"bb-worker-{i}", daemon=True
            )
            self._threads.append(t)
            t.start()

    def _worker_loop(self, index: int) -> None:
        rng = random.Random((self.seed << 8) | index)
        backoff = self.BACKOFF_MIN
        while not self._stop.is_set():
            t0 = host_now()
            job = self.board.queues.try_pop(start=rng.randrange(self.board.queues.nqueues))
            if job is not None:
                if job.t_submitted is not None:
                    self.dwell_s[index] += max(
                        0.0, self.board.telemetry.now() - job.t_submitted
                    )
                self.board.execute(job)
                self.busy_s[index] += host_now() - t0
                self.jobs_per_worker[index] += 1
                backoff = self.BACKOFF_MIN
                continue
            time.sleep(backoff)
            self.idle_s[index] += host_now() - t0
            backoff = min(backoff * 2.0, self.BACKOFF_MAX)

    def drain(self) -> None:
        """Wait until the board is idle (all submitted work executed)."""
        if not self.board.wait_idle(timeout=self.DRAIN_TIMEOUT):
            raise BlackboardError(f"blackboard did not drain within {self.DRAIN_TIMEOUT}s")

    def stop(self) -> None:
        self._stop.set()
        had_workers = bool(self._threads)
        for t in self._threads:
            t.join(timeout=self.STOP_TIMEOUT)
            if t.is_alive():  # pragma: no cover - only on pathological stalls
                raise BlackboardError(f"worker {t.name} failed to stop")
        self._threads.clear()
        tel = self.board.telemetry
        if had_workers and tel.enabled:
            tel.counter("blackboard.worker_busy_s").inc(sum(self.busy_s))
            tel.counter("blackboard.worker_idle_s").inc(sum(self.idle_s))

    def __enter__(self) -> "ThreadPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if not any(exc_info):
                self.drain()
        finally:
            self.stop()
