"""The blackboard facade: control system + storage accounting.

The control system (paper Figure 3/13) is deliberately simple: a hash table
from type id to sensitive knowledge sources; submitting an entry offers it
to each sensitive KS, and the KS whose sensitivity set just became complete
yields a job pushed onto the FIFO array.  Opportunistic reasoning is the
ability of any KS to register or remove KSs, including itself.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.errors import BlackboardError, UnknownTypeError
from repro.blackboard.entry import DataEntry, TypeRegistry
from repro.blackboard.jobs import Job, JobQueues
from repro.blackboard.ks import KnowledgeSource, Operation
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.hostprof import host_now


class Blackboard:
    """A single-level (or level-agnostic) parallel blackboard."""

    def __init__(
        self,
        nqueues: int = 8,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        track_pid: int = 0,
    ):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.track_pid = track_pid
        self.types = TypeRegistry()
        self.queues = JobQueues(nqueues=nqueues, seed=seed, telemetry=self.telemetry)
        # type id -> the sensitive knowledge sources, as a tuple that
        # register_ks/remove_ks rebuild under the lock: submit() reads it
        # without copying or locking.
        self._listeners: dict[int, tuple[KnowledgeSource, ...]] = {}
        self._ks_lock = threading.RLock()
        self._all_ks: list[KnowledgeSource] = []
        # Storage accounting (the blackboard is the temporary storage medium).
        # One lock guards the statistics and the in-flight count, and is the
        # lock of the idle condition too.
        self._stats_lock = threading.Lock()
        self.entries_submitted = 0
        self.jobs_executed = 0
        self.bytes_current = 0
        self.bytes_peak = 0
        self.bytes_total = 0
        self._in_flight = 0
        self._idle = threading.Condition(self._stats_lock)
        # Telemetry instruments, each looked up on its first use and kept:
        # created at registration, they would export before anything
        # observed them.
        self._jobs_counter = self._job_cpu = self._job_dwell = None
        self._ks_cpu: dict[KnowledgeSource, Any] = {}

    # -- type & KS management ------------------------------------------------------

    def register_type(self, name: str, level: str = "") -> int:
        return self.types.register(name, level)

    def register_ks(
        self,
        name: str,
        sensitivities: list[int],
        operation: Operation,
    ) -> KnowledgeSource:
        """Install a knowledge source (callable at any time, from any KS)."""
        for type_id in sensitivities:
            if not self.types.known(type_id):
                raise UnknownTypeError(
                    f"KS {name!r}: sensitivity {type_id:#x} is not a registered type"
                )
        ks = KnowledgeSource(name, sensitivities, operation)
        with self._ks_lock:
            self._all_ks.append(ks)
            for type_id in ks.sensitivity_types:
                self._listeners[type_id] = self._listeners.get(type_id, ()) + (ks,)
        return ks

    def remove_ks(self, ks: KnowledgeSource) -> None:
        with self._ks_lock:
            if ks not in self._all_ks:
                raise BlackboardError(f"KS {ks.name!r} not registered")
            self._all_ks.remove(ks)
            for type_id in ks.sensitivity_types:
                listeners = list(self._listeners[type_id])
                listeners.remove(ks)
                self._listeners[type_id] = tuple(listeners)

    # -- submission (the control system) ---------------------------------------------

    def submit(
        self,
        type_id: int,
        payload: Any,
        size: int | None = None,
        meta: Any = None,
    ) -> DataEntry:
        """Push a data entry; triggers sensitive knowledge sources.

        ``meta`` rides along on the entry (see :class:`DataEntry`); the
        blackboard itself never reads it.
        """
        if not self.types.known(type_id):
            raise UnknownTypeError(f"submit of unregistered type {type_id:#x}")
        if size is None:
            size = len(payload) if hasattr(payload, "__len__") else 0
        entry = DataEntry(type_id, size, payload, meta)
        jobs: list[Job] = []
        for ks in self._listeners.get(type_id, ()):
            entry.retain()
            complete = ks.offer(entry)
            if complete is not None:
                jobs.append(Job(ks, complete))
        # Fan-out only queues references, so the entry's bytes are booked
        # here together with the jobs it made in flight, in one lock hold.
        with self._stats_lock:
            self.entries_submitted += 1
            self.bytes_current += size
            self.bytes_total += size
            if self.bytes_current > self.bytes_peak:
                self.bytes_peak = self.bytes_current
            self._in_flight += len(jobs)
        # The submitter's own reference is dropped once fan-out is done.
        self._release_entry(entry)
        if jobs:
            if self.telemetry.enabled:
                t_sub = self.telemetry.now()
                for job in jobs:
                    job.t_submitted = t_sub
            self.queues.push_many(jobs)
        return entry

    def submit_named(self, name: str, payload: Any) -> DataEntry:
        return self.submit(self.types.lookup(name), payload)

    # -- execution ----------------------------------------------------------------------

    def execute(self, job: Job) -> None:
        """Run one job and release its input entries."""
        tel = self.telemetry
        span = None
        t_host = 0.0
        if tel.enabled:
            t_host = host_now()
            span = tel.span(
                "blackboard.job",
                pid=self.track_pid,
                cat="blackboard",
                args={"ks": job.ks.name},
            )
        try:
            job.ks.operation(self, job.entries)
            job.ks.fired += 1
        finally:
            if span is not None:
                self._observe_job(job, host_now() - t_host)
                span.end()
            freed = 0
            for entry in job.entries:
                if entry.release():
                    freed += entry.size
            with self._stats_lock:
                self.bytes_current -= freed
                self.jobs_executed += 1
                self._in_flight -= 1
                if self._in_flight == 0 and self.queues.empty:
                    self._idle.notify_all()

    def run_until_idle(self, max_jobs: int | None = None) -> int:
        """Inline mode: drain jobs in the calling thread; returns jobs run."""
        executed = 0
        while max_jobs is None or executed < max_jobs:
            job = self.queues.try_pop(start=0)
            if job is None:
                break
            self.execute(job)
            executed += 1
        return executed

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no jobs are queued or running (thread-pool mode)."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._in_flight == 0 and self.queues.empty, timeout=timeout
            )

    # -- internals ----------------------------------------------------------------------

    def _release_entry(self, entry: DataEntry) -> None:
        if entry.release():
            with self._stats_lock:
                self.bytes_current -= entry.size

    def _observe_job(self, job: Job, cpu_s: float) -> None:
        """Book one executed job on the telemetry instruments.

        Each instrument is looked up the first time a job reaches it and
        kept (the creation order is the per-job lookup order it replaces).
        """
        tel = self.telemetry
        if self._jobs_counter is None:
            self._jobs_counter = tel.counter("blackboard.jobs_executed")
            self._job_cpu = tel.histogram("blackboard.job_cpu_s")
        self._jobs_counter.inc()
        self._job_cpu.observe(cpu_s)
        # Per-KS cost breakdown: which operation the analysis time
        # actually goes to (the report's latency attribution input).
        ks_cpu = self._ks_cpu.get(job.ks)
        if ks_cpu is None:
            ks_cpu = self._ks_cpu[job.ks] = tel.histogram(
                f"blackboard.ks_cpu_s.{job.ks.name}"
            )
        ks_cpu.observe(cpu_s)
        if job.t_submitted is not None:
            if self._job_dwell is None:
                self._job_dwell = tel.histogram("blackboard.job_dwell_s")
            self._job_dwell.observe(max(0.0, tel.now() - job.t_submitted - cpu_s))

    # -- introspection -------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._stats_lock:
            return {
                "entries_submitted": self.entries_submitted,
                "jobs_executed": self.jobs_executed,
                "bytes_current": self.bytes_current,
                "bytes_peak": self.bytes_peak,
                "bytes_total": self.bytes_total,
                "jobs_queued": len(self.queues),
                "jobs_queued_hwm": self.queues.depth_hwm,
                "lock_failures": self.queues.lock_failures,
            }
