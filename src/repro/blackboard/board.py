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
        registry: TypeRegistry | None = None,
        telemetry: Telemetry | None = None,
        track_pid: int = 0,
    ):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.track_pid = track_pid
        self.types = registry or TypeRegistry()
        self.queues = JobQueues(nqueues=nqueues, seed=seed, telemetry=self.telemetry)
        self._sensitivity: dict[int, list[KnowledgeSource]] = {}
        self._ks_lock = threading.RLock()
        self._all_ks: list[KnowledgeSource] = []
        # Storage accounting (the blackboard is the temporary storage medium).
        self._stats_lock = threading.Lock()
        self.entries_submitted = 0
        self.jobs_executed = 0
        self.bytes_current = 0
        self.bytes_peak = 0
        self.bytes_total = 0
        self._in_flight = 0
        self._idle = threading.Condition()

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
                self._sensitivity.setdefault(type_id, []).append(ks)
        return ks

    def remove_ks(self, ks: KnowledgeSource) -> None:
        with self._ks_lock:
            if ks not in self._all_ks:
                raise BlackboardError(f"KS {ks.name!r} not registered")
            self._all_ks.remove(ks)
            for type_id in ks.sensitivity_types:
                self._sensitivity[type_id].remove(ks)

    def knowledge_sources(self) -> list[KnowledgeSource]:
        with self._ks_lock:
            return list(self._all_ks)

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
        with self._stats_lock:
            self.entries_submitted += 1
            self.bytes_current += size
            self.bytes_total += size
            if self.bytes_current > self.bytes_peak:
                self.bytes_peak = self.bytes_current
        with self._ks_lock:
            listeners = list(self._sensitivity.get(type_id, ()))
        jobs: list[Job] = []
        for ks in listeners:
            entry.retain()
            complete = ks.offer(entry)
            if complete is not None:
                jobs.append(Job(ks=ks, entries=complete))
        # The submitter's own reference is dropped once fan-out is done.
        self._release_entry(entry)
        if jobs:
            if self.telemetry.enabled:
                t_sub = self.telemetry.now()
                for job in jobs:
                    job.t_submitted = t_sub
            with self._idle:
                self._in_flight += len(jobs)
            self.queues.push_many(jobs)
        return entry

    def submit_named(self, name: str, payload: Any, level: str = "", size: int | None = None) -> DataEntry:
        return self.submit(self.types.lookup(name, level), payload, size)

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
            for entry in job.entries:
                self._release_entry(entry)
            with self._stats_lock:
                self.jobs_executed += 1
            if span is not None:
                tel.counter("blackboard.jobs_executed").inc()
                cpu_s = host_now() - t_host
                tel.histogram("blackboard.job_cpu_s").observe(cpu_s)
                # Per-KS cost breakdown: which operation the analysis time
                # actually goes to (the report's latency attribution input).
                tel.histogram(f"blackboard.ks_cpu_s.{job.ks.name}").observe(cpu_s)
                if job.t_submitted is not None:
                    tel.histogram("blackboard.job_dwell_s").observe(
                        max(0.0, tel.now() - job.t_submitted - cpu_s)
                    )
                span.end()
            with self._idle:
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
