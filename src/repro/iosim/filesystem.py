"""The shared parallel file-system instance of a simulated job.

Model:

* **Data path** — one job-wide :class:`~repro.simt.resources.Pipe` whose
  bandwidth is the machine's aggregate FS throughput scaled by the job's
  share of the machine (the paper's own scaling argument: Tera 100's
  500 GB/s become 9.1 GB/s for a 2560-core job).  Additionally each *file*
  is capped at the stripe bandwidth — a single writer cannot use the whole
  file system.
* **Metadata path** — one serialized server; every namespace operation
  (create/open/close/stat) costs ``fs_metadata_latency`` of exclusive server
  time.  When thousands of ranks create task-local files simultaneously the
  queue delay dominates — exactly the meta-data-contention failure mode the
  paper's introduction describes.
"""

from __future__ import annotations

from repro.errors import IOSimError
from repro.network.machine import MachineSpec
from repro.simt import Kernel, Pipe
from repro.simt.primitives import SimEvent
from repro.simt.resources import Resource


class ParallelFS:
    """Job-scoped view of the shared parallel file system."""

    def __init__(self, kernel: Kernel, machine: MachineSpec, job_cores: int):
        if job_cores <= 0:
            raise IOSimError(f"job_cores must be > 0, got {job_cores}")
        self.kernel = kernel
        self.machine = machine
        self.job_cores = job_cores
        bandwidth = machine.fs_job_bandwidth(job_cores)
        self.data_pipe = Pipe(kernel, bandwidth, name="fs.data")
        self.metadata = Resource(kernel, capacity=1, name="fs.mds")
        self.metadata_ops = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.files_created = 0

    @property
    def job_bandwidth(self) -> float:
        return self.data_pipe.bandwidth

    # -- metadata ----------------------------------------------------------------

    def metadata_op(self, service_scale: float = 1.0):
        """Generator: performs one metadata operation (queue + service).

        ``service_scale`` shrinks the exclusive service time; experiment
        drivers use it to amortize one-time costs over shortened runs while
        preserving the MDS queueing structure.
        """
        if not (0 < service_scale <= 1.0):
            raise IOSimError(f"service_scale must be in (0, 1], got {service_scale}")
        self.metadata_ops += 1
        yield self.metadata.acquire()
        try:
            yield float(self.machine.fs_metadata_latency * service_scale)
        finally:
            self.metadata.release()

    # -- data --------------------------------------------------------------------

    def raw_write(self, nbytes: int, stripe_cap: float | None = None) -> SimEvent:
        """Commit ``nbytes`` to the shared data path (no metadata)."""
        if nbytes < 0:
            raise IOSimError(f"negative write: {nbytes}")
        self.bytes_written += nbytes
        return self._capped_transfer(nbytes, stripe_cap)

    def raw_read(self, nbytes: int, stripe_cap: float | None = None) -> SimEvent:
        if nbytes < 0:
            raise IOSimError(f"negative read: {nbytes}")
        self.bytes_read += nbytes
        return self._capped_transfer(nbytes, stripe_cap)

    def _capped_transfer(self, nbytes: int, stripe_cap: float | None) -> SimEvent:
        ev = self.data_pipe.transfer(nbytes)
        cap = stripe_cap if stripe_cap is not None else self.machine.fs_stripe_bandwidth
        # A single stream cannot beat its stripe bandwidth even on an idle FS:
        # enforce a minimum duration of nbytes / stripe_cap.
        min_duration = nbytes / cap
        floor = self.kernel.timeout(min_duration)
        return self.kernel.all_of([ev, floor])

    def open_file(self, path: str, create: bool = True) -> "_OpenTicket":
        """Begin an open; caller must ``yield from ticket.wait()``."""
        if create:
            self.files_created += 1
        return _OpenTicket(self, path)


class _OpenTicket:
    """Deferred metadata transaction for an open/create."""

    def __init__(self, fs: ParallelFS, path: str):
        self.fs = fs
        self.path = path

    def wait(self):
        yield from self.fs.metadata_op()
