"""SIONlib-style task-local file aggregation.

SIONlib (Frings et al., SC'09 — reference [2] of the paper) lets N tasks
write logical task-local files into a small number of physical containers,
removing the N-fold metadata storm and giving each task an aligned chunk.
Score-P's trace mode uses it in Figure 16.

Model: one physical container per ``tasks_per_file`` tasks.  Only the first
task to touch a container pays the create/open metadata transaction; writes
go through the shared data path with a small alignment overhead (chunks are
padded to the file-system block size).
"""

from __future__ import annotations

from repro.errors import IOSimError
from repro.iosim.filesystem import ParallelFS


class SionFile:
    """A shared physical container multiplexing many logical task files."""

    #: Lustre-style alignment block for chunk padding.
    BLOCK_SIZE = 64 * 1024

    def __init__(self, fs: ParallelFS, path: str, tasks_per_file: int = 512):
        if tasks_per_file < 1:
            raise IOSimError(f"tasks_per_file must be >= 1, got {tasks_per_file}")
        self.fs = fs
        self.path = path
        self.tasks_per_file = tasks_per_file
        self._opened_containers: set[int] = set()
        self._task_sizes: dict[int, int] = {}
        self.physical_size = 0

    def container_of(self, task: int) -> int:
        return task // self.tasks_per_file

    def open_task(self, task: int, service_scale: float = 1.0):
        """Generator: open the logical file of ``task``.

        Pays the metadata transaction only for the first task per container.
        """
        container = self.container_of(task)
        if container not in self._opened_containers:
            self._opened_containers.add(container)
            yield from self.fs.metadata_op(service_scale)
        else:
            yield 0.0
        self._task_sizes.setdefault(task, 0)

    def write_task(self, task: int, nbytes: int):
        """Generator: append ``nbytes`` to the task's logical file."""
        if task not in self._task_sizes:
            raise IOSimError(f"task {task}: write before open_task")
        if nbytes < 0:
            raise IOSimError(f"task {task}: negative write")
        padded = -(-nbytes // self.BLOCK_SIZE) * self.BLOCK_SIZE
        self._task_sizes[task] += nbytes
        self.physical_size += padded
        self.fs.bytes_written += padded
        yield self.fs._capped_transfer(padded, None)

    def close_task(self, task: int):
        """Generator: close a logical task file (no metadata op needed)."""
        if task not in self._task_sizes:
            raise IOSimError(f"task {task}: close before open_task")
        yield 0.0

    def task_size(self, task: int) -> int:
        return self._task_sizes.get(task, 0)

    @property
    def containers_used(self) -> int:
        return len(self._opened_containers)

    @property
    def logical_size(self) -> int:
        return sum(self._task_sizes.values())
