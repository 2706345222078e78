"""VMPI: MPI virtualization, partition mapping and streams (paper Sec. III-A).

Three components, mirroring the paper's library:

* :mod:`~repro.vmpi.virtualization` — launch several programs in one MPMD
  job, each transparently running in its own ``MPI_COMM_WORLD`` while the
  real world communicator remains available as ``MPI_COMM_UNIVERSE``.
* :mod:`~repro.vmpi.mapping` — ``VMPI_Map``: associate the processes of two
  partitions through a *pivot* (the smaller partition's root) under a
  round-robin / random / fixed / user-defined policy; maps are additive.
* :mod:`~repro.vmpi.stream` — ``VMPI_Stream``: persistent asynchronous
  UNIX-pipe-like channels between mapped processes, with ``NA`` receive
  buffers per incoming stream, shared write-side buffers, load-balancing
  policies and non-blocking reads returning ``EAGAIN``.
"""

from repro.vmpi.virtualization import VirtualizedLauncher

__all__ = ["VirtualizedLauncher"]
