"""Application workloads: NAS-MPI communication skeletons and EulerMHD.

Each kernel reproduces the *communication structure* of its benchmark —
process grid, per-iteration message pattern, message sizes derived from the
published problem class — while computation phases are modelled from the
published operation counts.  This preserves the quantity the paper's
overhead analysis hinges on: the instrumentation data bandwidth
``Bi = total event size / execution time`` per benchmark and class.

Kernels run a configurable number of simulated iterations
(steady-state overhead does not need the full official iteration count);
volume extrapolation to the official count uses
:meth:`~repro.apps.base.NASKernel.iteration_scale`.
"""

from repro.apps.nas import nas_kernel
from repro.apps.nas.adi import SP
from repro.apps.nas.cg import CG
from repro.apps.nas.lu import LU
from repro.apps.synthetic import stream_reader_program, stream_writer_program

__all__ = ["CG", "LU", "SP", "nas_kernel", "stream_reader_program", "stream_writer_program"]
