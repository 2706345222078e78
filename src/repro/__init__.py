"""repro — Event Streaming for Online Performance Measurements Reduction.

A full reproduction of Besnard, Pérache & Jalby (ICPP 2013) as a Python
library over a deterministic discrete-event HPC substrate:

* :mod:`repro.simt` — discrete-event simulation kernel;
* :mod:`repro.network` / :mod:`repro.iosim` — machine, network and parallel
  file-system models (Tera 100 / Curie);
* :mod:`repro.mpi` — simulated MPI runtime with MPMD launching and PMPI
  interception;
* :mod:`repro.vmpi` — the paper's virtualization / mapping / stream layer;
* :mod:`repro.blackboard` — the parallel data-centric task engine;
* :mod:`repro.instrument` / :mod:`repro.analysis` — event capture and the
  online analysis modules (profile, topology, density maps, wait states);
* :mod:`repro.apps` — NAS-MPI skeletons and EulerMHD;
* :mod:`repro.baselines` — Scalasca / Score-P / mpiP comparators;
* :mod:`repro.core` — the user-facing :class:`CouplingSession` and tool
  comparison harness;
* :mod:`repro.bench` — drivers regenerating every evaluation figure/table.

Quickstart::

    from repro import CouplingSession
    from repro.apps import nas_kernel

    session = CouplingSession(seed=1)
    session.add_application(nas_kernel("CG", 64, "C", iterations=8))
    session.set_analyzer(ratio=1.0)
    result = session.run()
    print(result.report.render())
"""

from repro.core.comparison import compare_tools
from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import CURIE, TERA100

__version__ = "1.0.0"

__all__ = ["CURIE", "TERA100", "CouplingSession", "InstrumentationCost", "compare_tools"]
