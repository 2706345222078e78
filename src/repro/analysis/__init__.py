"""Analysis knowledge sources and profiling reports.

The data-flow of paper Figure 4, instantiated per blackboard level (one per
instrumented application):

* ``KS_Unpacker`` — decodes event packs into typed event batches;
* ``KS_MPIProfiler`` — per-call-name statistics (hits, time, bytes);
* ``KS_Topology`` — point-to-point communication matrices/graphs weighted in
  hits, total size and total time (paper Figure 17);
* ``KS_DensityMap`` — per-rank hits/time/size maps for MPI calls
  (paper Figure 18);
* ``KS_WaitState`` — the preliminary wait-state analysis the paper describes
  as work-in-progress (Section IV-D).

Each module keeps a mergeable *state* so per-analyzer-rank partial results
reduce into one report at the analyzer root.
"""

from repro.analysis.alerts import AlertMonitor
from repro.analysis.density import DensityMaps
from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.analysis.latesender import LateSenderAnalysis
from repro.analysis.otf2proxy import OTF2Proxy
from repro.analysis.profiler import MPIProfile
from repro.analysis.report import ProfileReport
from repro.analysis.topology import CommMatrix
from repro.analysis.waitstate import WaitState

__all__ = [
    "AlertMonitor",
    "AnalysisConfig",
    "AnalyzerEngine",
    "CommMatrix",
    "DensityMaps",
    "LateSenderAnalysis",
    "MPIProfile",
    "OTF2Proxy",
    "ProfileReport",
    "WaitState",
]
