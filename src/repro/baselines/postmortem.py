"""Post-mortem trace analysis over the file-system model.

The classical workflow of paper Figure 1: after the instrumented run, an
analysis job *reads the trace back* from the shared file system,
redistributes it to analysis processes and reduces it.  This is the path
the online coupling removes; modelling it lets benchmarks report the
*time-to-report* comparison (trace write + read-back + reduce vs. streamed
analysis finishing "briefly after execution ends").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.network.machine import MachineSpec


@dataclass(frozen=True)
class PostMortemResult:
    read_back_seconds: float
    redistribute_seconds: float
    analyze_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.read_back_seconds + self.redistribute_seconds + self.analyze_seconds


class PostMortemAnalyzer:
    """Analytic model of the trace read-back + analysis phase."""

    #: CPU seconds to reduce one trace byte
    per_byte_cpu = 0.8e-9

    def __init__(self, machine: MachineSpec, analysis_cores: int):
        if analysis_cores <= 0:
            raise ConfigError("analysis_cores must be > 0")
        self.machine = machine
        self.analysis_cores = analysis_cores

    def analyze(self, trace_bytes: int) -> PostMortemResult:
        """Time to read a trace of ``trace_bytes`` back and reduce it."""
        if trace_bytes < 0:
            raise ConfigError("trace_bytes must be >= 0")
        fs_bw = self.machine.fs_job_bandwidth(self.analysis_cores)
        read_back = trace_bytes / fs_bw
        # Explicit redistribution: the trace is written in file order, the
        # analysis wants rank order (paper Figure 1) — one shuffle pass
        # through the per-rank NIC share.
        per_rank_bw = (
            self.machine.nic_effective_bandwidth(self.machine.cores_per_node)
            / self.machine.cores_per_node
        )
        redistribute = trace_bytes / (per_rank_bw * self.analysis_cores)
        analyze = trace_bytes * self.per_byte_cpu / self.analysis_cores
        return PostMortemResult(
            read_back_seconds=read_back,
            redistribute_seconds=redistribute,
            analyze_seconds=analyze,
        )
