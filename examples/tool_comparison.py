#!/usr/bin/env python
"""Tool comparison: online coupling vs file-based tools (paper Figure 16).

Runs NAS SP class D under the reference (no tool), the online coupling, and
the modelled baselines (mpiP, Score-P profile, Score-P trace over SIONlib,
Scalasca) on the Curie machine model, and prints relative overheads and
full-run measurement volumes.  The paper's claim to check: the online
coupling moves ~2.9x more data than Score-P tracing yet costs *less* at
scale, because it uses the network bisection instead of the shared file
system.

Run:  python examples/tool_comparison.py [nprocs]
"""

import sys

from repro.core.comparison import compare_tools
from repro.network.machine import CURIE
from repro.apps.nas import nas_kernel
from repro.baselines.postmortem import PostMortemAnalyzer
from repro.util.tables import Table
from repro.util.units import GB, fmt_time


def main() -> None:
    nprocs = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    results = compare_tools(
        lambda: nas_kernel("SP", nprocs, "D", iterations=3),
        tools=(
            "reference",
            "online",
            "mpip",
            "scorep_profile",
            "scorep_trace",
            "scalasca",
        ),
        machine=CURIE,
    )

    table = Table(
        ["tool", "walltime_s", "overhead_pct", "full_run_volume_GB"],
        title=f"SP.D on {nprocs} ranks (Curie model)",
    )
    for r in results:
        table.add_row(r.tool, r.walltime, r.overhead_pct, r.full_run_volume_bytes / GB)
    print(table.render())
    print()

    # Time-to-report: the online analysis finishes with the run; the
    # trace-based flow still has to read the trace back and analyse it.
    trace = next(r for r in results if r.tool == "scorep_trace")
    postmortem = PostMortemAnalyzer(CURIE, analysis_cores=nprocs).analyze(
        trace.full_run_volume_bytes
    )
    print("Post-mortem phase the trace-based flow still owes after the run:")
    print(f"  trace read-back : {fmt_time(postmortem.read_back_seconds)}")
    print(f"  redistribution  : {fmt_time(postmortem.redistribute_seconds)}")
    print(f"  analysis        : {fmt_time(postmortem.analyze_seconds)}")
    print(f"  total           : {fmt_time(postmortem.total_seconds)}")
    print("(the online coupling's report was ready at MPI_Finalize)")


if __name__ == "__main__":
    main()
