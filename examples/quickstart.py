#!/usr/bin/env python
"""Quickstart: profile one NAS benchmark online and print the report.

This is the paper's core user story — an instrumented application streams
its MPI events over the (simulated) interconnect into a concurrently running
blackboard analysis engine; the profiling report is available immediately
after the run, with no trace file ever written.

Run:  python examples/quickstart.py
"""

from repro.core.session import CouplingSession
from repro.apps.nas import nas_kernel
from repro.util.units import fmt_bw, fmt_time


def main() -> None:
    session = CouplingSession(seed=42)  # defaults to the Tera 100 model

    # The application: NAS CG, class C, on 64 ranks (power of two).
    name = session.add_application(nas_kernel("CG", 64, "C", iterations=8))

    # One analyzer rank per instrumented rank (the paper's 1/1 ratio).
    session.set_analyzer(ratio=1.0)

    result = session.run()
    run = result.app(name)

    print(f"application      : {run.name} on {run.nprocs} ranks")
    print(f"wall-time        : {fmt_time(run.walltime)} (simulated)")
    print(f"events captured  : {run.events}")
    print(f"stream volume    : {run.modeled_stream_bytes} bytes (modelled)")
    print(f"Bi bandwidth     : {fmt_bw(run.bi_bandwidth)}")
    print(f"analyzer ranks   : {result.analyzer_nprocs}")
    print()

    # The report has one chapter per instrumented application.
    print(result.report.render(verbosity=1))

    # Compare against an uninstrumented run of the same workload.
    reference = session.run_reference()
    t_ref = reference.app(name).walltime
    overhead = (run.walltime - t_ref) / t_ref * 100.0
    print(f"reference wall-time : {fmt_time(t_ref)}")
    print(f"relative overhead   : {overhead:.2f} % (paper: < 25 %)")


if __name__ == "__main__":
    main()
