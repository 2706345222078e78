#!/usr/bin/env python
"""Multi-instrumentation: profile several concurrent applications at once.

The paper's distinguishing capability (Sections II-B, III-B): one analysis
engine, structured as a multi-level blackboard, concurrently profiles
multiple co-launched applications — e.g. an MPMD coupled simulation — and
produces a single report with one chapter per program.  Here we co-launch a
CFD-style stencil code (EulerMHD), a sparse solver (CG) and an ADI solver
(SP), sharing one analyzer partition sized at the paper's recommended 1/10
bandwidth-resource trade-off.

Run:  python examples/multi_instrumentation.py
"""

from repro.core.session import CouplingSession
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import nas_kernel
from repro.util.units import fmt_bw, fmt_time


def main() -> None:
    session = CouplingSession(seed=7)

    apps = [
        session.add_application(EulerMHD(128, grid=2048, iterations=6,
                                         checkpoint_every=3)),
        session.add_application(nas_kernel("CG", 64, "C", iterations=8)),
        session.add_application(nas_kernel("SP", 100, "C", iterations=4)),
    ]

    # ~1/10 ratio over the 292 application ranks -> 29 analyzer ranks.
    session.set_analyzer(ratio=10.0)
    result = session.run()

    print(f"analyzer: {result.analyzer_nprocs} ranks for "
          f"{sum(result.apps[a].nprocs for a in apps)} instrumented ranks")
    print(f"analyzer processed {result.analyzer_stats['packs']} event packs "
          f"({result.analyzer_stats['bytes']} bytes)")
    print()

    for name in apps:
        run = result.apps[name]
        chapter = result.report.chapter(name)
        hits, size, _ = chapter.topology.totals()
        print(f"--- {name}")
        print(f"    wall-time {fmt_time(run.walltime)}, {run.events} events, "
              f"Bi {fmt_bw(run.bi_bandwidth)}")
        print(f"    p2p: {int(hits)} messages, {size / 1e6:.1f} MB, "
              f"{len(chapter.topology.cells)} communicating pairs")
        wait = chapter.waitstate.summary()
        print(f"    mean waiting fraction {wait['wait_fraction_mean']:.3f}")

    print()
    print("Full report (one chapter per application)")
    print("=" * 60)
    print(result.report.render(verbosity=1))


if __name__ == "__main__":
    main()
