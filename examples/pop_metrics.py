#!/usr/bin/env python
"""Time-resolved POP efficiency tour: watch a run's efficiency *evolve*.

A synthetic two-phase workload — 40 balanced compute-heavy iterations,
then 40 imbalanced communication-heavy ones — runs coupled to the
analyzer with the online :class:`PopMetricsEngine` attached. The engine
closes a metric window every few milliseconds of virtual time, streams
each one to an NDJSON file the moment it closes (the file a visual
frontend would ``tail -f``), and detects the phase boundary online with
a change-point test. Afterwards we:

1. print an ASCII sparkline of parallel efficiency over the windows,
2. show the detected phases (the seam lands at the workload's true
   transition),
3. replay the NDJSON stream through the validating loader and recombine
   the per-phase per-rank sums — reproducing the end-of-run metrics
   exactly, the telescoping property the bench lane gates on.

Run:  python examples/pop_metrics.py
"""

import os
import tempfile

from repro.apps.base import AppKernel
from repro.core.session import CouplingSession
from repro.obs import METRICS_SCHEMA, read_records
from repro.telemetry import PopConfig, Telemetry
from repro.telemetry.popmetrics import SUM_KEYS, metrics_from_sums

BARS = " .:-=+*#%@"


class TwoPhase(AppKernel):
    """Balanced compute, then imbalanced compute + chatty collectives."""

    name = "TWOPHASE"

    def __init__(self, nprocs=8, iters_a=40, iters_b=40):
        super().__init__(nprocs, iters_a + iters_b)
        self.iters_a = iters_a
        self.iters_b = iters_b

    def main(self, mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        for _ in range(self.iters_a):
            yield from mpi.compute(2e-3)
            yield from comm.allreduce(nbytes=8)
        for _ in range(self.iters_b):
            yield from mpi.compute(2e-4 + 6e-4 * comm.rank / comm.size)
            for _ in range(4):
                yield from comm.allreduce(nbytes=65536)
        yield from mpi.finalize()


def sparkline(values):
    return "".join(
        BARS[min(len(BARS) - 1, max(0, int(v * (len(BARS) - 1))))] for v in values
    )


def main() -> None:
    ndjson = os.path.join(tempfile.mkdtemp(prefix="pop_metrics_"), "run.ndjson")
    session = CouplingSession(seed=3, telemetry=Telemetry())
    session.add_application(TwoPhase(), name="twophase")
    session.set_analyzer(nprocs=2)
    session.enable_pop_metrics(PopConfig(window=0.004), stream=ndjson)
    result = session.run()

    summary = result.efficiency
    print(f"windows={summary['windows']}  phases={len(summary['phases'])}  "
          f"signal={summary['signal']}")

    # 1. Efficiency sparkline over the windowed series.
    engine = session.pop_metrics
    series = [w.metrics["parallel_efficiency"] for w in engine.windows]
    print(f"\nparallel efficiency per {summary['window_s'] * 1e3:g} ms window:")
    print(f"  |{sparkline(series)}|")

    # 2. The detected phases: the seam sits at the workload transition.
    print("\ndetected phases:")
    for phase in summary["phases"]:
        m = phase["metrics"]
        print(f"  phase {phase['index']}: [{phase['t0']:.3f}, {phase['t1']:.3f}]s "
              f"({phase['windows']} windows)  PE={m['parallel_efficiency']:.3f}  "
              f"LB={m['load_balance']:.3f}  CommE={m['communication_efficiency']:.3f}")

    # 3. Replay the stream: phases recombine to the end-of-run metrics.
    records = read_records(ndjson, schema=METRICS_SCHEMA)
    kinds = [r["kind"] for r in records]
    print(f"\nNDJSON stream: {len(records)} records "
          f"({kinds.count('window')} windows, {kinds.count('phase')} phases, "
          f"{kinds.count('run_summary')} summary) -> {ndjson}")
    combined = {}
    for record in records:
        if record["kind"] != "phase":
            continue
        for rank_key, sums in record["ranks"].items():
            entry = combined.setdefault(rank_key, {k: 0.0 for k in SUM_KEYS})
            for key in SUM_KEYS:
                entry[key] += sums[key]
    recombined = metrics_from_sums(combined)
    eor = summary["end_of_run"]
    print("\ntelescoping check (recombined from streamed phases vs end of run):")
    for key, value in recombined.items():
        print(f"  {key:28s} {value:.6f}  vs  {eor[key]:.6f}  "
              f"(delta {abs(value - eor[key]):.2e})")

    report = result.report.render()
    print()
    print(report[report.index("## Efficiency timeline"):])


if __name__ == "__main__":
    main()
