#!/usr/bin/env python
"""Pipeline latency attribution: where does an event pack's time go?

With provenance enabled, every pack a writer seals is stamped at each hop
of the streaming pipeline — seal, stream enqueue, send, arrival, read,
blackboard dispatch, analysis done.  The stages telescope, so a pack's
stage latencies sum to its end-to-end latency exactly.  This example runs
the coupled SP workload with a deliberately undersized analyzer, prints
the per-stage summary, renders the critical-path pack as an ASCII
waterfall, and shows per-stream watermarks (how far analysis lags behind
production).

Run:  python examples/flow_waterfall.py
"""

from repro.apps.nas.adi import SP
from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.telemetry.flow import waterfall
from repro.util.units import fmt_time


def main() -> None:
    session = CouplingSession(
        seed=42,
        # Small packs: many flows per writer rather than one tail flush.
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
    )
    session.add_application(SP(16, "C", iterations=3), name="sp")
    # Two readers for sixteen writers: backpressure shows up as dwell.
    session.set_analyzer(nprocs=2)
    registry = session.enable_provenance()
    result = session.run()

    flows = result.flows
    print(f"flows traced:   {flows['flows_traced']} "
          f"(completed {flows['flows_completed']}, dropped {flows['flows_dropped']})")
    print("per-stage latency:")
    for stage, s in flows["stages"].items():
        print(f"  {stage:>9s}  n={s['count']:3d}  p50={fmt_time(s['p50_s'])}"
              f"  p95={fmt_time(s['p95_s'])}  total={fmt_time(s['total_s'])}")
    end = flows["end_to_end"]
    print(f"  end-to-end n={end['count']:3d}  p50={fmt_time(end['p50_s'])}"
          f"  p95={fmt_time(end['p95_s'])}  total={fmt_time(end['total_s'])}")

    critical = flows["critical_path"]
    worst = registry.get(critical["flow_id"])
    print(f"\ncritical path: flow {critical['flow_id']:#x} "
          f"(app rank {worst.origin_rank} -> analyzer g{worst.consumer_global}), "
          f"end-to-end {fmt_time(critical['total_s'])}")
    total = critical["total_s"]
    width = 48
    for stage, start, dur in waterfall(worst):
        offset = int((start - worst.t_seal) / total * width) if total else 0
        bar = max(1, int(dur / total * width)) if total else 1
        print(f"  {stage:>9s} |{' ' * offset}{'#' * bar:<{width - offset}}| "
              f"{fmt_time(dur)} ({critical['share'][stage]:.0%})")

    print("\nwatermarks (analysis lag per producer stream):")
    for name, w in sorted(flows["watermarks"].items()):
        print(f"  {name:>12s}  sealed={w['sealed']:3d}  completed={w['completed']:3d}"
              f"  lag={fmt_time(w['lag_s'] or 0)}  max lag={fmt_time(w['max_lag_s'])}")


if __name__ == "__main__":
    main()
