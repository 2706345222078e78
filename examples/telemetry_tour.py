#!/usr/bin/env python
"""Telemetry tour: watch the measurement pipeline measure itself.

The reproduction's self-telemetry subsystem stamps counters, gauges,
histograms and spans in *virtual kernel time* while a coupled run executes,
then exports a Chrome trace-event file — open it in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` to see one process row
per simulated rank plus the kernel's own row.

Run:  python examples/telemetry_tour.py
"""

from repro.core.session import CouplingSession
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import nas_kernel
from repro.telemetry.core import Telemetry
from repro.util.units import fmt_bytes, fmt_time


def main() -> None:
    # One Telemetry instance is shared by the whole simulation; the kernel
    # binds its clock to virtual time at launch.
    tel = Telemetry()
    session = CouplingSession(seed=7, telemetry=tel)
    session.add_application(nas_kernel("CG", 32, "C", iterations=4))
    session.add_application(EulerMHD(16, iterations=3))
    session.set_analyzer(ratio=2.0)
    result = session.run()

    # -- headline numbers -------------------------------------------------------
    head = tel.headline()
    print(f"kernel events dispatched : {head['events_dispatched']}")
    print(f"bytes streamed           : {fmt_bytes(head['bytes_streamed'])}")
    print(f"spans recorded           : {head['spans_recorded']}")
    print()

    # -- where the virtual time went -------------------------------------------
    print("busiest spans (by summed virtual duration):")
    totals = tel.span_totals()
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["total_s"])[:8]:
        print(f"  {name:<22} x{int(t['count']):<6} {fmt_time(t['total_s'])}")
    print()

    # -- distributions ----------------------------------------------------------
    stall = tel.histograms.get("stream.write_stall_s")
    if stall is not None and stall.count:
        print(
            f"writer rendezvous stalls : n={stall.count} "
            f"mean={fmt_time(stall.mean)} p95={fmt_time(stall.percentile(95))}"
        )
    print()

    # -- the same summary, embedded in the profiling report ---------------------
    rendered = result.report.render()
    section = rendered[rendered.index("## Self-telemetry") :]
    print(section)

    # -- export -----------------------------------------------------------------
    trace = tel.write_chrome_trace("telemetry_tour.trace.json")
    jsonl = tel.write_jsonl("telemetry_tour.jsonl")
    print(f"Chrome trace (load in Perfetto): {trace}")
    print(f"JSONL records (jq/pandas)      : {jsonl}")


if __name__ == "__main__":
    main()
