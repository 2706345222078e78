#!/usr/bin/env python
"""Adaptive steering tour: close the control loop inside a running session.

Two congested sessions back to back.  Both stream an instrumented SP kernel
into a 4-rank analyzer on its own node, and both suffer the same mid-run
fault: the analyzer node's NIC degrades sharply, so rendezvous pack
transfers crawl, writers exhaust their asynchronous buffers, and write
timeouts start dropping packs.

1. **static** — the policy observes but may not act.  Packs are dropped
   until the link recovers; the analyzer sees fewer events.
2. **adaptive** — the same :class:`SteeringPolicy` with its actuators
   enabled.  The controller reacts to the monitor's ``stream_write_timeout``
   alerts by escalating the reduction chain (identity -> delta+dict ->
   delta+dict+zlib): compressed packs shrink below the congested link's
   pain threshold, drops stop, and once the monitor's alerts go quiet the
   controller relaxes the chain back to identity, one hysteresis step at a
   time.

Every decision is journalled with its triggering alert and before/after
flow latency, lands in the report's "Steering" section, and marks the
Chrome trace with an instant event.

Run:  python examples/adaptive_steering.py
"""

import dataclasses

from repro.core.session import CouplingSession
from repro.apps.nas.adi import SP
from repro.faults.plan import LINK_DEGRADE, FaultPlan, FaultSpec
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.costmodel import CostModel
from repro.network.machine import TERA100
from repro.steering.policy import SteeringPolicy, static_policy
from repro.telemetry.core import Telemetry

# Writers on nodes 0-1, the analyzer alone on node 2: only inter-node
# traffic crosses the NIC the fault degrades.
MACHINE = dataclasses.replace(TERA100, cores_per_node=8)

POLICY = SteeringPolicy(
    name="congestion-response",
    reduction_steps=("", "delta+dict", "delta+dict+zlib"),
    escalate_on=("stream_stall", "stream_write_timeout",
                 "stream_overflow_drop", "backlog_growth"),
    autoscale_on=("backlog_growth", "analyzer_stall"),
    enable_rebalance=False,
)


def run_session(label: str, policy) -> None:
    print(f"=== {label} (policy: {policy.name}) ===")
    cost = dataclasses.replace(
        CostModel.for_machine(MACHINE, ranks_per_node=8),
        eager_threshold=2048,  # 4 KiB packs rendezvous: congestion is felt
    )
    session = CouplingSession(
        machine=MACHINE, seed=7, telemetry=Telemetry(), mpi_cost=cost,
        instrumentation=InstrumentationCost(
            block_size=4096, na_buffers=2, write_timeout=2e-3,
            max_retries=2, overflow="drop-newest",
        ),
    )
    name = session.add_application(SP(16, "C", iterations=12))
    session.set_analyzer(nprocs=4)
    session.enable_monitor()
    session.enable_steering(policy)

    # Degrade the analyzer node's NIC to a trickle mid-streaming-phase.
    session.inject_faults(FaultPlan(
        specs=(FaultSpec(LINK_DEGRADE, at=1.35, target=-1, factor=2e-5),),
        name="congestion",
    ))

    result = session.run()
    run = result.app(name)
    dropped = sum(st.stats()["blocks_dropped"]
                  for _, st in result.world.streams if st.mode == "w")
    events = result.report.chapter(name).profile.events_total
    print(f"  walltime={run.walltime:.4f}s  analyzed_events={events}"
          f"  packs_dropped={dropped}")
    steering = result.steering
    print(f"  alerts seen: {steering['alerts_seen']},"
          f" decisions: {len(steering['decisions'])}")
    for d in steering["decisions"]:
        print(f"    [{d['t']:.4f}s] {d['action']}"
              f" <- {d['trigger_kind']} {d['detail']}")
    report = result.report.render()
    if "## Steering" in report:
        print()
        print(report[report.index("## Steering"):])
    print()


def main() -> None:
    run_session("static baseline", static_policy())
    run_session("adaptive", POLICY)

    # Policies are declarative and JSON round-trippable, like fault plans:
    print("=== the policy, as you would commit it next to a fault plan ===")
    print(POLICY.to_json())


if __name__ == "__main__":
    main()
