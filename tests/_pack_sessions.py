"""Small coupled sessions shared by the pack-path tests, public API only.

``reduced_coupled`` and ``observed_faulted`` are the quick shapes of the two
``benchmarks/e2e`` session workloads (SP.C x 16, 4 KiB packs); ``overflowing``
is a session whose writers really time out: rendezvous for every pack (eager
threshold below the pack size), one output buffer, an analyzer a second per
pack behind.  :func:`snapshot` is everything the pack path accounts, in a form
that survives a JSON round trip bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.analysis.engine import AnalysisConfig
from repro.apps.nas.adi import SP
from repro.bench.chaos import load_plan
from repro.mpi.costmodel import CostModel
from repro.telemetry.core import Telemetry
from repro.telemetry.popmetrics import PopConfig


def reduced_coupled(seed: int = 0, telemetry: Telemetry | None = None) -> CouplingSession:
    session = CouplingSession(
        TERA100,
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        telemetry=telemetry,
    )
    session.add_application(SP(16, "C", iterations=2))
    session.set_analyzer(ratio=8.0)
    session.set_reduction("delta+dict+zlib")
    return session


def observed_faulted(seed: int, tmpdir, plan: str = "mixed") -> CouplingSession:
    session = CouplingSession(
        TERA100,
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        telemetry=Telemetry(),
    )
    session.add_application(SP(16, "C", iterations=3))
    session.set_analyzer(nprocs=4)
    session.enable_monitor()
    session.enable_pop_metrics(
        PopConfig(window=0.5), stream=os.path.join(tmpdir, "pop.ndjson")
    )
    session.enable_steering()
    session.enable_provenance()
    session.enable_observability(os.path.join(tmpdir, "obs.ndjson"))
    session.inject_faults(load_plan(plan, at=0.05, seed=seed))
    return session


def overflowing(
    seed: int = 0, overflow: str = "drop-oldest", telemetry: Telemetry | None = None
) -> CouplingSession:
    session = CouplingSession(
        TERA100,
        seed=seed,
        mpi_cost=dataclasses.replace(CostModel.for_machine(TERA100), eager_threshold=1024),
        instrumentation=InstrumentationCost(
            block_size=4096, na_buffers=1, write_timeout=1e-3, max_retries=1,
            overflow=overflow,
        ),
        analysis=AnalysisConfig(per_pack_cpu=1.0, block_size=4096, na_buffers=1),
        telemetry=telemetry,
    )
    session.add_application(SP(16, "C", iterations=3))
    session.set_analyzer(nprocs=2)
    session.enable_provenance()
    return session


def app_run(result):
    """The one application's ``AppRun``."""
    (run,) = result.apps.values()
    return run


def snapshot(result) -> dict:
    """Every stream's ``stats()``, ``analyzer_stats`` and the flow summary."""
    return json.loads(
        json.dumps(
            {
                "streams": [[rank, st.stats()] for rank, st in result.world.streams],
                "analyzer_stats": result.analyzer_stats,
                "flows": result.flows,
            }
        )
    )
