"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.mpi.costmodel import CostModel
from repro.network.machine import small_test_machine
from repro.simt.kernel import Kernel


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def machine():
    """Small deterministic machine: 8 nodes x 4 cores, 1 GB/s NICs."""
    return small_test_machine()


@pytest.fixture
def big_machine():
    """Enough nodes for medium integration runs."""
    return small_test_machine(nodes=256, cores_per_node=4)


@pytest.fixture
def cost() -> CostModel:
    return CostModel()


@pytest.fixture
def fake_lane(monkeypatch):
    """``fake_lane(name, run)``: swap a registered bench lane's driver."""
    import dataclasses

    from repro.bench.lane import LANES

    def swap(name, run):
        monkeypatch.setitem(LANES, name, dataclasses.replace(LANES[name], run=run))

    return swap


def make_watched_session(tmpdir, iterations=3, seed=0):
    """SP.C on 16 ranks, 4 analyzer ranks, every observer plane on under the
    canned ``mixed`` fault plan — ``benchmarks/e2e``'s ``observed_faulted``
    at ``--quick`` size.  Streams land in ``tmpdir`` (``pop.ndjson``,
    ``obs.ndjson``)."""
    from pathlib import Path

    from repro.core.session import CouplingSession
    from repro.instrument.overhead import InstrumentationCost
    from repro.network.machine import TERA100
    from repro.apps.nas.adi import SP
    from repro.bench.chaos import load_plan
    from repro.telemetry.core import Telemetry
    from repro.telemetry.popmetrics import PopConfig

    tmpdir = Path(tmpdir)
    session = CouplingSession(
        TERA100,
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        telemetry=Telemetry(),
    )
    session.add_application(SP(16, "C", iterations=iterations))
    session.set_analyzer(nprocs=4)
    session.enable_monitor()
    session.enable_pop_metrics(PopConfig(window=0.5), stream=str(tmpdir / "pop.ndjson"))
    session.enable_steering()
    session.enable_provenance()
    session.enable_observability(str(tmpdir / "obs.ndjson"))
    session.inject_faults(load_plan("mixed", at=0.05, seed=seed))
    return session


@pytest.fixture
def watched_session(tmp_path):
    """``watched_session(iterations, seed)``: :func:`make_watched_session`
    writing its streams into the test's ``tmp_path``."""
    from functools import partial

    return partial(make_watched_session, tmp_path)


def run_programs(machine, *programs, seed=0, virtualize=True, cost=None):
    """Launch helper: programs are (name, nprocs, main, kwargs) tuples."""
    from repro.mpi.launcher import MPMDLauncher
    from repro.vmpi.virtualization import VirtualizedLauncher

    cls = VirtualizedLauncher if virtualize else MPMDLauncher
    launcher = cls(machine=machine, seed=seed, cost=cost)
    for name, nprocs, main, kwargs in programs:
        launcher.add_program(name, nprocs=nprocs, main=main, **kwargs)
    return launcher.run()
