"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.mpi.costmodel import CostModel
from repro.network.machine import small_test_machine
from repro.simt import Kernel


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

    from repro.bench import LANES

    def swap(name, run):
        monkeypatch.setitem(LANES, name, dataclasses.replace(LANES[name], run=run))

    return swap


def run_programs(machine, *programs, seed=0, virtualize=True, cost=None):
    """Launch helper: programs are (name, nprocs, main, kwargs) tuples."""
    from repro.mpi.launcher import MPMDLauncher
    from repro.vmpi.virtualization import VirtualizedLauncher

    cls = VirtualizedLauncher if virtualize else MPMDLauncher
    launcher = cls(machine=machine, seed=seed, cost=cost)
    for name, nprocs, main, kwargs in programs:
        launcher.add_program(name, nprocs=nprocs, main=main, **kwargs)
    return launcher.run()
