"""Determinism guarantees: identical seeds give bit-identical campaigns."""

from repro.apps import EulerMHD
from repro.apps.nas import CG, SP
from repro.core.comparison import run_tool
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine
from repro.vmpi import RANDOM, VMPIMap, map_partitions
from repro.vmpi.virtualization import VirtualizedLauncher

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


def _session_fingerprint(seed):
    session = CouplingSession(machine=MACHINE, seed=seed)
    name = session.add_application(SP(16, "C", iterations=2))
    session.set_analyzer(ratio=2.0)
    result = session.run()
    profile = result.report.chapter(name).profile
    topo = result.report.chapter(name).topology
    return (
        result.app(name).walltime,
        result.analyzer_walltime,
        profile.events_total,
        profile.mpi_time_total,
        tuple(sorted(topo.cells.items())),
    )


def test_sessions_bit_identical_across_runs():
    assert _session_fingerprint(5) == _session_fingerprint(5)


def test_seed_changes_random_mapping_not_results():
    """Seeds feed mapping policies; deterministic workloads stay identical
    in event counts even when the random mapping differs."""
    a = _session_fingerprint(5)
    b = _session_fingerprint(6)
    assert a[2] == b[2]  # same events captured
    assert a[4] == b[4]  # same communication matrix


def test_random_mapping_depends_on_seed():
    def mapping_for(seed):
        out = {}

        def prog(mpi, other):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, other, policy=RANDOM)
            out[(mpi.partition.name, mpi.rank)] = tuple(vmap.entries)
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=MACHINE, seed=seed)
        launcher.add_program("A", nprocs=12, main=prog, other="B")
        launcher.add_program("B", nprocs=3, main=prog, other="A")
        launcher.run()
        return tuple(sorted(out.items()))

    assert mapping_for(1) == mapping_for(1)
    assert mapping_for(1) != mapping_for(2)


def test_tool_runs_deterministic():
    a = run_tool(CG(16, "C", iterations=2), "scorep_trace", MACHINE, seed=3)
    b = run_tool(CG(16, "C", iterations=2), "scorep_trace", MACHINE, seed=3)
    assert a.walltime == b.walltime
    assert a.full_run_volume_bytes == b.full_run_volume_bytes


def test_multi_app_order_independent_of_dict_iteration():
    """Two sessions with the same apps give identical per-app results."""

    def run_once():
        session = CouplingSession(machine=MACHINE, seed=11)
        session.add_application(CG(8, "C", iterations=2), name="one")
        session.add_application(EulerMHD(8, grid=512, iterations=2), name="two")
        session.set_analyzer(nprocs=4)
        result = session.run()
        return {
            name: (run.walltime, run.events) for name, run in result.apps.items()
        }

    assert run_once() == run_once()
