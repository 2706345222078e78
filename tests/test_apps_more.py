"""Additional workload checks: MG/FT/EP structure, scaling relations."""

import pytest

from repro.apps.nas.adi import SP
from repro.apps.nas.ep import EP
from repro.apps.nas.ft import FT
from repro.apps.nas.mg import MG
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


def profile(kernel, name=None):
    session = CouplingSession(machine=MACHINE, seed=0)
    label = session.add_application(kernel, name=name)
    session.set_analyzer(ratio=1.0)
    return label, session.run()


class TestMG:
    def test_vcycle_visits_every_level_twice(self):
        mg = MG(8, "C", iterations=1)
        name, result = profile(mg)
        profile_rows = {r[0]: r for r in result.report.chapter(name).profile.rows()}
        # 6 neighbours x 2 visits x nlevels isends per rank (self-loops off).
        isends = profile_rows["MPI_Isend"][1]
        assert isends == 8 * 2 * mg.levels() * 6

    def test_face_bytes_shrink_with_level(self):
        mg = MG(8, "C")
        px, _, _ = (2, 2, 2)
        assert mg.face_bytes(0, 2) > mg.face_bytes(3, 2)

    def test_neighbour_symmetry(self):
        name, result = profile(MG(8, "C", iterations=1))
        topo = result.report.chapter(name).topology
        assert topo.is_symmetric("hits")


class TestFT:
    def test_alltoall_dominates_bytes(self):
        name, result = profile(FT(16, "C", iterations=2))
        rows = {r[0]: r for r in result.report.chapter(name).profile.rows()}
        assert rows["MPI_Alltoall"][1] == 16 * 3  # initial + 2 iterations
        # No point-to-point traffic at all: transpose is collective.
        topo = result.report.chapter(name).topology
        assert len(topo.cells) == 0

    def test_ft_time_mostly_communication_or_compute(self):
        name, result = profile(FT(16, "C", iterations=2))
        prof = result.report.chapter(name).profile
        assert prof.mpi_time_total < result.app(name).walltime * 16


class TestEP:
    def test_ep_minimal_communication(self):
        name, result = profile(EP(16, "C"))
        prof = result.report.chapter(name).profile
        rows = {r[0]: r for r in prof.rows()}
        assert rows["MPI_Allreduce"][1] == 16 * 3
        # Communication is a negligible share of the runtime.
        assert prof.mpi_time_total < 0.05 * result.app(name).walltime * 16

    def test_ep_lowest_bi_in_suite(self):
        _, ep_result = profile(EP(16, "C"), name="ep")
        _, sp_result = profile(SP(16, "C", iterations=3), name="sp")
        assert ep_result.app("ep").bi_bandwidth < sp_result.app("sp").bi_bandwidth


class TestStrongScalingRelations:
    def test_reference_walltime_shrinks_with_ranks(self):
        walls = {}
        for nprocs in (16, 64):
            session = CouplingSession(machine=MACHINE, seed=0)
            name = session.add_application(SP(nprocs, "C", iterations=2))
            walls[nprocs] = session.run_reference().app(name).walltime
        assert walls[64] < walls[16]

    def test_events_per_rank_grow_with_sqrt_p(self):
        events = {}
        for nprocs in (16, 64):
            session = CouplingSession(machine=MACHINE, seed=0)
            name = session.add_application(SP(nprocs, "C", iterations=2))
            session.set_analyzer(ratio=1.0)
            events[nprocs] = session.run().app(name).events / nprocs
        # sqrt(64)/sqrt(16) = 2: per-rank event count roughly doubles.
        assert events[64] / events[16] == pytest.approx(2.0, rel=0.1)
