"""Cross-module integration: full coupling runs, overhead behaviour,
determinism, failure injection."""

import pytest

from repro.analysis.engine import AnalysisConfig
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas.adi import SP
from repro.apps.nas.cg import CG
from repro.apps.nas.lu import LU
from repro.bench.harness import measure_overhead, readers_for
from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import small_test_machine

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


class TestFullPipeline:
    def test_profile_matches_ground_truth_counts(self):
        """Analyzer-side counts equal instrumentation-side counts."""
        session = CouplingSession(machine=MACHINE, seed=7)
        kernel = SP(16, "C", iterations=2)
        name = session.add_application(kernel)
        session.set_analyzer(ratio=1.0)
        result = session.run()
        profile = result.report.chapter(name).profile
        assert profile.events_total == result.app(name).events
        # SP does 6*sqrt(P) sends per rank per iteration.
        import math
        q = math.isqrt(16)
        expected_sends = 16 * 2 * 6 * q
        send_rows = {r[0]: r for r in profile.rows()}
        assert send_rows["MPI_Isend"][1] == expected_sends
        assert send_rows["MPI_Irecv"][1] == expected_sends
        assert send_rows["MPI_Waitall"][1] == expected_sends  # one per exchange
        assert send_rows["MPI_Allreduce"][1] == 16 * 2

    def test_topology_volume_matches_matrix(self):
        session = CouplingSession(machine=MACHINE, seed=7)
        kernel = LU(16, "C", iterations=1)
        name = session.add_application(kernel)
        session.set_analyzer(ratio=1.0)
        result = session.run()
        topo = result.report.chapter(name).topology
        profile = result.report.chapter(name).profile
        send_bytes = next(r[6] for r in profile.rows() if r[0] == "MPI_Send")
        assert topo.totals()[1] == pytest.approx(send_bytes)

    def test_determinism_same_seed(self):
        def run():
            session = CouplingSession(machine=MACHINE, seed=13)
            name = session.add_application(CG(16, "C", iterations=3))
            session.set_analyzer(ratio=2.0)
            result = session.run()
            return (
                result.app(name).walltime,
                result.app(name).events,
                result.analyzer_walltime,
            )

        assert run() == run()

    def test_walltimes_scale_with_iterations(self):
        t = {}
        for iters in (2, 8):
            session = CouplingSession(machine=MACHINE, seed=1)
            name = session.add_application(SP(16, "C", iterations=iters))
            session.set_analyzer(ratio=1.0)
            t[iters] = session.run().app(name).walltime
        assert t[8] > 3.0 * t[2]


class TestOverheadBehaviour:
    def test_overhead_positive_and_bounded(self):
        point = measure_overhead(SP(16, "C", iterations=3), MACHINE, ratio=1.0)
        assert 0.0 <= point.overhead_pct < 30.0

    def test_higher_bi_higher_overhead(self):
        """Class C (higher event rate) costs more than class D — Fig. 15."""
        c = measure_overhead(SP(16, "C", iterations=3), MACHINE, ratio=1.0)
        d = measure_overhead(SP(16, "D", iterations=3), MACHINE, ratio=1.0)
        assert c.bi_bandwidth > d.bi_bandwidth
        assert c.overhead_pct > d.overhead_pct

    def test_undersized_analyzer_increases_overhead(self):
        """Backpressure: a starved analyzer slows the application.

        Small stream blocks force flushes *during* the run; an expensive
        analysis on a single analyzer rank then throttles 16 producers.
        """
        from repro.mpi.costmodel import CostModel

        instr = InstrumentationCost(block_size=4096, na_buffers=1)
        expensive = AnalysisConfig(per_byte_cpu=5e-5, per_pack_cpu=1e-4, na_buffers=1)
        # Blocks must use the rendezvous path (as the paper's 1 MB blocks
        # do) for reader speed to throttle writers.
        rendezvous = CostModel(eager_threshold=2048)
        kwargs = dict(instrumentation=instr, analysis=expensive, mpi_cost=rendezvous)
        fat = measure_overhead(SP(16, "C", iterations=8), MACHINE, ratio=1.0, **kwargs)
        starved = measure_overhead(
            SP(16, "C", iterations=8), MACHINE, ratio=16.0, **kwargs
        )
        assert fat.overhead_pct < 5.0
        assert starved.overhead_pct > 100.0  # writers throttled to reader pace

    def test_reader_floor_of_one(self):
        point = measure_overhead(CG(8, "C", iterations=2), MACHINE, ratio=64.0)
        assert point.events > 0  # ran with a single analyzer rank

    def test_readers_for_formula(self):
        assert readers_for(2560, 1) == 2560
        assert readers_for(2560, 64) == 40
        assert readers_for(4, 64) == 1
        with pytest.raises(ValueError):
            readers_for(0, 1)


class TestMultiApplication:
    def test_three_concurrent_apps(self):
        session = CouplingSession(machine=MACHINE, seed=5)
        session.add_application(CG(8, "C", iterations=3))
        session.add_application(SP(9, "C", iterations=2))
        session.add_application(EulerMHD(8, grid=512, iterations=3))
        session.set_analyzer(nprocs=8)
        result = session.run()
        assert len(result.report.chapters) == 3
        for chapter in result.report.chapters:
            assert chapter.profile.events_total > 0

    def test_apps_with_same_kernel_need_distinct_names(self):
        session = CouplingSession(machine=MACHINE)
        session.add_application(CG(8, "C"), name="cg-one")
        session.add_application(CG(8, "C"), name="cg-two")
        session.set_analyzer(nprocs=4)
        result = session.run()
        assert "cg-one" in result.report and "cg-two" in result.report


class TestFailureInjection:
    def test_collective_mismatch_inside_app_surfaces(self):
        class BrokenApp(CG):
            def main(self, mpi):
                yield from mpi.init()
                comm = mpi.comm_world
                if comm.rank == 0:
                    yield from comm.barrier()
                else:
                    yield from comm.allreduce(nbytes=8)
                yield from mpi.finalize()

        session = CouplingSession(machine=MACHINE)
        session.add_application(BrokenApp(4, "C"), name="broken")
        session.set_analyzer(nprocs=2)
        with pytest.raises(Exception, match="collective mismatch"):
            session.run()

    def test_corrupt_pack_detected_by_analyzer(self):
        """A corrupted event pack fails loudly, not silently."""
        from repro.blackboard.multilevel import MultiLevelBlackboard
        from repro.errors import PackFormatError, ReproError

        ml = MultiLevelBlackboard(levels=["app"])
        ml.register_ks("sink", [("event_pack", "app")], lambda b, e: None)
        with pytest.raises((PackFormatError, ReproError)):
            ml.submit_pack(b"garbage-bytes-not-a-pack")
            ml.board.run_until_idle()

    def test_app_crash_propagates(self):
        class CrashingApp(CG):
            def main(self, mpi):
                yield from mpi.init()
                if mpi.rank == 1:
                    raise RuntimeError("segfault simulation")
                yield from mpi.comm_world.barrier()
                yield from mpi.finalize()

        session = CouplingSession(machine=MACHINE)
        session.add_application(CrashingApp(4, "C"), name="crash")
        session.set_analyzer(nprocs=2)
        with pytest.raises(Exception):
            session.run()


class TestAnalyzerEconomy:
    def test_analyzer_finishes_briefly_after_apps(self):
        """Paper: reports available 'briefly after execution ends'."""
        session = CouplingSession(machine=MACHINE, seed=2)
        name = session.add_application(SP(16, "C", iterations=3))
        session.set_analyzer(ratio=4.0)
        result = session.run()
        lag = result.analyzer_walltime - result.app(name).walltime
        assert lag >= 0
        assert lag < 0.5 * result.app(name).walltime

    def test_blackboard_storage_freed(self):
        session = CouplingSession(machine=MACHINE, seed=2)
        session.add_application(CG(8, "C", iterations=3))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        board_stats = result.analyzer_stats["board"]
        assert board_stats["bytes_current"] == 0
        assert board_stats["bytes_peak"] > 0
