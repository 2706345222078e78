"""Edge-path coverage across small utilities and error branches."""

import pytest

from repro.errors import ConfigError, DeadlockError
from repro.simt import Pipe


class TestKernelRunUntilEvent:
    def test_failing_event_raises(self, kernel):
        def boom(k):
            yield k.timeout(1.0)
            raise RuntimeError("expected")

        p = kernel.spawn(boom(kernel))
        with pytest.raises(RuntimeError, match="expected"):
            kernel.run(until=p)

    def test_deadlock_while_waiting_for_event(self, kernel):
        target = kernel.event("never")

        def stuck(k):
            yield k.event()

        kernel.spawn(stuck(kernel), name="stuck")
        with pytest.raises(DeadlockError):
            kernel.run(until=target)


class TestPipeUtilization:
    def test_explicit_horizon(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0)

        def proc(k):
            yield pipe.transfer(10)  # busy 1s
            yield k.timeout(3.0)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert pipe.utilization(horizon=2.0) == pytest.approx(0.5)
        assert pipe.utilization(horizon=0.0) == 0.0


class TestRenderingEdges:
    def test_table_str(self):
        from repro.util.tables import Table

        t = Table(["a"])
        t.add_row(1)
        assert str(t) == t.render()

    def test_profile_table_renders(self):
        import numpy as np

        from repro.analysis.profiler import MPIProfile
        from repro.instrument.events import CALL_IDS, EVENT_DTYPE

        p = MPIProfile("app", 2)
        arr = np.zeros(1, dtype=EVENT_DTYPE)
        arr[0] = (CALL_IDS["MPI_Send"], 0, 1, 0, 2, 100, 0.0, 0.5)
        p.update(0, arr)
        text = p.table().render()
        assert "MPI_Send" in text and "MPI profile" in text

    def test_density_grid_non_square_rank_count(self):
        from repro.analysis.density import DensityMaps

        d = DensityMaps("app", 10)  # not a perfect square
        text = d.render_grid("MPI_Send", "hits")
        assert "min=" in text

    def test_density_grid_explicit_columns(self):
        from repro.analysis.density import DensityMaps

        d = DensityMaps("app", 12)
        text = d.render_grid("MPI_Send", "hits", columns=6)
        assert len(text.splitlines()) == 3  # header + 2 rows

    def test_comm_matrix_graph_weights(self):
        import numpy as np

        from repro.analysis.topology import CommMatrix
        from repro.instrument.events import CALL_IDS, EVENT_DTYPE

        m = CommMatrix("app", 2)
        arr = np.zeros(1, dtype=EVENT_DTYPE)
        arr[0] = (CALL_IDS["MPI_Send"], 0, 1, 0, 2, 77, 0.0, 0.5)
        m.update(0, arr)
        assert m.dense("size")[0, 1] == 77
        assert m.dense("hits")[0, 1] == 1


class TestGrid3D:
    def test_non_cubic_power_of_two(self):
        from repro.apps.nas.mg import grid_3d

        for n in (2, 8, 32, 256, 1024):
            px, py, pz = grid_3d(n)
            assert px * py * pz == n
            assert px >= py >= pz >= 1


class TestLauncherEdges:
    def test_analyzer_without_apps_rejected(self, machine):
        from repro.analysis.engine import analyzer_program
        from repro.vmpi.virtualization import VirtualizedLauncher

        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("Analyzer", nprocs=2, main=analyzer_program)
        with pytest.raises(Exception, match="without application"):
            launcher.run()

    def test_session_without_apps_rejected(self, machine):
        from repro.core.session import CouplingSession

        session = CouplingSession(machine=machine)
        with pytest.raises(ConfigError):
            session.run()
        with pytest.raises(ConfigError):
            session.run_reference()

    def test_world_group_interning(self, machine):
        from repro.mpi import MPMDLauncher

        def app(mpi):
            yield from mpi.init()
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=app)
        world = launcher.launch()
        g1 = world.intern_group((0, 1), "x")
        g2 = world.intern_group((0, 1), "x")
        assert g1 is g2
        g3 = world.intern_group((0, 1), "x", key="different")
        assert g3 is not g1
        world.run()

    def test_partition_api_queries(self, machine):
        from repro.vmpi.virtualization import VirtualizedLauncher

        seen = {}

        def app(mpi):
            yield from mpi.init()
            seen["count"] = mpi.partition_count()
            seen["by_index"] = mpi.partition_by_index(1).name
            seen["ranks"] = list(mpi.partition_by_name("b").global_ranks)
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=app)
        launcher.add_program("b", nprocs=3, main=_noop)
        launcher.run()
        assert seen == {"count": 2, "by_index": "b", "ranks": [2, 3, 4]}


def _noop(mpi):
    yield from mpi.init()
    yield from mpi.finalize()


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        import inspect

        import repro.errors as errors_mod
        from repro.errors import ReproError

        for name, obj in vars(errors_mod).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                if obj is not ReproError and obj.__module__ == "repro.errors":
                    assert issubclass(obj, ReproError), name

    def test_deadlock_error_preview_caps(self):
        err = DeadlockError([f"proc{i}" for i in range(20)])
        assert "+12 more" in str(err)
        assert len(err.blocked) == 20
