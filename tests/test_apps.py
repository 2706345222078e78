"""Application skeletons: grids, validation, communication structure."""

import pytest

from repro.errors import ConfigError
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas import KERNELS, nas_kernel
from repro.apps.base import grid_2d, is_power_of_two, is_square
from repro.apps.nas.adi import BT, SP
from repro.apps.nas.cg import CG
from repro.apps.nas.ep import EP
from repro.apps.nas.ft import FT
from repro.apps.nas.lu import LU
from repro.apps.nas.mg import MG, grid_3d
from repro.core.session import CouplingSession
from repro.mpi.launcher import MPMDLauncher


def run_alone(machine, kernel):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program(kernel.label, nprocs=kernel.nprocs, main=kernel.main)
    world = launcher.run()
    return world


def profile(machine, kernel):
    session = CouplingSession(machine=machine, seed=0)
    name = session.add_application(kernel)
    session.set_analyzer(ratio=1.0)
    return name, session.run()


class TestHelpers:
    @pytest.mark.parametrize("n,expected", [(12, (4, 3)), (16, (4, 4)), (7, (7, 1)), (36, (6, 6))])
    def test_grid_2d(self, n, expected):
        assert grid_2d(n) == expected

    def test_grid_2d_validation(self):
        with pytest.raises(ConfigError):
            grid_2d(0)

    def test_grid_3d_cubic(self):
        assert grid_3d(64) == (4, 4, 4)
        px, py, pz = grid_3d(128)
        assert px * py * pz == 128

    def test_predicates(self):
        assert is_square(49) and not is_square(50)
        assert is_power_of_two(64) and not is_power_of_two(48)


class TestValidation:
    def test_bt_sp_require_square(self):
        with pytest.raises(ConfigError):
            BT(10, "C")
        with pytest.raises(ConfigError):
            SP(12, "C")
        assert BT(16, "C").nprocs == 16

    def test_cg_ft_mg_require_power_of_two(self):
        for cls in (CG, FT, MG):
            with pytest.raises(ConfigError):
                cls(12, "C")
            assert cls(16, "C").nprocs == 16

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            SP(16, "Z")

    def test_factory(self):
        kernel = nas_kernel("sp", 16, "C")
        assert isinstance(kernel, SP)
        with pytest.raises(KeyError):
            nas_kernel("XX", 16)

    def test_kernel_registry_complete(self):
        assert set(KERNELS) == {"BT", "SP", "LU", "CG", "FT", "MG", "EP"}

    def test_iterations_positive(self):
        with pytest.raises(ConfigError):
            SP(16, "C", iterations=0)

    def test_label_includes_class(self):
        assert SP(16, "D").label == "SP.D"
        assert EulerMHD(8).label == "EulerMHD"

    def test_eulermhd_validation(self):
        with pytest.raises(ConfigError):
            EulerMHD(8, grid=0)
        with pytest.raises(ConfigError):
            EulerMHD(8, checkpoint_every=-1)

    def test_lu_plane_batch_validated(self):
        with pytest.raises(ConfigError):
            LU(16, "C", plane_batch=0)


class TestScaling:
    def test_class_d_more_work_than_c(self):
        for cls in (BT, SP, LU, CG):
            assert cls.CLASSES["D"].gops > 10 * cls.CLASSES["C"].gops

    def test_iteration_scale(self):
        k = SP(16, "C", iterations=4)
        assert k.iteration_scale == pytest.approx(100.0)  # 400 official / 4

    def test_face_bytes_shrink_with_more_ranks(self):
        assert SP(16, "C").face_bytes() > SP(64, "C").face_bytes()

    def test_bt_faces_bigger_than_sp(self):
        assert BT(16, "C").face_bytes() > SP(16, "C").face_bytes()

    def test_cg_layout(self):
        assert CG(16, "C").layout() == (4, 4)
        assert CG(32, "C").layout() == (4, 8)  # cols = 2 x rows for odd log2

    def test_cg_transpose_partner_square_is_involution(self):
        cg = CG(16, "C")
        for rank in range(16):
            partner = cg.transpose_partner(rank)
            assert cg.transpose_partner(partner) == rank

    def test_ft_alltoall_bytes_scale(self):
        assert FT(16, "C").alltoall_pair_bytes() > FT(64, "C").alltoall_pair_bytes()


class TestExecution:
    """Each kernel runs standalone to completion with sensible timing."""

    @pytest.mark.parametrize(
        "kernel_factory",
        [
            lambda: BT(16, "C", iterations=2),
            lambda: SP(16, "C", iterations=2),
            lambda: LU(16, "C", iterations=1),
            lambda: CG(16, "C", iterations=2),
            lambda: FT(16, "C", iterations=2),
            lambda: MG(16, "C", iterations=1),
            lambda: EP(16, "C"),
            lambda: EulerMHD(16, grid=512, iterations=2),
        ],
        ids=["BT", "SP", "LU", "CG", "FT", "MG", "EP", "EulerMHD"],
    )
    def test_runs_to_completion(self, big_machine, kernel_factory):
        kernel = kernel_factory()
        world = run_alone(big_machine, kernel)
        assert world.app_walltime(kernel.label) > 0

    def test_wrong_launch_size_detected(self, big_machine):
        kernel = SP(16, "C")
        launcher = MPMDLauncher(machine=big_machine)
        launcher.add_program("SP.C", nprocs=25, main=kernel.main)
        with pytest.raises(Exception, match="built for"):
            launcher.run()

    def test_class_d_runs_longer_than_c(self, big_machine):
        t = {}
        for klass in ("C", "D"):
            kernel = SP(16, klass, iterations=2)
            world = run_alone(big_machine, kernel)
            t[klass] = world.app_walltime(kernel.label)
        assert t["D"] > 3 * t["C"]


class TestCommunicationStructure:
    """Topology shapes the paper's Figure 17 relies on."""

    def test_sp_torus_six_neighbours(self, big_machine):
        name, result = profile(big_machine, SP(16, "C", iterations=1))
        topo = result.report.chapter(name).topology
        # Every rank talks to 6 distinct successors (x,y,z forward+backward).
        degrees = topo.degree_histogram()
        assert set(degrees) == {6}
        assert topo.is_symmetric("hits")

    def test_bt_torus_three_successors(self, big_machine):
        name, result = profile(big_machine, BT(16, "C", iterations=1))
        topo = result.report.chapter(name).topology
        assert set(topo.degree_histogram()) == {3}

    def test_lu_five_point_mesh(self, big_machine):
        name, result = profile(big_machine, LU(16, "C", iterations=1))
        topo = result.report.chapter(name).topology
        # Interior ranks have 4 neighbours, edges 3, corners 2.
        degrees = topo.degree_histogram()
        assert set(degrees) == {2, 3, 4}
        assert degrees[2] == 4  # four corners
        assert topo.is_symmetric("hits")

    def test_cg_butterfly_partners(self, big_machine):
        name, result = profile(big_machine, CG(16, "C", iterations=1))
        topo = result.report.chapter(name).topology
        cg = CG(16, "C")
        nprows, npcols = cg.layout()
        for (src, dst) in topo.cells:
            src_row, src_col = divmod(src, npcols)
            dst_row, dst_col = divmod(dst, npcols)
            same_row_xor = src_row == dst_row and bin(src_col ^ dst_col).count("1") == 1
            transpose = dst == cg.transpose_partner(src)
            assert same_row_xor or transpose, (src, dst)

    def test_eulermhd_grid_neighbours(self, big_machine):
        name, result = profile(big_machine, EulerMHD(16, grid=512, iterations=1))
        topo = result.report.chapter(name).topology
        px, py = EulerMHD(16, grid=512).layout()
        for (src, dst) in topo.cells:
            dx = abs(src % px - dst % px)
            dy = abs(src // px - dst // px)
            assert (dx, dy) in ((1, 0), (0, 1)), (src, dst)
        assert topo.is_symmetric("hits")

    def test_lu_send_hits_correlate_with_neighbours(self, big_machine):
        """Paper Fig. 18(a): Send count follows mesh neighbourhood."""
        name, result = profile(big_machine, LU(16, "C", iterations=1))
        density = result.report.chapter(name).density
        topo = result.report.chapter(name).topology
        hits = density.map_for("MPI_Send", "hits")
        for rank in range(16):
            out_degree = sum(1 for (s, _d) in topo.cells if s == rank)
            assert (hits[rank] > hits.min()) == (out_degree > 2) or out_degree == 2

    def test_eulermhd_checkpoint_posix_events(self, big_machine):
        kernel = EulerMHD(16, grid=512, iterations=4, checkpoint_every=2)
        name, result = profile(big_machine, kernel)
        density = result.report.chapter(name).density
        assert density.map_for("write", "hits").sum() == 16 * 2
        assert density.map_for("open", "hits").sum() == 16 * 2
        assert density.map_for("write", "size").sum() > 0
