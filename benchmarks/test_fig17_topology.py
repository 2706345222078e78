"""Figure 17 — topological module outputs.

Paper: communication matrix of CG.D (block/butterfly structure), topology
graphs for CG.D, EulerMHD (2D grid), SP (torus) and LU (5-point mesh),
weighted in total size.  We assert the structural signatures of each
pattern on the regenerated matrices.
"""

import math

import pytest

from repro.bench.figures import fig17_topology


@pytest.fixture(scope="module")
def result(scale):
    return fig17_topology(scale=scale)


def test_fig17_regenerate(benchmark, scale, show):
    data = benchmark.pedantic(lambda: fig17_topology(scale=scale), rounds=1, iterations=1)
    show(data.table())


class TestShape:
    def test_cg_butterfly_structure(self, result):
        """CG partners sit at XOR distances within rows, plus transposes."""
        topo = result.matrix("CG.D")
        n = topo.app_size
        log_n = int(math.log2(n))
        npcols = 2 ** ((log_n + 1) // 2)
        for (src, dst) in topo.cells:
            src_row, src_col = divmod(src, npcols)
            dst_row, dst_col = divmod(dst, npcols)
            xor_partner = src_row == dst_row and bin(src_col ^ dst_col).count("1") == 1
            other = src_row != dst_row  # transpose exchange family
            assert xor_partner or other, (src, dst)

    def test_cg_matrix_symmetric_in_size(self, result):
        topo = result.matrix("CG.D")
        assert topo.is_symmetric()

    def test_eulermhd_grid_neighbours_only(self, result):
        topo = result.matrix("EulerMHD")
        from repro.apps.base import grid_2d

        px, _py = grid_2d(topo.app_size)
        for (src, dst) in topo.cells:
            dx = abs(src % px - dst % px)
            dy = abs(src // px - dst // px)
            assert (dx, dy) in ((1, 0), (0, 1)), (src, dst)

    def test_sp_torus_six_neighbours(self, result):
        topo = result.matrix("SP.C")
        assert set(topo.degree_histogram()) == {6}

    def test_lu_five_point_degrees(self, result):
        topo = result.matrix("LU.D")
        degrees = topo.degree_histogram()
        assert set(degrees) == {2, 3, 4}
        assert degrees[2] == 4  # the four mesh corners

    def test_dot_export_for_small_apps(self, result):
        topo = result.matrix("CG.D")
        if topo.app_size <= 256:
            dot = topo.to_dot()
            assert dot.startswith("digraph") and "->" in dot

    def test_every_rank_communicates(self, result):
        for app in result.reports:
            topo = result.matrix(app)
            senders = {src for (src, _dst) in topo.cells}
            assert senders == set(range(topo.app_size)), app
