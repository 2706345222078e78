"""Figure 18 — density maps for LU.D and BT.D.

Paper: (a) LU MPI_Send hit counts correlate with the number of mesh
neighbours; (b) LU total-size map follows the decomposition pattern;
(c,d,e) BT.D shows a small p2p size imbalance while collective and wait
times carry structure; wait and collective maps follow the same symmetry.
"""

import numpy as np
import pytest

from repro.bench.figures import fig18_density


@pytest.fixture(scope="module")
def result(scale):
    return fig18_density(scale=scale)


def test_fig18_regenerate(benchmark, scale, show):
    data = benchmark.pedantic(lambda: fig18_density(scale=scale), rounds=1, iterations=1)
    show(data.table())


class TestLU:
    def test_send_hits_track_mesh_neighbourhood(self, result):
        """Fig 18(a): interior ranks send more than edges, edges more than corners."""
        density = result.density("LU.D")
        hits = density.map_for("MPI_Send", "hits")
        from repro.apps.base import grid_2d

        n = len(hits)
        px, py = grid_2d(n)
        def degree(rank):
            x, y = rank % px, rank // px
            return (x > 0) + (x < px - 1) + (y > 0) + (y < py - 1)

        by_degree = {}
        for rank in range(n):
            by_degree.setdefault(degree(rank), []).append(hits[rank])
        means = {d: np.mean(v) for d, v in by_degree.items()}
        assert means[4] > means[3] > means[2]

    def test_size_map_mirrors_hits_map(self, result):
        """Fig 18(b): total size follows the same decomposition pattern."""
        density = result.density("LU.D")
        hits = density.map_for("MPI_Send", "hits")
        size = density.map_for("MPI_Send", "size")
        correlation = np.corrcoef(hits, size)[0, 1]
        assert correlation > 0.99

    def test_render_grid_shows_borders(self, result):
        density = result.density("LU.D")
        text = density.render_grid("MPI_Send", "hits")
        assert len(text.splitlines()) > 2


class TestBT:
    def test_p2p_size_imbalance_is_small(self, result):
        """Fig 18(e): blue 660.93 MB vs red 664.87 MB — a < 1 % spread."""
        density = result.density("BT.D")
        size = density.map_for("MPI_Isend", "size") + density.map_for("MPI_Send", "size")
        assert size.min() > 0
        spread = (size.max() - size.min()) / size.mean()
        assert spread < 0.05

    def test_wait_time_carries_structure(self, result):
        """Fig 18(d): waits are nonzero and spatially non-uniform."""
        wait = result.density("BT.D").aggregate(["MPI_Wait", "MPI_Waitall"], "time")
        assert wait.sum() > 0
        assert wait.max() > wait.min()

    def test_collective_time_positive_everywhere(self, result):
        coll = result.density("BT.D").map_for("MPI_Allreduce", "time")
        assert (coll > 0).all()

    def test_waitstate_module_consistent_with_density(self, result):
        waitstate = result.waitstate("BT.D")
        density_total = result.density("BT.D").aggregate(
            ["MPI_Wait", "MPI_Waitall"], "time"
        ).sum()
        # WaitState also counts blocking receives; it can only be larger.
        assert waitstate.wait_time.sum() >= density_total * 0.999
