"""Analysis modules: profiler, topology, density, wait-state — unit level."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.analysis.density import DensityMaps
from repro.analysis.profiler import MPIProfile
from repro.analysis.topology import CommMatrix
from repro.analysis.waitstate import WaitState
from repro.instrument.events import CALL_IDS, EVENT_DTYPE


def make_events(rows):
    """rows: list of (call_name, peer, tag, nbytes, t_start, t_end)."""
    arr = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (name, peer, tag, nbytes, t0, t1) in enumerate(rows):
        arr[i] = (CALL_IDS[name], 0, peer, tag, 4, nbytes, t0, t1)
    return arr


class TestMPIProfile:
    def test_accumulates_per_call(self):
        p = MPIProfile("app", 4)
        p.update(0, make_events([
            ("MPI_Send", 1, 0, 100, 0.0, 0.5),
            ("MPI_Send", 2, 0, 200, 1.0, 1.25),
            ("MPI_Recv", 1, 0, 50, 2.0, 2.1),
        ]))
        rows = {r[0]: r for r in p.rows()}
        assert rows["MPI_Send"][1] == 2  # hits
        assert rows["MPI_Send"][2] == pytest.approx(0.75)  # total time
        assert rows["MPI_Send"][6] == 300  # bytes
        assert p.events_total == 3

    def test_walltime_estimate_spans_events(self):
        p = MPIProfile("app", 2)
        p.update(0, make_events([("MPI_Init", -1, -1, 0, 0.0, 0.0)]))
        p.update(0, make_events([("MPI_Finalize", -1, -1, 0, 9.5, 10.0)]))
        assert p.walltime_estimate == pytest.approx(10.0)

    def test_merge_equivalent_to_single(self):
        rows = [("MPI_Send", 1, 0, 100, float(i), float(i) + 0.1) for i in range(10)]
        whole = MPIProfile("a", 2)
        whole.update(0, make_events(rows))
        left, right = MPIProfile("a", 2), MPIProfile("a", 2)
        left.update(0, make_events(rows[:5]))
        right.update(0, make_events(rows[5:]))
        left.merge(right)
        assert left.events_total == whole.events_total
        assert left.mpi_time_total == pytest.approx(whole.mpi_time_total)
        assert left.walltime_estimate == pytest.approx(whole.walltime_estimate)

    def test_merge_app_mismatch_rejected(self):
        with pytest.raises(ReproError):
            MPIProfile("a", 2).merge(MPIProfile("b", 2))

    def test_rank_bounds_checked(self):
        p = MPIProfile("a", 2)
        with pytest.raises(ReproError):
            p.update(2, make_events([("MPI_Send", 0, 0, 1, 0, 1)]))

    def test_bi_bandwidth(self):
        p = MPIProfile("a", 1)
        p.update(0, make_events([("MPI_Send", 0, 0, 1, 0.0, 2.0)] * 5))
        assert p.instrumentation_bandwidth() == pytest.approx(100.0)

    def test_empty_profile(self):
        p = MPIProfile("a", 2)
        assert p.walltime_estimate == 0.0
        assert p.instrumentation_bandwidth() == 0.0
        assert p.rows() == []


class TestCommMatrix:
    def test_send_events_fill_matrix(self):
        m = CommMatrix("a", 4)
        m.update(0, make_events([
            ("MPI_Send", 1, 0, 100, 0.0, 0.1),
            ("MPI_Isend", 2, 0, 200, 0.0, 0.1),
            ("MPI_Recv", 3, 0, 999, 0.0, 0.1),  # receives are not edges
        ]))
        assert (0, 1) in m.cells and (0, 2) in m.cells
        assert (0, 3) not in m.cells
        dense = m.dense("size")
        assert dense[0, 1] == 100 and dense[0, 2] == 200

    def test_collectives_excluded(self):
        m = CommMatrix("a", 4)
        m.update(1, make_events([("MPI_Allreduce", -1, -1, 64, 0, 1)]))
        assert m.cells == {}

    def test_weights(self):
        m = CommMatrix("a", 2)
        m.update(0, make_events([
            ("MPI_Send", 1, 0, 100, 0.0, 0.5),
            ("MPI_Send", 1, 0, 300, 1.0, 1.5),
        ]))
        assert m.dense("hits")[0, 1] == 2
        assert m.dense("size")[0, 1] == 400
        assert m.dense("time")[0, 1] == pytest.approx(1.0)
        with pytest.raises(ReproError):
            m.dense("mass")

    def test_merge(self):
        a, b = CommMatrix("x", 3), CommMatrix("x", 3)
        a.update(0, make_events([("MPI_Send", 1, 0, 10, 0, 1)]))
        b.update(0, make_events([("MPI_Send", 1, 0, 20, 0, 1)]))
        b.update(1, make_events([("MPI_Send", 2, 0, 5, 0, 1)]))
        a.merge(b)
        assert a.dense("size")[0, 1] == 30
        assert a.dense("size")[1, 2] == 5

    def test_graph_and_degrees(self):
        m = CommMatrix("ring", 4)
        for r in range(4):
            m.update(r, make_events([("MPI_Send", (r + 1) % 4, 0, 8, 0, 1)]))
        assert len(m.cells) == 4
        assert m.degree_histogram() == {1: 4}
        assert m.is_symmetric() is False  # directed ring

    def test_symmetry_detection(self):
        m = CommMatrix("pair", 2)
        m.update(0, make_events([("MPI_Send", 1, 0, 8, 0, 1)]))
        m.update(1, make_events([("MPI_Send", 0, 0, 8, 0, 1)]))
        assert m.is_symmetric()

    def test_top_pairs(self):
        m = CommMatrix("a", 3)
        m.update(0, make_events([("MPI_Send", 1, 0, 10, 0, 1)]))
        m.update(0, make_events([("MPI_Send", 2, 0, 99, 0, 1)]))
        top = m.top_pairs(k=1)
        assert top == [(0, 2, 99.0)]

    def test_to_dot(self):
        m = CommMatrix("tiny", 2)
        m.update(0, make_events([("MPI_Send", 1, 0, 8, 0, 1)]))
        dot = m.to_dot()
        assert "digraph" in dot and "0 -> 1" in dot

    def test_to_dot_size_guard(self):
        m = CommMatrix("big", 1000)
        with pytest.raises(ReproError):
            m.to_dot()

    def test_out_of_range_peer_rejected(self):
        m = CommMatrix("a", 2)
        with pytest.raises(ReproError):
            m.update(0, make_events([("MPI_Send", 5, 0, 8, 0, 1)]))

    def test_rejected_batch_leaves_matrix_untouched(self):
        """One out-of-range peer rejects the whole batch *before* any cell
        moves (the check used to sit inside the accumulation loop, after the
        lower-numbered peers had already been added)."""
        m = CommMatrix("a", 4)
        m.update(0, make_events([("MPI_Send", 1, 0, 8, 0.0, 1.0)]))
        cells = {key: list(vals) for key, vals in m.cells.items()}
        totals = m.totals()
        with pytest.raises(ReproError, match="send to rank 4 outside app of 4"):
            m.update(0, make_events([
                ("MPI_Send", 1, 0, 8, 1.0, 2.0),
                ("MPI_Send", 2, 0, 8, 2.0, 3.0),
                ("MPI_Isend", 4, 0, 8, 3.0, 4.0),
                ("MPI_Send", 9, 0, 8, 4.0, 5.0),
            ]))
        assert m.cells == cells
        assert m.totals() == totals

    def test_empty_batch_is_a_noop(self):
        m = CommMatrix("a", 2)
        m.update(0, make_events([]))
        assert m.cells == {} and m.totals() == (0, 0, 0)
        with pytest.raises(ReproError):  # the rank check still comes first
            m.update(2, make_events([]))


class TestDensityMaps:
    def test_per_rank_vectors(self):
        d = DensityMaps("a", 4)
        d.update(1, make_events([("MPI_Send", 0, 0, 100, 0.0, 0.5)] * 3))
        hits = d.map_for("MPI_Send", "hits")
        assert hits.tolist() == [0, 3, 0, 0]
        assert d.map_for("MPI_Send", "time")[1] == pytest.approx(1.5)
        assert d.map_for("MPI_Send", "size")[1] == 300

    def test_unknown_call_or_metric_rejected(self):
        d = DensityMaps("a", 2)
        with pytest.raises(ReproError):
            d.map_for("MPI_Nope")
        with pytest.raises(ReproError):
            d.map_for("MPI_Send", "volume")

    def test_unregistered_call_id_is_queryable_under_its_seen_name(self):
        """The wire registry is append-only, so a newer writer may send an id
        this build has no name for; calls_seen() names it ``call#<id>`` and the
        report feeds that name back to imbalance()/map_for()."""
        d = DensityMaps("a", 2)
        ev = make_events([("MPI_Send", 1, 0, 8, 0.0, 1.0)])
        ev["call"] = 300
        d.update(1, ev)
        assert d.calls_seen() == ["call#300"]
        assert list(d.map_for("call#300", "hits")) == [0, 1]
        assert d.imbalance("call#300", "time") == pytest.approx(2.0)
        with pytest.raises(ReproError):
            d.map_for("call#x")

    def test_unseen_call_is_zero_map(self):
        d = DensityMaps("a", 3)
        assert d.map_for("MPI_Barrier", "hits").tolist() == [0, 0, 0]

    def test_aggregate(self):
        d = DensityMaps("a", 2)
        d.update(0, make_events([("MPI_Wait", -1, -1, 0, 0.0, 1.0)]))
        d.update(0, make_events([("MPI_Waitall", -1, -1, 0, 0.0, 2.0)]))
        total = d.aggregate(["MPI_Wait", "MPI_Waitall"], "time")
        assert total[0] == pytest.approx(3.0)

    def test_imbalance_flat_map_is_zero(self):
        d = DensityMaps("a", 4)
        for r in range(4):
            d.update(r, make_events([("MPI_Send", 0, 0, 8, 0.0, 1.0)]))
        assert d.imbalance("MPI_Send", "time") == 0.0

    def test_imbalance_detects_hotspot(self):
        d = DensityMaps("a", 4)
        for r in range(4):
            t1 = 4.0 if r == 2 else 1.0
            d.update(r, make_events([("MPI_Send", 0, 0, 8, 0.0, t1)]))
        assert d.imbalance("MPI_Send", "time") > 1.0

    def test_merge(self):
        a, b = DensityMaps("x", 2), DensityMaps("x", 2)
        a.update(0, make_events([("MPI_Send", 1, 0, 8, 0, 1)]))
        b.update(1, make_events([("MPI_Send", 0, 0, 8, 0, 1)]))
        a.merge(b)
        assert a.map_for("MPI_Send", "hits").tolist() == [1, 1]

    def test_render_grid(self):
        d = DensityMaps("grid", 16)
        for r in range(16):
            d.update(r, make_events([("MPI_Send", 0, 0, 8, 0.0, float(r))]))
        text = d.render_grid("MPI_Send", "time")
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4x4 grid
        assert "min=0" in lines[0]


class TestWaitState:
    def test_wait_attribution(self):
        w = WaitState("a", 2)
        w.update(0, make_events([
            ("MPI_Wait", -1, -1, 0, 0.0, 2.0),
            ("MPI_Recv", 1, 0, 8, 2.0, 3.0),
            ("MPI_Send", 1, 0, 8, 3.0, 3.1),  # not waiting
        ]))
        assert w.wait_time[0] == pytest.approx(3.0)

    def test_collective_time_tracked_separately(self):
        w = WaitState("a", 1)
        w.update(0, make_events([("MPI_Allreduce", -1, -1, 8, 0.0, 1.0)]))
        assert w.collective_time[0] == pytest.approx(1.0)
        assert w.wait_time[0] == 0.0

    def test_waiting_fraction(self):
        w = WaitState("a", 1)
        w.update(0, make_events([
            ("MPI_Init", -1, -1, 0, 0.0, 0.0),
            ("MPI_Wait", -1, -1, 0, 1.0, 6.0),
            ("MPI_Finalize", -1, -1, 0, 10.0, 10.0),
        ]))
        assert w.waiting_fraction()[0] == pytest.approx(0.5)

    def test_late_ranks(self):
        w = WaitState("a", 4)
        for r in range(4):
            dur = 10.0 if r == 3 else 1.0
            w.update(r, make_events([("MPI_Wait", -1, -1, 0, 0.0, dur)]))
        assert w.late_ranks(factor=1.5) == [3]
        with pytest.raises(ReproError):
            w.late_ranks(factor=0)

    def test_merge_and_summary(self):
        a, b = WaitState("x", 2), WaitState("x", 2)
        a.update(0, make_events([("MPI_Wait", -1, -1, 0, 0.0, 1.0)]))
        b.update(1, make_events([("MPI_Wait", -1, -1, 0, 0.0, 2.0)]))
        a.merge(b)
        s = a.summary()
        assert s["wait_time_total"] == pytest.approx(3.0)
        assert s["wait_time_max"] == pytest.approx(2.0)
