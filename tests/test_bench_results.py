"""Benchmark result containers: grouping, accessors, table rendering."""

import pytest

from repro.bench.figures import (
    FIG15_COLUMNS,
    FIG17_COLUMNS,
    FIG18_COLUMNS,
    Fig15Result,
    Fig17Result,
    Fig18Result,
    _fig15_workloads,
)
from repro.bench.harness import OverheadPoint
from repro.bench.tables import (
    BI_COLUMNS,
    FS_COMPARISON_COLUMNS,
    TRACE_SIZE_COLUMNS,
    BiResult,
    FSComparisonResult,
    TraceSizeResult,
)


def _point(app, nprocs, ovh):
    t_ref = 1.0
    return OverheadPoint(
        app=app,
        nprocs=nprocs,
        t_reference=t_ref,
        t_instrumented=t_ref * (1 + ovh / 100.0),
        events=10,
        modeled_stream_bytes=100,
    )


class TestFig15Result:
    def test_by_app_groups(self):
        r = Fig15Result("Figure 15 (X)", FIG15_COLUMNS)
        r.points = [_point("SP.C", 64, 1.0), _point("SP.C", 256, 2.0), _point("LU.C", 64, 3.0)]
        grouped = r.by_app()
        assert len(grouped["SP.C"]) == 2
        assert len(grouped["LU.C"]) == 1

    def test_table_renders_all_points(self):
        r = Fig15Result("Figure 15 (X)", FIG15_COLUMNS)
        r.points = [_point("SP.C", 64, 1.0)]
        text = r.table().render()
        assert "SP.C" in text and "Figure 15" in text

    def test_workload_grids_well_formed(self):
        for scale in ("small", "paper"):
            kernels = _fig15_workloads(scale)
            assert len(kernels) >= 8
            labels = [k.label for k in kernels]
            # Both classes of SP present for the C-vs-D comparison.
            assert any(l == "SP.C" for l in labels)
            assert any(l == "SP.D" for l in labels)


class TestTableResults:
    def test_bi_result_lookup(self):
        r = BiResult("Bi (X)", BI_COLUMNS)
        r.points.append({"app": "SP.C", "nprocs": 900, "bi": 2.0e9,
                       "overhead_pct": 10.0, "paper": "2.37 GB/s"})
        assert r.bi("SP.C") == 2.0e9
        with pytest.raises(KeyError):
            r.bi("SP.D")
        assert "SP.C" in r.table().render()

    def test_trace_size_ratio(self):
        r = TraceSizeResult("volumes (X)", TRACE_SIZE_COLUMNS)
        r.points.append({"tool": "online", "nprocs": 64, "volume": 290})
        r.points.append({"tool": "scorep_trace", "nprocs": 64, "volume": 100})
        assert r.ratio(64) == pytest.approx(2.9)
        with pytest.raises(KeyError):
            r.volume("online", 128)

    def test_fs_comparison_crossover(self):
        r = FSComparisonResult("streams vs FS at 100 writers (X)", FS_COMPARISON_COLUMNS)
        r.points = [
            {"ratio": 1, "readers": 100, "throughput": 50.0, "fs_scaled": 5.0},
            {"ratio": 10, "readers": 10, "throughput": 8.0, "fs_scaled": 5.0},
            {"ratio": 32, "readers": 3, "throughput": 2.0, "fs_scaled": 5.0},
        ]
        assert r.crossover_ratio() == 10
        text = r.table().render()
        assert "True" in text and "False" in text

    def test_fs_comparison_no_crossover(self):
        r = FSComparisonResult("streams vs FS at 4 writers (X)", FS_COMPARISON_COLUMNS)
        r.points = [{"ratio": 1, "readers": 4, "throughput": 1.0, "fs_scaled": 100.0}]
        assert r.crossover_ratio() == 0.0


class TestFigReportContainers:
    def test_fig17_matrix_accessor(self):
        from repro.analysis.report import ApplicationReport, ProfileReport
        from repro.analysis.topology import CommMatrix

        topo = CommMatrix("app", 4)
        report = ProfileReport(chapters=[
            ApplicationReport(app="app", app_size=4, topology=topo)
        ])
        result = Fig17Result("Figure 17", FIG17_COLUMNS, reports={"app": report})
        assert result.matrix("app") is topo

    def test_fig18_accessors(self):
        from repro.analysis.density import DensityMaps
        from repro.analysis.report import ApplicationReport, ProfileReport
        from repro.analysis.waitstate import WaitState

        density = DensityMaps("app", 4)
        waits = WaitState("app", 4)
        report = ProfileReport(chapters=[
            ApplicationReport(app="app", app_size=4, density=density, waitstate=waits)
        ])
        result = Fig18Result("Figure 18", FIG18_COLUMNS, reports={"app": report})
        assert result.density("app") is density
        assert result.waitstate("app") is waits
