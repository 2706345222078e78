"""Figure 14 — global VMPI Stream throughput vs writer/reader ratio.

Paper: peak 98.5 GB/s at 2560 writers + 2560 readers; throughput decreases
with the ratio; streams beat the job-scaled file system until ~1/25.
"""

import pytest

from repro.bench.figures import fig14_stream_throughput
from repro.util.units import GB


@pytest.fixture(scope="module")
def result(scale):
    return fig14_stream_throughput(scale=scale)


def test_fig14_regenerate(benchmark, scale, show):
    data = benchmark.pedantic(
        lambda: fig14_stream_throughput(scale=scale), rounds=1, iterations=1
    )
    show(data.table())


class TestShape:
    def test_throughput_non_increasing_with_ratio(self, result):
        by_writers = {}
        for p in result.points:
            by_writers.setdefault(p["writers"], []).append(p)
        for writers, points in by_writers.items():
            points.sort(key=lambda p: p["ratio"])
            for a, b in zip(points, points[1:]):
                assert b["throughput"] <= a["throughput"] * 1.01, (
                    f"throughput increased with ratio at {writers} writers"
                )

    def test_throughput_grows_with_writers_at_ratio_one(self, result):
        ratio_one = sorted(
            (p for p in result.points if p["ratio"] == 1),
            key=lambda p: p["writers"],
        )
        for a, b in zip(ratio_one, ratio_one[1:]):
            assert b["throughput"] > a["throughput"]

    def test_peak_at_full_ratio(self, result):
        peak = result.peak()
        assert peak["ratio"] == 1
        assert peak["writers"] == max(p["writers"] for p in result.points)

    def test_streams_beat_scaled_fs_at_moderate_ratios(self, result):
        for p in result.points:
            if p["ratio"] <= 4:
                assert p["throughput"] > p["fs_scaled"]

    def test_all_bytes_delivered(self, result):
        for p in result.points:
            assert p["bytes"] > 0


@pytest.mark.skipif(
    "config.getoption('--benchmark-disable', default=False)", reason="paper-scale spot check"
)
def test_paper_peak_spot_check(scale):
    """The calibrated headline number: ~98.5 GB/s at 2560/2560 writers."""
    from repro.bench.harness import stream_point
    from repro.network.machine import TERA100
    from repro.util.units import MIB

    if scale != "paper":
        pytest.skip("run with REPRO_BENCH_SCALE=paper for the full grid")
    point = stream_point(TERA100, 2560, 1, 1024 * MIB, MIB, 0)
    assert point["throughput"] == pytest.approx(98.5 * GB, rel=0.05)
