"""In-text quantitative claims: Bi bandwidths, trace volumes, FS comparison."""

import pytest

from repro.bench.tables import bi_bandwidth_table, fs_comparison_table, trace_size_table


class TestBiBandwidth:
    """Paper Sec. IV-C: Bi(SP.C) = 2.37 GB/s vs Bi(SP.D) = 334.99 MB/s at 900."""

    @pytest.fixture(scope="class")
    def result(self, scale):
        return bi_bandwidth_table(scale=scale)

    def test_regenerate(self, benchmark, scale, show):
        data = benchmark.pedantic(
            lambda: bi_bandwidth_table(scale=scale), rounds=1, iterations=1
        )
        show(data.table())

    def test_class_c_bi_an_order_of_magnitude_above_d(self, result):
        ratio = result.bi("SP.C") / result.bi("SP.D")
        # Paper's ratio at 900 cores: 2.37 GB/s / 334.99 MB/s ~ 7.1x.
        assert 3.0 < ratio < 40.0

    def test_bi_magnitudes_sane(self, result):
        assert result.bi("SP.C") > 1e6  # at least MB/s territory
        assert result.bi("SP.D") > 1e5


class TestTraceSizes:
    """Paper: Score-P traces 313 MB..116 GB; online 923.93 MB..333.22 GB."""

    @pytest.fixture(scope="class")
    def result(self, scale):
        return trace_size_table(scale=scale)

    def test_regenerate(self, benchmark, scale, show):
        data = benchmark.pedantic(
            lambda: trace_size_table(scale=scale), rounds=1, iterations=1
        )
        show(data.table())

    def test_online_to_scorep_ratio_matches_paper(self, result):
        counts = sorted({row["nprocs"] for row in result.points})
        for nprocs in counts:
            assert 2.0 < result.ratio(nprocs) < 4.0  # paper ~2.9x

    def test_volumes_grow_with_scale(self, result):
        counts = sorted({row["nprocs"] for row in result.points})
        for tool in ("online", "scorep_trace"):
            volumes = [result.volume(tool, n) for n in counts]
            assert all(b > a for a, b in zip(volumes, volumes[1:]))

    def test_growth_superlinear_in_ranks(self, result):
        """Events per rank grow with sqrt(P) for SP, so volume beats linear."""
        counts = sorted({row["nprocs"] for row in result.points})
        lo, hi = counts[0], counts[-1]
        ratio = result.volume("online", hi) / result.volume("online", lo)
        assert ratio > hi / lo


class TestFSComparison:
    """Paper: streams competitive with the 9.1 GB/s scaled FS until ~1/25."""

    @pytest.fixture(scope="class")
    def result(self, scale):
        return fs_comparison_table(scale=scale)

    def test_regenerate(self, benchmark, scale, show):
        data = benchmark.pedantic(
            lambda: fs_comparison_table(scale=scale), rounds=1, iterations=1
        )
        show(data.table())

    def test_streams_win_at_paper_recommended_ratio(self, result):
        """1/10 is named a good bandwidth-resource trade-off."""
        for row in result.points:
            if row["ratio"] <= 10:
                assert row["throughput"] > row["fs_scaled"]

    def test_crossover_exists_and_is_beyond_ten(self, result):
        crossover = result.crossover_ratio()
        assert crossover >= 10

    def test_paper_scale_crossover_near_25(self, result, scale):
        if scale != "paper":
            pytest.skip("crossover ~25 calibrated at 2560 writers")
        assert 16 <= result.crossover_ratio() <= 32
