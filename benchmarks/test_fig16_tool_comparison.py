"""Figure 16 — SP.D under different tools on the Curie model.

Paper: online coupling has lower overhead than Score-P's file-based tracing
at scale despite shipping ~2.9x the data volume; purely-online aggregation
(mpiP-like) stays cheapest; overheads grow with the process count for the
file-based flows.
"""

import pytest

from repro.bench.figures import fig16_tool_comparison


@pytest.fixture(scope="module")
def result(scale):
    return fig16_tool_comparison(scale=scale)


def test_fig16_regenerate(benchmark, scale, show):
    data = benchmark.pedantic(
        lambda: fig16_tool_comparison(scale=scale), rounds=1, iterations=1
    )
    show(data.table())


class TestShape:
    def _counts(self, result):
        return sorted({r.nprocs for r in result.points})

    def test_online_cheaper_than_trace_at_largest_scale(self, result):
        biggest = self._counts(result)[-1]
        online = result.overhead("online", biggest)
        trace = result.overhead("scorep_trace", biggest)
        assert online < trace

    def test_online_ships_more_data_than_trace(self, result):
        """The paradox the paper resolves: more data, less overhead."""
        for nprocs in self._counts(result):
            online = next(
                r for r in result.points if r.tool == "online" and r.nprocs == nprocs
            )
            trace = next(
                r
                for r in result.points
                if r.tool == "scorep_trace" and r.nprocs == nprocs
            )
            ratio = online.full_run_volume_bytes / trace.full_run_volume_bytes
            assert 2.0 < ratio < 4.0  # paper: ~2.9x

    def test_trace_overhead_grows_with_scale(self, result):
        counts = self._counts(result)
        small = result.overhead("scorep_trace", counts[0])
        large = result.overhead("scorep_trace", counts[-1])
        assert large > small

    def test_every_tool_overhead_is_small_fraction(self, result):
        for r in result.points:
            if r.overhead_pct is not None:
                assert r.overhead_pct < 60.0

    def test_reference_walltime_grows_mildly_with_scale(self, result):
        """Strong scaling: per-rank time shrinks, wall-time non-increasing."""
        refs = sorted(
            (r for r in result.points if r.tool == "reference"),
            key=lambda r: r.nprocs,
        )
        for a, b in zip(refs, refs[1:]):
            assert b.walltime < a.walltime * 1.2
