"""Benchmark-driver plumbing: validation, result accessors, tiny runs.

The heavy figure regenerations live in benchmarks/; here we exercise the
drivers' result containers and error paths, plus one genuinely tiny
end-to-end stream point so the figure code itself is covered by the unit
suite.
"""

import pytest

from repro.errors import BenchGateError, ConfigError
from repro.bench.figures import (
    FIG14_COLUMNS,
    FIG16_COLUMNS,
    Fig14Result,
    Fig16Result,
    fig14_stream_throughput,
    fig15_overhead,
    fig16_tool_comparison,
    fig17_topology,
    fig18_density,
)
from repro.bench.chaos import chaos_resilience
from repro.bench.codec import codec_reduction
from repro.bench.flow import flow_attribution
from repro.bench.harness import assert_unperturbed, paired_overhead, stream_point
from repro.bench.metrics import metrics_timeline
from repro.bench.obs import obs_roundtrip
from repro.bench.selfperf import selfperf_sweep
from repro.bench.steering import steering_adaptation
from repro.bench.tables import bi_bandwidth_table, fs_comparison_table, trace_size_table
from repro.core.comparison import ToolRunResult
from repro.network.machine import small_test_machine
from repro.util.units import MIB


class TestScaleValidation:
    @pytest.mark.parametrize(
        "driver",
        [
            fig14_stream_throughput,
            fig15_overhead,
            fig16_tool_comparison,
            fig17_topology,
            fig18_density,
            bi_bandwidth_table,
            trace_size_table,
            fs_comparison_table,
            chaos_resilience,
            codec_reduction,
            flow_attribution,
            metrics_timeline,
            obs_roundtrip,
            selfperf_sweep,
            steering_adaptation,
        ],
    )
    def test_unknown_scale_rejected(self, driver):
        with pytest.raises(ConfigError):
            driver(scale="galactic")


class TestSharedGates:
    FINGERPRINT = {"walltime": 1.5, "events": 3552, "packs": 48}

    def test_unperturbed_passes_and_names_the_field_that_moved(self):
        assert_unperturbed("probe", self.FINGERPRINT, dict(self.FINGERPRINT))
        moved = dict(self.FINGERPRINT, packs=49)
        with pytest.raises(BenchGateError, match=r"probe perturbed .*packs 48 -> 49"):
            assert_unperturbed("probe", self.FINGERPRINT, moved)

    @staticmethod
    def _overhead(on_times, budget=0.05):
        """Injected timings: every off run takes 1 s, on runs as given."""
        on = iter(on_times)
        return paired_overhead(
            "probe", lambda: 1.0, lambda: next(on), len(on_times), budget
        )

    def test_paired_overhead_fails_only_when_every_pair_is_over_budget(self):
        with pytest.raises(BenchGateError, match=r"probe overhead \+8.00% exceeds"):
            self._overhead([1.30, 1.08, 1.20])
        # one pair under the budget is enough: the minimum pair gates
        assert self._overhead([1.30, 1.02, 1.20]) == pytest.approx(0.02)

    def test_paired_overhead_rejects_zero_repeats(self):
        with pytest.raises(ConfigError):
            self._overhead([])


class TestStreamPoint:
    def test_tiny_point_end_to_end(self):
        machine = small_test_machine(nodes=64, cores_per_node=4)
        point = stream_point(
            machine, writers=8, ratio=4, bytes_per_writer=4 * MIB,
            block_size=MIB, seed=0,
        )
        assert point["readers"] == 2
        assert point["bytes"] == 8 * 4 * MIB
        assert point["throughput"] > 0
        assert point["fs_scaled"] == machine.fs_job_bandwidth(8)

    def test_reader_floor(self):
        machine = small_test_machine(nodes=64, cores_per_node=4)
        point = stream_point(machine, 2, 64, 1 * MIB, MIB, 0)
        assert point["readers"] == 1


class TestResultContainers:
    def test_fig14_result_accessors(self):
        result = Fig14Result("Figure 14 (X)", FIG14_COLUMNS)
        result.points.append(
            {"writers": 8.0, "ratio": 1.0, "readers": 8.0, "throughput": 5.0,
             "fs_scaled": 1.0, "bytes": 100.0}
        )
        result.points.append(
            {"writers": 8.0, "ratio": 2.0, "readers": 4.0, "throughput": 9.0,
             "fs_scaled": 1.0, "bytes": 100.0}
        )
        assert result.throughput(8, 2.0) == 9.0
        assert result.peak()["ratio"] == 2.0
        with pytest.raises(KeyError):
            result.throughput(16, 1.0)
        rendered = result.table().render()
        assert "Figure 14" in rendered

    def test_fig16_result_accessors(self):
        result = Fig16Result("Figure 16 (X)", FIG16_COLUMNS)
        result.points.append(
            ToolRunResult(tool="online", app="SP.D", nprocs=64, walltime=1.0,
                          overhead_pct=2.0)
        )
        assert result.overhead("online", 64) == 2.0
        assert result.by_tool()["online"][0].nprocs == 64
        with pytest.raises(KeyError):
            result.overhead("online", 128)
        assert "Figure 16" in result.table().render()
