"""Baseline tool models and the comparison harness."""

import pytest

from repro.errors import ConfigError
from repro.apps.nas.adi import SP
from repro.apps.nas.ep import EP
from repro.baselines.postmortem import PostMortemAnalyzer
from repro.baselines.tracer import TraceWriterState
from repro.core.comparison import TOOLS, compare_tools, run_tool
from repro.iosim.filesystem import ParallelFS
from repro.iosim.sionlib import SionFile
from repro.network.machine import CURIE, small_test_machine
from repro.simt.kernel import Kernel


class TestTraceWriter:
    @pytest.fixture
    def fs(self, machine):
        return ParallelFS(Kernel(), machine, job_cores=16)

    def test_buffered_until_threshold(self, fs):
        writer = TraceWriterState(fs, rank=0, bytes_per_event=100, buffer_bytes=1000)

        def user(k):
            yield from writer.open()
            yield from writer.record(5)  # 500 bytes buffered
            assert fs.bytes_written == 0
            yield from writer.record(5)  # hits 1000 -> flush
            yield from writer.close()

        fs.kernel.spawn(user(fs.kernel))
        fs.kernel.run()
        assert fs.bytes_written == 1000
        assert writer.trace_bytes == 1000
        assert writer.flushes >= 1

    def test_close_flushes_tail(self, fs):
        writer = TraceWriterState(fs, rank=0, bytes_per_event=10, buffer_bytes=10**6)

        def user(k):
            yield from writer.open()
            yield from writer.record(3)
            yield from writer.close()

        fs.kernel.spawn(user(fs.kernel))
        fs.kernel.run()
        assert fs.bytes_written == 30

    def test_record_requires_open(self, fs):
        writer = TraceWriterState(fs, rank=0)
        with pytest.raises(ConfigError):
            list(writer.record(1))

    def test_validation(self, fs):
        with pytest.raises(ConfigError):
            TraceWriterState(fs, 0, bytes_per_event=0)
        with pytest.raises(ConfigError):
            TraceWriterState(fs, 0, amortize_fixed=0.0)
        with pytest.raises(ConfigError):
            TraceWriterState(fs, 0, amortize_fixed=2.0)

    def test_sion_mode_shares_metadata(self, fs):
        sion = SionFile(fs, "t.sion", tasks_per_file=8)
        writers = [
            TraceWriterState(fs, rank=r, bytes_per_event=10, sion=sion) for r in range(4)
        ]

        def user(k, w):
            yield from w.open()
            yield from w.record(2)
            yield from w.close()

        for w in writers:
            fs.kernel.spawn(user(fs.kernel, w))
        fs.kernel.run()
        assert fs.metadata_ops == 1  # one container creation for all tasks


class TestPostMortem:
    def test_read_back_scales_with_trace(self):
        pm = PostMortemAnalyzer(CURIE, analysis_cores=256)
        small = pm.analyze(10**9)
        big = pm.analyze(10**11)
        assert big.read_back_seconds == pytest.approx(small.read_back_seconds * 100)
        assert big.total_seconds > small.total_seconds

    def test_more_cores_faster_analysis(self):
        small = PostMortemAnalyzer(CURIE, analysis_cores=64).analyze(10**10)
        large = PostMortemAnalyzer(CURIE, analysis_cores=1024).analyze(10**10)
        assert large.analyze_seconds < small.analyze_seconds

    def test_validation(self):
        with pytest.raises(ConfigError):
            PostMortemAnalyzer(CURIE, analysis_cores=0)
        pm = PostMortemAnalyzer(CURIE, analysis_cores=4)
        with pytest.raises(ConfigError):
            pm.analyze(-1)


class TestRunTool:
    MACHINE = small_test_machine(nodes=128, cores_per_node=4)

    def test_unknown_tool_rejected(self):
        with pytest.raises(ConfigError):
            run_tool(EP(4, "C"), "strace", self.MACHINE)

    def test_reference_has_no_volume(self):
        r = run_tool(EP(4, "C"), "reference", self.MACHINE)
        assert r.full_run_volume_bytes == 0
        assert r.walltime > 0

    def test_online_reports_events_and_bi(self):
        r = run_tool(SP(16, "C", iterations=2), "online", self.MACHINE)
        assert r.extras["events"] > 0
        assert r.full_run_volume_bytes > 0
        assert r.extras["analyzer_nprocs"] == 16

    def test_scorep_trace_uses_sion(self):
        r = run_tool(SP(16, "C", iterations=2), "scorep_trace", self.MACHINE)
        assert r.extras["sion_containers"] >= 1
        assert r.full_run_volume_bytes > 0

    def test_scorep_profile_metadata_storm(self):
        r = run_tool(SP(16, "C", iterations=2), "scorep_profile", self.MACHINE)
        assert r.extras["fs_metadata_ops"] == 32  # open+close per rank

    def test_mpip_tiny_volume(self):
        r_trace = run_tool(SP(16, "C", iterations=2), "scorep_trace", self.MACHINE)
        r_mpip = run_tool(SP(16, "C", iterations=2), "mpip", self.MACHINE)
        assert r_mpip.full_run_volume_bytes < r_trace.full_run_volume_bytes / 10

    def test_compare_tools_overheads_relative_to_reference(self):
        results = compare_tools(
            lambda: SP(16, "C", iterations=2),
            tools=("reference", "online", "mpip"),
            machine=self.MACHINE,
        )
        by_tool = {r.tool: r for r in results}
        assert by_tool["reference"].overhead_pct == 0.0
        assert by_tool["online"].overhead_pct is not None
        assert by_tool["online"].overhead_pct >= 0.0
        assert by_tool["mpip"].overhead_pct >= 0.0

    def test_all_tools_run(self):
        results = compare_tools(
            lambda: SP(16, "C", iterations=2), tools=TOOLS, machine=self.MACHINE
        )
        assert {r.tool for r in results} == set(TOOLS)

    def test_online_volume_exceeds_scorep_trace(self):
        """The paper's ~2.9x online/Score-P volume ratio."""
        online = run_tool(SP(16, "D", iterations=2), "online", self.MACHINE)
        trace = run_tool(SP(16, "D", iterations=2), "scorep_trace", self.MACHINE)
        ratio = online.full_run_volume_bytes / trace.full_run_volume_bytes
        assert 2.0 < ratio < 4.0

    def test_amortization_reduces_fixed_costs(self):
        slow = run_tool(
            SP(16, "C", iterations=2),
            "scorep_profile",
            self.MACHINE,
            amortize_fixed_costs=False,
        )
        fast = run_tool(
            SP(16, "C", iterations=2),
            "scorep_profile",
            self.MACHINE,
            amortize_fixed_costs=True,
        )
        assert fast.walltime <= slow.walltime
