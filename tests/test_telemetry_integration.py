"""Telemetry wired through the stack: kernel, streams, blackboard, bench.

The acceptance path of the subsystem: a real coupled run with telemetry
enabled produces a Chrome trace with spans from every instrumented layer,
while the disabled default changes nothing about simulation results.
"""

import json

import pytest

from repro.apps.nas import nas_kernel
from repro.bench.harness import stream_point
from repro.blackboard.board import Blackboard
from repro.blackboard.workers import ThreadPool
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine
from repro.simt.kernel import Kernel
from repro.telemetry.core import KERNEL_PID, NULL_TELEMETRY, Telemetry
from repro.util.units import MIB


def _sleeper(k, delay, steps):
    for _ in range(steps):
        yield k.timeout(delay)


class TestKernelTelemetry:
    def test_default_kernel_shares_null_telemetry(self):
        assert Kernel().telemetry is NULL_TELEMETRY

    def test_trace_flag_records_instants_without_printing(self, capsys):
        kernel = Kernel(trace=True)
        kernel.spawn(_sleeper(kernel, 1.0, 3), name="p")
        kernel.run()
        assert capsys.readouterr().out == ""
        fires = [i for i in kernel.telemetry.instants if i["name"] == "kernel.fire"]
        assert len(fires) == kernel.events_dispatched
        assert all(i["pid"] == KERNEL_PID for i in fires)

    def test_dispatch_counter_and_heap_gauge(self):
        tel = Telemetry()
        kernel = Kernel(telemetry=tel)
        kernel.spawn(_sleeper(kernel, 1.0, 4), name="p")
        kernel.run()
        assert tel.counters["kernel.events_dispatched"].value == kernel.events_dispatched
        assert ("kernel.heap_depth", KERNEL_PID) in tel.gauges

    def test_run_span_covers_virtual_time(self):
        tel = Telemetry()
        kernel = Kernel(telemetry=tel)
        kernel.spawn(_sleeper(kernel, 2.0, 3), name="p")
        kernel.run()
        (run_span,) = [s for s in tel.spans if s.name == "kernel.run"]
        assert run_span.t0 == 0.0
        assert run_span.t1 == kernel.now == 6.0

    def test_clock_is_virtual_time(self):
        tel = Telemetry()
        kernel = Kernel(telemetry=tel)
        kernel.spawn(_sleeper(kernel, 5.0, 1), name="p")
        kernel.run()
        assert tel.now() == kernel.now == 5.0


@pytest.fixture(scope="module")
def coupled_run():
    """One small instrumented coupling shared by the assertions below."""
    tel = Telemetry()
    session = CouplingSession(
        machine=small_test_machine(nodes=32, cores_per_node=4),
        seed=3,
        telemetry=tel,
    )
    session.add_application(nas_kernel("CG", 16, "C", iterations=2))
    session.set_analyzer(ratio=1.0)
    result = session.run()
    return tel, result


class TestCoupledRunTelemetry:
    def test_spans_from_all_layers(self, coupled_run):
        tel, _result = coupled_run
        names = {s.name for s in tel.spans}
        assert "kernel.run" in names  # kernel layer
        assert {"stream.write", "stream.read"} <= names  # stream layer
        assert "blackboard.job" in names  # blackboard layer
        assert "vmpi.map_partitions" in names
        assert "analysis.block" in names

    def test_span_times_monotone_and_within_run(self, coupled_run):
        tel, _result = coupled_run
        (run_span,) = [s for s in tel.spans if s.name == "kernel.run"]
        for s in tel.spans:
            assert s.t1 is not None and s.t0 <= s.t1
            assert run_span.t0 <= s.t0 and s.t1 <= run_span.t1

    def test_chrome_trace_loads_and_has_rank_rows(self, coupled_run, tmp_path):
        tel, _result = coupled_run
        path = tmp_path / "run.trace.json"
        tel.write_chrome_trace(path)
        trace = json.load(open(path))
        events = trace["traceEvents"]
        span_pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert KERNEL_PID in span_pids  # the kernel row
        assert span_pids - {KERNEL_PID}  # at least one simulated-rank row
        names = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names[KERNEL_PID] == "simulation kernel"
        assert any(label.startswith("Analyzer[") for label in names.values())

    def test_report_carries_telemetry_section(self, coupled_run):
        tel, result = coupled_run
        assert result.report.telemetry == tel.summary()
        rendered = result.report.render()
        assert "## Self-telemetry (measurement pipeline)" in rendered
        assert "kernel events dispatched" in rendered

    def test_stream_stats_in_analyzer_stats(self, coupled_run):
        _tel, result = coupled_run
        stream = result.analyzer_stats["stream"]
        assert stream["blocks_read"] > 0
        assert stream["bytes_read"] > 0
        assert stream["closed"] is True
        assert "eagain_returns" in stream and "write_stall_s" in stream


class TestZeroCostWhenDisabled:
    def test_stream_point_identical_with_and_without_telemetry(self):
        machine = small_test_machine(nodes=64, cores_per_node=4)
        plain = stream_point(machine, 8, 4, 4 * MIB, MIB, 0)
        tel = Telemetry()
        instrumented = stream_point(machine, 8, 4, 4 * MIB, MIB, 0, telemetry=tel)
        # Telemetry never touches virtual time: bit-identical results.
        assert instrumented == plain
        assert instrumented["throughput"] == plain["throughput"]
        assert {s.name for s in tel.spans} >= {"stream.write", "stream.read"}

    def test_disabled_session_records_nothing(self):
        session = CouplingSession(
            machine=small_test_machine(nodes=16, cores_per_node=4), seed=0
        )
        session.add_application(nas_kernel("CG", 4, "C", iterations=1))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        assert session.telemetry is NULL_TELEMETRY
        assert NULL_TELEMETRY.spans == [] and NULL_TELEMETRY.counters == {}
        assert result.report is not None
        assert result.report.telemetry is None

    def test_stream_stats_available_with_telemetry_off(self):
        session = CouplingSession(
            machine=small_test_machine(nodes=16, cores_per_node=4), seed=0
        )
        session.add_application(nas_kernel("CG", 4, "C", iterations=1))
        session.set_analyzer(ratio=1.0)
        stream = session.run().analyzer_stats["stream"]
        assert stream["bytes_read"] > 0
        assert stream["eagain_returns"] >= 0
        assert stream["write_buffers_in_flight"] == 0  # drained at close


class TestBlackboardWorkerTelemetry:
    def _board_with_work(self, tel):
        board = Blackboard(nqueues=4, seed=0, telemetry=tel)
        data_id = board.register_type("datum")
        hits = []
        board.register_ks("KS_count", [data_id], lambda b, es: hits.extend(es))
        for i in range(50):
            board.submit(data_id, i, size=8)
        return board, hits

    def test_worker_utilization_reaches_headline(self):
        tel = Telemetry()  # host clock: standalone threads, no kernel
        board, hits = self._board_with_work(tel)
        with ThreadPool(board, nworkers=2, seed=0):
            pass  # context manager drains then stops
        assert len(hits) == 50
        util = tel.headline()["worker_utilization"]
        assert util is not None and 0.0 < util <= 1.0
        assert tel.counters["blackboard.jobs_executed"].value > 0

    def test_lock_contention_counter_exists_when_enabled(self):
        tel = Telemetry()
        board, _hits = self._board_with_work(tel)
        with ThreadPool(board, nworkers=4, seed=1):
            pass
        # Contention is workload-dependent; the always-on mirror must agree.
        counter = tel.counters.get("blackboard.lock_contention")
        observed = counter.value if counter is not None else 0
        assert board.queues.lock_failures == observed
        assert board.stats()["lock_failures"] == board.queues.lock_failures


class TestBenchCLI:
    def test_json_and_trace_artifacts(self, tmp_path, fake_lane):
        from repro.bench import __main__ as bench_main
        from repro.bench.lane import Column, LaneResult

        calls = {}
        columns = (Column("a", lambda p: p[0]), Column("b", lambda p: p[1]))

        def fake_driver(scale="small", seed=0, telemetry=None):
            calls["telemetry"] = telemetry
            if telemetry is not None:
                telemetry.counter("kernel.events_dispatched").inc(7)
                telemetry.span("kernel.run").end()
            return LaneResult(
                "stub", columns, points=[(1, 2)], extras={"bus": {"n": 3}},
                artifacts={"side.txt": lambda path: path.write_text("kept")},
            )

        fake_lane("fig14", fake_driver)
        rc = bench_main.main(
            ["fig14", "--telemetry", "--outdir", str(tmp_path)]
        )
        assert rc == 0
        assert isinstance(calls["telemetry"], Telemetry)

        payload = json.loads((tmp_path / "BENCH_fig14.json").read_text())
        assert payload["experiment"] == "fig14"
        assert payload["columns"] == ["a", "b"]
        assert payload["rows"] == [["1", "2"]]  # Table stores rendered cells
        assert payload["telemetry"]["headline"]["events_dispatched"] == 7
        # a lane's extras land in the payload, its artifacts beside it
        assert payload["bus"] == {"n": 3}
        assert (tmp_path / "side.txt").read_text() == "kept"

        trace = json.loads((tmp_path / "BENCH_fig14.trace.json").read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_json_without_telemetry(self, tmp_path, fake_lane):
        from repro.bench import __main__ as bench_main
        from repro.bench.lane import Column, LaneResult

        def fake_driver(scale="small", seed=0, telemetry=None):
            assert telemetry is None
            return LaneResult("stub", (Column("x", lambda p: p),), points=[9])

        fake_lane("fig15", fake_driver)
        rc = bench_main.main(["fig15", "--json", "--outdir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_fig15.json").read_text())
        assert "telemetry" not in payload
        assert not (tmp_path / "BENCH_fig15.trace.json").exists()
