"""Host-time observability plane: clock injection, profiler, selfperf lane."""

from __future__ import annotations

import gc
import json

import pytest

from repro.apps.nas import SP
from repro.bench.selfperf import CHAINS, _run_once, selfperf_sweep
from repro.blackboard import Blackboard
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.network.machine import TERA100
from repro.obs import HOSTPROF_SCHEMA
from repro.telemetry import hostprof
from repro.telemetry.hostprof import (
    HOST_PID,
    HostProfiler,
    HostSegment,
    HostTimer,
    NULL_HOSTPROF,
    fake_host_clock,
    host_environment,
    host_now,
    set_host_clock,
)

pytestmark = pytest.mark.selfperf


class ManualClock:
    """A host clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- the injectable host clock --------------------------------------------------------


class TestHostClock:
    def test_fake_clock_scopes_and_restores(self):
        clock = ManualClock()
        clock.t = 41.5
        with fake_host_clock(clock):
            assert host_now() == 41.5
            clock.advance(0.5)
            assert host_now() == 42.0
        # Restored: back on perf_counter, which moves.
        a, b = host_now(), host_now()
        assert b >= a

    def test_set_host_clock_returns_previous_and_none_resets(self):
        clock = ManualClock()
        prev = set_host_clock(clock)
        try:
            assert host_now() == 0.0
        finally:
            set_host_clock(None)
        assert prev is not clock
        assert host_now() != pytest.approx(0.0, abs=0.0) or host_now() > 0

    def test_environment_header_keys(self):
        env = host_environment()
        assert set(env) == {
            "python", "implementation", "platform", "machine", "cpu_count",
        }
        assert env["cpu_count"] >= 1


# -- accumulators ---------------------------------------------------------------------


class TestAccumulators:
    def test_timer_math(self):
        t = HostTimer("x")
        t.add(2.0, items=4, nbytes=8_000_000)
        t.add(2.0, items=0, nbytes=0)
        assert t.calls == 2
        assert t.total_s == 4.0
        assert t.max_s == 2.0
        assert t.items_per_s == pytest.approx(1.0)
        assert t.mb_per_s == pytest.approx(2.0)
        d = t.as_dict()
        assert d["items"] == 4 and d["bytes"] == 8_000_000

    def test_empty_timer_rates_are_zero(self):
        t = HostTimer("x")
        assert t.items_per_s == 0.0
        assert t.mb_per_s == 0.0

    def test_segment_excludes_paused_time(self):
        clock = ManualClock()
        with fake_host_clock(clock):
            timer = HostTimer("seg")
            seg = HostSegment(timer)
            clock.advance(1.0)          # charged
            seg.pause()
            clock.advance(5.0)          # a virtual-time wait: not charged
            seg.resume()
            clock.advance(2.0)          # charged
            seg.done(items=3, nbytes=30)
        assert timer.total_s == pytest.approx(3.0)
        assert timer.items == 3 and timer.nbytes == 30

    def test_profiler_timer_get_or_create_and_counts(self):
        hp = HostProfiler()
        assert hp.timer("a") is hp.timer("a")
        hp.count("c", 2)
        hp.count("c")
        assert hp.counts["c"] == 3


# -- activation lifecycle -------------------------------------------------------------


class TestActivation:
    def test_default_is_null_and_disabled(self):
        assert hostprof.ACTIVE is NULL_HOSTPROF
        assert not NULL_HOSTPROF.enabled

    def test_profiled_installs_and_restores(self):
        with hostprof.profiled() as hp:
            assert hostprof.ACTIVE is hp
            assert hp.enabled
        assert hostprof.ACTIVE is NULL_HOSTPROF
        assert hp.t_stop is not None

    def test_profiled_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with hostprof.profiled():
                raise RuntimeError("boom")
        assert hostprof.ACTIVE is NULL_HOSTPROF

    def test_double_activate_rejected(self):
        with hostprof.profiled():
            with pytest.raises(RuntimeError, match="already active"):
                hostprof.activate(HostProfiler())

    def test_disabled_profiler_cannot_activate(self):
        with pytest.raises(ValueError):
            hostprof.activate(HostProfiler(enabled=False))

    def test_gc_pauses_are_captured(self):
        with hostprof.profiled() as hp:
            gc.collect()
        assert hp.gc_pauses >= 1
        assert hp.gc_pause_total_s >= 0.0
        # Callback is gone: further collections are not attributed.
        pauses = hp.gc_pauses
        gc.collect()
        assert hp.gc_pauses == pauses

    def test_stop_captures_rss(self):
        with hostprof.profiled() as hp:
            pass
        assert hp.rss_peak_bytes >= hp.rss_bytes >= 0


# -- export ---------------------------------------------------------------------------


class TestExport:
    def test_summary_shape(self):
        with hostprof.profiled() as hp:
            hp.timer("t").add(0.5, items=2, nbytes=10)
            hp.count("c", 1)
        s = hp.summary()
        assert s["schema"] == HOSTPROF_SCHEMA
        assert set(s["host"]) == set(host_environment())
        assert s["timers"]["t"]["items"] == 2
        assert s["counts"]["c"] == 1
        assert {"pauses", "pause_total_s", "pause_max_s", "collections"} <= set(s["gc"])
        assert {"rss_bytes", "rss_peak_bytes", "malloc_peak_bytes"} <= set(s["process"])

    def test_chrome_trace_rides_the_host_pid(self, tmp_path):
        with hostprof.profiled() as hp:
            with hp.span("work", chain="identity"):
                pass
        path = tmp_path / "host.trace.json"
        hp.write_chrome_trace(str(path))
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert all(e["pid"] == HOST_PID for e in events)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and spans[0]["name"] == "work"
        assert spans[0]["args"]["schema"] == HOSTPROF_SCHEMA
        assert any(e["name"] == "hostprof.summary" for e in events)

    def test_jsonl_records_are_schema_tagged(self, tmp_path):
        with hostprof.profiled() as hp:
            hp.timer("t").add(0.1)
        path = tmp_path / "host.jsonl"
        hp.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["schema"] == HOSTPROF_SCHEMA for r in records)
        kinds = {r["kind"] for r in records}
        assert {"meta", "timer", "gc", "process"} <= kinds

    def test_track_malloc_records_peak(self):
        with hostprof.profiled(track_malloc=True) as hp:
            _junk = [bytes(1000) for _ in range(100)]
        assert hp.malloc_peak_bytes is not None and hp.malloc_peak_bytes > 0


# -- the disabled path: observation-only guarantee ------------------------------------


def _session_fingerprint(profiler=None):
    session = CouplingSession(machine=TERA100, seed=0)
    name = session.add_application(SP(16, "C", iterations=1))
    session.set_analyzer(ratio=4.0)
    session.set_reduction("delta+dict")
    if profiler is not None:
        with hostprof.profiled(profiler):
            run = session.run()
    else:
        run = session.run()
    app = run.app(name)
    stats = run.analyzer_stats
    return (app.walltime, app.events, app.packs, stats["packs"], stats["bytes"])


class TestObservationOnly:
    def test_profiler_on_off_bit_identical(self):
        assert _session_fingerprint() == _session_fingerprint(HostProfiler())

    def test_disabled_profiler_books_nothing(self):
        before = dict(NULL_HOSTPROF.timers)
        _session_fingerprint()  # no active profiler anywhere
        assert NULL_HOSTPROF.timers == before == {}

    def test_profiled_run_populates_every_hot_path_timer(self):
        hp = HostProfiler()
        _session_fingerprint(hp)
        names = set(hp.timers)
        assert {
            "kernel.dispatch", "stream.write", "stream.transit", "stream.read",
            "codec.encode", "codec.decode", "frame.parse", "frame.emit",
            "blackboard.submit", "blackboard.execute", "analysis.ingest",
        } <= names
        dispatch = hp.timers["kernel.dispatch"]
        assert dispatch.items > 0 and dispatch.total_s > 0
        assert hp.counts["kernel.heap_pops"] == dispatch.items

    def test_blackboard_probe_is_fake_clock_deterministic(self):
        clock = ManualClock()
        with fake_host_clock(clock), hostprof.profiled() as hp:
            board = Blackboard()
            tid = board.register_type("x")
            board.submit(tid, b"0123456789")
        timer = hp.timers["blackboard.submit"]
        assert timer.calls == 1 and timer.nbytes == 10
        assert timer.total_s == 0.0  # the clock never moved


# -- the selfperf lane ----------------------------------------------------------------


class TestSelfPerfLane:
    def test_sweep_smoke_and_artifacts(self, tmp_path):
        result = selfperf_sweep(
            scale="small", chains=("", "delta+dict"), repeats=1,
            overhead_budget=10.0,
        )
        assert [p.chain for p in result.points] == ["", "delta+dict"]
        for p in result.points:
            assert p.events > 0 and p.packs > 0
            assert p.kernel_events_per_s > 0
            assert p.stream_mb_per_s > 0
            assert p.frame_mb_per_s > 0
            assert p.analysis_packs_per_s > 0
        assert result.points[1].codec_mb_per_s > 0
        assert result.extras["hostprof"]["schema"] == HOSTPROF_SCHEMA
        assert result.extras["overhead_ratio"] <= 10.0
        table = result.table()
        assert table.columns == [
            "chain", "events", "packs", "kernel_events_per_s",
            "stream_mb_per_s", "codec_mb_per_s", "frame_mb_per_s",
            "analysis_packs_per_s",
            "kernel_allocs", "stream_allocs", "codec_allocs", "frame_allocs",
            "analysis_allocs", "elapsed_s",
        ]
        for p in result.points:
            assert p.kernel_allocs > 0 and p.frame_allocs > 0
            assert p.analysis_allocs > 0
            assert p.stream_allocs >= 0 and p.codec_allocs >= 0
        for filename, write in result.artifacts.items():
            write(tmp_path / filename)
        assert (tmp_path / "BENCH_selfperf.hostprof.trace.json").exists()
        assert (tmp_path / "BENCH_selfperf.hostprof.jsonl").exists()

    def test_sweep_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            selfperf_sweep(scale="huge")
        with pytest.raises(ConfigError):
            selfperf_sweep(repeats=0)

    def test_run_once_matches_chain_grid(self):
        assert CHAINS[0] == ""  # the identity row anchors both self-gates
        outputs, wall = _run_once("", "small", TERA100, 0)
        assert outputs["events"] > 0 and outputs["packs"] > 0 and wall > 0


class TestBenchCLI:
    def test_cli_selfperf_gates_against_committed_baseline(self, tmp_path, capsys):
        # The CI lane in miniature: regenerate, self-gate the profiler,
        # stamp the host header, diff against the committed baseline with
        # the host-speed columns on the lane's declared tolerances.
        from repro.bench.__main__ import main as bench_main

        rc = bench_main([
            "selfperf", "--scale", "small", "--json", "--outdir", str(tmp_path),
            "--baseline", "benchmarks/baselines/BENCH_selfperf.json",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out
        payload = json.loads((tmp_path / "BENCH_selfperf.json").read_text())
        assert payload["host"] == host_environment()
        assert payload["hostprof"]["schema"] == HOSTPROF_SCHEMA
        assert (tmp_path / "BENCH_selfperf.hostprof.trace.json").exists()

    def test_report_profile_dumps_pstats_and_hotspots(self, tmp_path, capsys):
        import cProfile

        from repro.bench.__main__ import _report_profile

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(10_000))
        profiler.disable()
        hotspots = _report_profile(profiler, "selfperf", tmp_path)
        out = capsys.readouterr().out
        assert (tmp_path / "BENCH_selfperf.pstats").exists()
        assert "Ordered by: cumulative time" in out
        assert hotspots
        assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(hotspots[0])
