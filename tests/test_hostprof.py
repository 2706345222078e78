"""Host-time observability plane: clock injection, profiler, selfperf lane."""

from __future__ import annotations

import gc
import json
import threading

import pytest

from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.apps.nas.adi import SP
from repro.bench.selfperf import CHAINS, _run_once, selfperf_sweep
from repro.blackboard.board import Blackboard
from repro.codec.frame import build_frame
from repro.core.session import CouplingSession
from repro.errors import ConfigError, ProcessCrashError
from repro.network.machine import TERA100
from repro.obs.registry import HOSTPROF_SCHEMA, SCHEMAS, screen
from repro.telemetry import hostprof
from repro.telemetry.hostprof import (
    ENTRY_POINTS,
    HOST_PID,
    HostProfiler,
    HostTimer,
    fake_host_clock,
    host_environment,
    host_now,
    resolve_entry_point,
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
        t = HostTimer("x", calls=2, total_s=4.0, items=4, nbytes=8_000_000, max_s=2.0)
        assert t.items_per_s == pytest.approx(1.0)
        assert t.mb_per_s == pytest.approx(2.0)
        d = t.as_dict()
        assert d["items"] == 4 and d["bytes"] == 8_000_000

    def test_empty_timer_rates_are_zero(self):
        t = HostTimer("x")
        assert t.items_per_s == 0.0
        assert t.mb_per_s == 0.0

    def test_profiler_timer_get_or_create_and_counts(self):
        hp = HostProfiler()
        assert hp.timer("a") is hp.timer("a")
        hp.count("c", 2)
        hp.count("c")
        assert hp.counts["c"] == 3


# -- activation lifecycle -------------------------------------------------------------


class TestActivation:
    def test_default_is_none(self):
        assert hostprof.ACTIVE is None

    def test_profiled_installs_and_restores(self):
        with hostprof.profiled() as hp:
            assert hostprof.ACTIVE is hp
            assert hp.t_start is not None and hp.t_stop is None
        assert hostprof.ACTIVE is None
        assert hp.t_stop is not None

    def test_profiled_restores_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with hostprof.profiled():
                raise RuntimeError("boom")
        assert hostprof.ACTIVE is None

    def test_double_activate_rejected(self):
        with hostprof.profiled():
            with pytest.raises(RuntimeError, match="already active"):
                hostprof.activate(HostProfiler())

    def test_a_spent_profiler_cannot_be_reactivated(self):
        with hostprof.profiled() as hp:
            pass
        with pytest.raises(RuntimeError, match="books are closed"):
            hostprof.activate(hp)
        assert hostprof.ACTIVE is None

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
            hp.timer("t").items += 2
            hp.count("c", 1)
        s = hp.summary()
        assert s["schema"] == HOSTPROF_SCHEMA
        assert set(s["host"]) == set(host_environment())
        assert s["timers"]["t"]["items"] == 2
        assert s["counts"]["c"] == 1
        assert {"pauses", "pause_total_s", "pause_max_s", "collections"} <= set(s["gc"])
        assert set(s["process"]) == {"rss_bytes", "rss_peak_bytes"}
        assert s["unattributed_s"] == s["elapsed_s"] > 0  # no entry point ran

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
            hp.timer("t").calls += 1
        path = tmp_path / "host.jsonl"
        hp.write_jsonl(str(path))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["schema"] == HOSTPROF_SCHEMA for r in records)
        kinds = {r["kind"] for r in records}
        assert {"meta", "timer", "gc", "process"} <= kinds
        assert "unattributed_s" in records[0]

    def test_profiled_session_exports_the_registered_kind_set(self):
        hp = HostProfiler()
        with hostprof.profiled(hp), hp.span("run"):
            _session_fingerprint()
        records = hp.jsonl_records()
        for record in records:
            assert screen(record) is None
        assert {r["kind"] for r in records} == set(SCHEMAS[HOSTPROF_SCHEMA])

    def test_session_publishes_a_live_process_record(self):
        # _drain_obs publishes from inside profiled(): the profiler is still
        # running, so RSS and the books are sampled at call time.
        session = CouplingSession(machine=TERA100, seed=0)
        session.add_application(SP(16, "C", iterations=1))
        session.set_analyzer(ratio=4.0)
        session.enable_observability(ring=4096)
        with hostprof.profiled() as hp:
            session.run()
            assert hp.t_stop is None
        published = {
            r["kind"]: r for r in session.obs_ring.records() if r["schema"] == HOSTPROF_SCHEMA
        }
        assert published["process"]["rss_peak_bytes"] >= published["process"]["rss_bytes"] > 0
        meta = published["meta"]
        assert 0.0 < meta["unattributed_s"] < meta["elapsed_s"] <= hp.elapsed_s


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
        # Off means absent: every entry point is the function its module
        # defined, so there is no profiler for a run to book into.
        for target, *_ in ENTRY_POINTS:
            owner, attr, raw = resolve_entry_point(target)
            assert not hasattr(raw, "__wrapped__"), target
        _session_fingerprint()
        assert hostprof.ACTIVE is None

    def test_profiled_run_populates_every_hot_path_timer(self):
        hp = HostProfiler()
        _session_fingerprint(hp)
        assert set(hp.timers) == {
            "kernel.dispatch", "stream.write", "stream.transit", "stream.read",
            "codec.encode", "codec.decode", "frame.parse", "frame.emit",
            "blackboard.submit", "blackboard.execute", "analysis.ingest",
        }
        for name, timer in hp.timers.items():
            assert timer.calls > 0 and timer.items > 0 and timer.total_s > 0, name
        dispatch = hp.timers["kernel.dispatch"]
        assert dispatch.items > 0 and dispatch.total_s > 0
        assert hp.counts["kernel.heap_pops"] == dispatch.items

    def test_every_block_received_and_read_is_profiled(self):
        # A read stream binds _on_block once, at open; a session opens its
        # streams inside profiled(), so the bound one is the timing wrapper
        # and every message that reaches a reader is booked (DESIGN 11).
        session = CouplingSession(machine=TERA100, seed=0)
        session.add_application(SP(16, "C", iterations=1))
        session.set_analyzer(ratio=4.0)
        with hostprof.profiled() as hp:
            world = session.run().world
        readers = [stream.stats() for _rank, stream in world.streams if stream.mode == "r"]
        read = sum(s["blocks_read"] for s in readers)
        # blocks consumed or discarded, plus the one close marker per writer
        received = read + sum(
            s["stale_blocks_discarded"] + s["blocks_discarded_at_close"] + s["endpoints"]
            for s in readers
        )
        assert read > 0
        assert hp.timers["stream.read"].items == read
        assert hp.timers["stream.transit"].items == received

    def test_blackboard_probe_is_fake_clock_deterministic(self):
        clock = ManualClock()
        with fake_host_clock(clock), hostprof.profiled() as hp:
            board = Blackboard()
            tid = board.register_type("x")
            board.submit(tid, b"0123456789")
        timer = hp.timers["blackboard.submit"]
        assert timer.calls == 1 and timer.nbytes == 10
        assert timer.total_s == 0.0  # the clock never moved


# -- interposition: the table, the books, the exits -----------------------------------


class TickingClock:
    """Advances by a power of two per reading, so every sum of slices is exact."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 2.0**-12
        return self.t


class _Doomed(SP):
    """SP that finishes its iterations and then dies on every rank."""

    def main(self, mpi):
        yield from super().main(mpi)
        raise RuntimeError("meteor")


def _patched_names():
    """Every (owner, attribute) a profiler replaces: targets and aliases."""
    with hostprof.profiled() as hp:
        return [(owner, attr) for owner, attr, _old in hp._restore]


def _good_and_corrupted_frame():
    good = build_frame(0, 0, 2, bytes(80))
    bad = bytearray(good)
    bad[-1] ^= 0xFF  # flip a CRC byte
    return good, bytes(bad)


class TestInterposition:
    def test_every_entry_point_resolves_to_a_plain_function(self):
        # A renamed or re-decorated target fails here, in tier-1, not on
        # the next profiling run.
        names = [name for _target, name, _before, _meter in ENTRY_POINTS]
        assert len(names) == len(set(names)) == 11
        for target, *_ in ENTRY_POINTS:
            owner, attr, raw = resolve_entry_point(target)
            assert vars(owner)[attr] is raw and callable(raw)
        with pytest.raises(AttributeError, match="not a plain function"):
            resolve_entry_point("simt.kernel:Kernel.no_such_method")

    def test_aliases_are_rebound_by_identity(self):
        import repro.analysis.engine as engine_mod
        import repro.codec.frame as frame_mod
        import repro.instrument.packer as packer_mod

        raw_parse, raw_build = frame_mod.parse_frame, frame_mod.build_frame
        with hostprof.profiled():
            assert frame_mod.parse_frame is not raw_parse
            assert engine_mod.parse_frame is frame_mod.parse_frame
            assert packer_mod.build_frame is frame_mod.build_frame
            assert frame_mod.parse_frame.__wrapped__ is raw_parse
        assert engine_mod.parse_frame is raw_parse
        assert packer_mod.build_frame is raw_build

    @pytest.mark.parametrize("crash", [False, True])
    def test_every_original_is_back_after_the_scope(self, crash):
        patched = _patched_names()
        assert len(patched) > len(ENTRY_POINTS)  # the table plus its aliases
        originals = [vars(owner)[attr] for owner, attr in patched]
        session = CouplingSession(machine=TERA100, seed=0)
        session.add_application((_Doomed if crash else SP)(16, "C", iterations=1))
        session.set_analyzer(ratio=4.0)
        if crash:
            with pytest.raises(ProcessCrashError, match="meteor"):
                with hostprof.profiled() as hp:
                    session.run()
        else:
            with hostprof.profiled() as hp:
                session.run()
        assert hostprof.ACTIVE is None and hp.t_stop is not None
        for (owner, attr), original in zip(patched, originals):
            assert vars(owner)[attr] is original, (owner, attr)
        assert hp.timers["kernel.dispatch"].calls == 1  # the crashed drain is booked too

    def test_timers_and_unattributed_telescope_to_elapsed(self):
        hp = HostProfiler()
        with fake_host_clock(TickingClock()):
            _session_fingerprint(hp)
            summary = hp.summary()
        booked = sum(t["total_s"] for t in summary["timers"].values())
        assert booked > 0 and summary["unattributed_s"] > 0
        assert booked + summary["unattributed_s"] == summary["elapsed_s"] == hp.elapsed_s

    def test_a_midrun_reading_telescopes_too(self):
        with fake_host_clock(TickingClock()), hostprof.profiled() as hp:
            board = Blackboard()
            board.submit(board.register_type("x"), b"0123456789")
            summary = hp.summary()
            assert hp.t_stop is None
        booked = sum(t["total_s"] for t in summary["timers"].values())
        assert booked + summary["unattributed_s"] == summary["elapsed_s"] > 0

    def test_error_exits_are_booked(self):
        good, bad = _good_and_corrupted_frame()
        engine = AnalyzerEngine([("probe", 4)], AnalysisConfig())
        with fake_host_clock(ManualClock()), hostprof.profiled() as hp:
            assert engine.ingest(good) is True
            assert engine.ingest(bad) is False
        ingest = hp.timers["analysis.ingest"]
        assert ingest.calls == engine.packs_ingested + engine.packs_rejected == 2
        assert ingest.items == 1 and ingest.nbytes == len(good)
        parse = hp.timers["frame.parse"]
        assert parse.calls >= 2  # the raising parse is a call ...
        assert parse.items == parse.calls - 1  # ... but not an item
        assert hp._running is hp.unattributed  # and the stack unwound

    def test_a_call_from_another_thread_passes_straight_through(self):
        # The threaded WorkerPool executes jobs off the activating thread:
        # not booked, and unable to corrupt the one-thread layer stack.
        clock = ManualClock()
        with fake_host_clock(clock), hostprof.profiled() as hp:
            board = Blackboard()
            tid = board.register_type("x")
            seen = []

            def elsewhere():
                clock.advance(4.0)
                board.submit(tid, b"abc")
                seen.append(hp._running)

            worker = threading.Thread(target=elsewhere)
            worker.start()
            worker.join()
            board.submit(tid, b"0123456789")
        assert seen == [hp.unattributed]
        timer = hp.timers["blackboard.submit"]
        assert (timer.calls, timer.nbytes, timer.total_s) == (1, 10, 0.0)
        assert hp.unattributed.total_s == hp.elapsed_s == 4.0

    def test_a_callback_bound_inside_the_scope_outlives_it_unbooked(self):
        with hostprof.profiled() as hp:
            board = Blackboard()
            submit = board.submit  # bound to the wrapper
            tid = board.register_type("x")
        assert submit.__func__ is not Blackboard.submit
        submit(tid, b"late")
        assert hp.timers["blackboard.submit"].calls == 0
        assert board.entries_submitted == 1


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
        outputs, wall = _run_once("", "small", 0)
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
