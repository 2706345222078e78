"""Online health monitor: kernel hooks, detectors, and session integration."""

import pytest

from repro.analysis.alerts import AlertRouter
from repro.apps.eulermhd import EulerMHD
from repro.core.session import CouplingSession
from repro.errors import ConfigError, SimulationError
from repro.simt.kernel import Kernel
from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry import monitor as monitor_module
from repro.telemetry.monitor import HealthMonitor, MonitorConfig


# -- kernel periodic hooks ------------------------------------------------------------


class TestPeriodicHooks:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(SimulationError):
            Kernel().call_every(0.0, lambda now: None)

    def test_fires_at_multiples_of_interval(self):
        kernel = Kernel()
        seen = []
        kernel.call_every(1.0, seen.append)

        def proc(k):
            yield k.timeout(3.5)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert seen == [1.0, 2.0, 3.0]
        assert kernel.now == 3.5

    def test_hooks_never_keep_simulation_alive(self):
        kernel = Kernel()
        seen = []
        kernel.call_every(0.25, seen.append)
        # No processes, no events: run drains immediately, zero hook fires.
        kernel.run()
        assert seen == []

    def test_hooks_do_not_perturb_event_accounting(self):
        def proc(k):
            for _ in range(5):
                yield k.timeout(0.3)

        plain = Kernel()
        plain.spawn(proc(plain))
        plain.run()

        hooked = Kernel()
        fired = []
        hooked.call_every(0.1, fired.append)
        hooked.spawn(proc(hooked))
        hooked.run()

        assert fired  # the hook really ran
        assert hooked.events_dispatched == plain.events_dispatched
        assert hooked.now == plain.now

    def test_cancel_stops_firing(self):
        kernel = Kernel()
        seen = []
        hook = kernel.call_every(1.0, seen.append)

        def proc(k):
            yield k.timeout(2.5)
            k.cancel_every(hook)
            yield k.timeout(3.0)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert seen == [1.0, 2.0]
        assert hook.fired == 2

    def test_multiple_hooks_fire_in_registration_order(self):
        kernel = Kernel()
        order = []
        kernel.call_every(1.0, lambda now: order.append(("a", now)))
        kernel.call_every(1.0, lambda now: order.append(("b", now)))

        def proc(k):
            yield k.timeout(1.5)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert order == [("a", 1.0), ("b", 1.0)]

    def test_clock_reads_due_time_inside_hook(self):
        kernel = Kernel()
        stamps = []
        kernel.call_every(0.4, lambda now: stamps.append((now, kernel.now)))

        def proc(k):
            yield k.timeout(1.0)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert stamps == [(0.4, 0.4), (0.8, 0.8)]


# -- monitor construction -------------------------------------------------------------


class TestMonitorConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MonitorConfig(interval=0.0)
        with pytest.raises(ConfigError):
            MonitorConfig(interval=0.1, window=0.05)  # window < interval

    def test_effective_cooldown_defaults_to_window(self, monkeypatch):
        monitor = HealthMonitor(Telemetry(), config=MonitorConfig(window=0.5))
        assert monitor.cooldown == 0.5
        monkeypatch.setattr(monitor_module, "COOLDOWN", 0.1)
        assert monitor.cooldown == 0.1

    def test_monitor_requires_live_telemetry(self):
        with pytest.raises(ConfigError):
            HealthMonitor(NULL_TELEMETRY)

    def test_attach_requires_shared_telemetry(self):
        monitor = HealthMonitor(Telemetry())
        with pytest.raises(ConfigError):
            monitor.attach(Kernel(telemetry=Telemetry()))

    def test_double_attach_rejected(self):
        tel = Telemetry()
        kernel = Kernel(telemetry=tel)
        monitor = HealthMonitor(tel)
        monitor.attach(kernel)
        with pytest.raises(ConfigError):
            monitor.attach(kernel)
        monitor.detach()
        monitor.attach(kernel)  # detach frees the slot


# -- detectors under fabricated scenarios ---------------------------------------------


def _make(monkeypatch, **overrides):
    """A monitor on a fresh kernel; ``interval``/``window`` go into its
    config, any other override patches the module constant of that name."""
    cfg = dict(interval=0.05, window=0.25)
    for name, value in overrides.items():
        if name in cfg:
            cfg[name] = value
        else:
            monkeypatch.setattr(monitor_module, name.upper(), value)
    tel = Telemetry()
    kernel = Kernel(telemetry=tel)
    monitor = HealthMonitor(tel, config=MonitorConfig(**cfg))
    return tel, kernel, monitor


def _run_with_load(kernel, monitor, load, duration=1.0, step=0.01):
    """Drive a kernel with a per-step ``load(now)`` fabrication callback."""
    def proc(k):
        t = 0.0
        while t < duration:
            yield k.timeout(step)
            t += step
            load(k.now)

    kernel.spawn(proc(kernel))
    monitor.attach(kernel)
    kernel.run()


class TestDetectors:
    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def make(self, **overrides):
        return _make(self.monkeypatch, **overrides)

    def test_eagain_storm_detected_during_run(self):
        tel, kernel, monitor = self.make(eagain_rate_threshold=200.0)
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(kernel, monitor, lambda now: eagain.inc(10))  # ~1000/s
        kinds = monitor.by_kind()
        assert kinds.get("stream_stall", 0) >= 1
        first = next(a for a in monitor.alerts if a.kind == "stream_stall")
        assert first.t_detect < kernel.now  # raised before the run ended
        assert first.detail["signal"] == "eagain_rate"
        assert first.severity == "critical"  # 1000/s is > 2x threshold

    def test_write_stall_share_detected(self):
        tel, kernel, monitor = self.make(eagain_rate_threshold=1e12)
        stall = tel.histogram("stream.write_stall_s")
        # Each step adds 5ms of stall per 10ms of time: 50% stall share.
        _run_with_load(kernel, monitor, lambda now: stall.observe(0.005))
        alerts = [a for a in monitor.alerts if a.kind == "stream_stall"]
        assert alerts and alerts[0].detail["signal"] == "write_stall_share"
        assert alerts[0].value == pytest.approx(0.5, rel=0.2)

    def test_backlog_growth_needs_floor_and_slope(self):
        tel, kernel, monitor = self.make(backlog_depth_floor=8.0)
        depth = tel.gauge("blackboard.fifo_depth", pid=1)
        state = {"d": 0.0}

        def load(now):
            state["d"] += 1.0  # +100 jobs/s of queue growth
            depth.set(state["d"])

        _run_with_load(kernel, monitor, load)
        alerts = [a for a in monitor.alerts if a.kind == "backlog_growth"]
        assert alerts
        assert alerts[0].t_detect < kernel.now
        assert alerts[0].value > 20.0

    def test_shallow_backlog_below_floor_is_quiet(self):
        tel, kernel, monitor = self.make(backlog_depth_floor=1000.0)
        depth = tel.gauge("blackboard.fifo_depth", pid=1)
        state = {"d": 0.0}

        def load(now):
            state["d"] += 1.0
            depth.set(state["d"])

        _run_with_load(kernel, monitor, load)
        assert not [a for a in monitor.alerts if a.kind == "backlog_growth"]

    def test_load_imbalance_from_fabricated_spans(self):
        tel, kernel, monitor = self.make(imbalance_ratio_threshold=4.0)

        def load(now):
            # pid 1 busy the whole step, pids 2..9 a sliver each.
            span = tel.span("work", pid=1)
            span.t0 = now - 0.01
            span.end()
            for pid in range(2, 10):
                s = tel.span("work", pid=pid)
                s.t0 = now - 0.0001
                s.end()

        _run_with_load(kernel, monitor, load)
        kinds = monitor.by_kind()
        assert kinds.get("load_imbalance", 0) >= 1
        worst = next(a for a in monitor.alerts if a.kind == "load_imbalance")
        assert worst.detail["pid"] == 1

    def test_worker_starvation_lists_starved_pids(self):
        tel, kernel, monitor = self.make()

        def load(now):
            for pid in (1, 2):
                s = tel.span("work", pid=pid)
                s.t0 = now - 0.01
                s.end()
            s = tel.span("work", pid=3)  # pid 3 barely works
            s.t0 = now - 1e-7
            s.end()

        _run_with_load(kernel, monitor, load)
        starved = [a for a in monitor.alerts if a.kind == "worker_starvation"]
        assert starved and starved[0].detail["pids"] == [3]

    def test_critical_path_requires_two_layers(self):
        tel, kernel, monitor = self.make(critical_path_share=0.85)

        def one_layer(now):
            s = tel.span("x", pid=1, cat="stream")
            s.t0 = now - 0.01
            s.end()

        _run_with_load(kernel, monitor, one_layer)
        assert not [a for a in monitor.alerts if a.kind == "critical_path"]

        tel, kernel, monitor = self.make(critical_path_share=0.85)

        def two_layers(now):
            s = tel.span("x", pid=1, cat="stream")
            s.t0 = now - 0.01
            s.end()
            s = tel.span("y", pid=2, cat="analysis")
            s.t0 = now - 1e-5
            s.end()

        _run_with_load(kernel, monitor, two_layers)
        hits = [a for a in monitor.alerts if a.kind == "critical_path"]
        assert hits and hits[0].detail["layer"] == "stream"

    def test_cooldown_dedups_alert_storms(self):
        tel, kernel, monitor = self.make(
            eagain_rate_threshold=1.0, window=0.25, cooldown=10.0
        )
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(kernel, monitor, lambda now: eagain.inc(10))
        # The condition holds at every tick, but the 10s cooldown allows one.
        assert monitor.by_kind()["stream_stall"] == 1

    def test_quiet_run_raises_nothing(self):
        tel, kernel, monitor = self.make()
        _run_with_load(kernel, monitor, lambda now: None)
        assert monitor.alerts == []
        assert monitor.ticks > 0

    def test_summary_is_json_shaped(self):
        import json

        tel, kernel, monitor = self.make()
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(kernel, monitor, lambda now: eagain.inc(10))
        summary = monitor.summary()
        json.dumps(summary)  # must be serializable
        assert summary["ticks"] == monitor.ticks
        assert summary["series_tracked"] == len(monitor.timeline.series)
        assert "counter.stream.eagain_returns" in summary["series"]


# -- session integration --------------------------------------------------------------


def _session(with_monitor, seed=3, router=None, config=None):
    tel = Telemetry()
    session = CouplingSession(seed=seed, telemetry=tel)
    session.add_application(EulerMHD(8, grid=256, iterations=4), name="mhd")
    session.set_analyzer(nprocs=2)
    if with_monitor:
        session.enable_monitor(config=config, router=router)
    return session.run()


class TestSessionIntegration:
    def test_enable_monitor_requires_telemetry(self):
        session = CouplingSession(seed=1)
        with pytest.raises(ConfigError):
            session.enable_monitor()

    def test_enable_monitor_twice_rejected(self):
        session = CouplingSession(seed=1, telemetry=Telemetry())
        session.enable_monitor()
        with pytest.raises(ConfigError):
            session.enable_monitor()

    def test_monitor_on_off_bit_identical(self):
        plain = _session(False)
        watched = _session(
            True, config=MonitorConfig(interval=1e-4, window=5e-4)
        )
        assert watched.health["ticks"] > 0
        assert plain.apps["mhd"].walltime == watched.apps["mhd"].walltime
        assert plain.apps["mhd"].events == watched.apps["mhd"].events
        assert plain.analyzer_walltime == watched.analyzer_walltime
        # Whole rendered chapters match byte for byte.
        assert (
            plain.report.chapters[0].render()
            == watched.report.chapters[0].render()
        )

    def test_health_summary_reaches_result_and_report(self):
        result = _session(True, config=MonitorConfig(interval=1e-4, window=5e-4))
        assert result.health is not None
        assert result.report.health is result.health
        rendered = result.report.render()
        assert "## Health (online monitor)" in rendered

    def test_router_sees_alerts_live(self, monkeypatch):
        router = AlertRouter()
        live = []
        router.subscribe(live.append)
        # Tight thresholds so something certainly fires.
        monkeypatch.setattr(monitor_module, "CRITICAL_PATH_SHARE", 0.01)
        result = _session(
            True,
            router=router,
            config=MonitorConfig(interval=1e-4, window=5e-4),
        )
        assert live
        assert result.health["alerts"]
        end = result.world.kernel.now
        assert all(a.t_detect < end for a in live)

    def test_alerts_published_through_blackboard(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "CRITICAL_PATH_SHARE", 0.01)
        result = _session(True, config=MonitorConfig(interval=1e-4, window=5e-4))
        assert result.health["published_to_blackboard"] > 0
        ingest = result.analyzer_stats["health_ingest"]
        assert sum(ingest.values()) == result.health["published_to_blackboard"]
        assert result.health["by_kind"] == ingest


# -- paired cleared events ------------------------------------------------------------


class TestClearedEvents:
    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def make(self, **overrides):
        return _make(self.monkeypatch, **overrides)

    def test_windowed_alert_clears_when_condition_subsides(self):
        tel, kernel, monitor = self.make(eagain_rate_threshold=200.0)
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(
            kernel, monitor,
            lambda now: eagain.inc(10) if now < 0.4 else None,
        )
        kinds = monitor.by_kind()
        assert kinds.get("stream_stall", 0) >= 1
        cleared = [a for a in monitor.alerts if a.kind == "stream_stall.cleared"]
        assert len(cleared) == 1
        c = cleared[0]
        assert c.severity == "info"
        raised = [a for a in monitor.alerts if a.kind == "stream_stall"][-1]
        assert c.detail["raised_at"] == raised.t_detect
        assert c.detail["active_s"] == pytest.approx(
            c.t_detect - raised.t_detect
        )
        assert c.t_detect > raised.t_detect
        assert monitor.summary()["unresolved"] == []

    def test_still_firing_condition_reported_unresolved(self):
        tel, kernel, monitor = self.make(eagain_rate_threshold=200.0)
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(kernel, monitor, lambda now: eagain.inc(10))
        assert not [a for a in monitor.alerts if a.kind.endswith(".cleared")]
        assert monitor.summary()["unresolved"] == ["stream_stall"]

    def test_cooldown_suppressed_condition_does_not_clear(self):
        # The raise cooldown dedups alerts while the condition persists;
        # a suppressed-but-still-firing condition must not emit .cleared.
        tel, kernel, monitor = self.make(
            eagain_rate_threshold=1.0, cooldown=10.0
        )
        eagain = tel.counter("stream.eagain_returns")
        _run_with_load(kernel, monitor, lambda now: eagain.inc(10))
        assert monitor.by_kind()["stream_stall"] == 1
        assert not [a for a in monitor.alerts if a.kind.endswith(".cleared")]
        assert monitor.summary()["unresolved"] == ["stream_stall"]

    def test_fault_watch_kinds_never_clear(self):
        tel, kernel, monitor = self.make()
        timeouts = tel.counter("stream.write_timeouts")
        fired = {"done": False}

        def load(now):
            if now >= 0.2 and not fired["done"]:
                timeouts.inc()
                fired["done"] = True

        _run_with_load(kernel, monitor, load)
        assert monitor.by_kind().get("stream_write_timeout", 0) >= 1
        assert not [a for a in monitor.alerts if a.kind.endswith(".cleared")]
        assert monitor.summary()["unresolved"] == []

    def test_condition_reraises_after_clearing(self):
        tel, kernel, monitor = self.make(
            eagain_rate_threshold=200.0, cooldown=0.05
        )
        eagain = tel.counter("stream.eagain_returns")
        # Two separate storms with a quiet gap wide enough to clear.
        _run_with_load(
            kernel, monitor,
            lambda now: eagain.inc(10) if now < 0.3 or now > 1.0 else None,
            duration=1.4,
        )
        raised = [a for a in monitor.alerts if a.kind == "stream_stall"]
        cleared = [a for a in monitor.alerts if a.kind == "stream_stall.cleared"]
        assert len(cleared) >= 1
        assert len(raised) >= 2  # the second storm re-raises after the clear
        assert raised[0].t_detect < cleared[0].t_detect < raised[-1].t_detect


# -- the span walk is one pass; the alerts are the two-pass walk's -----------------


def test_alerts_on_an_observed_faulted_session_match_the_committed_list(watched_session):
    # The fixture file is the alert list of the tree where _busy_by_track and
    # _detect_critical_path each walked the windowed spans: kinds, order,
    # t_detect, values and detail, bit for bit.
    import json
    from pathlib import Path

    alerts = watched_session().run().health["alerts"]
    fixture = Path(__file__).parent / "fixtures" / "monitor_alerts_observed_faulted.json"
    expected = json.loads(fixture.read_text())
    assert {a["kind"] for a in expected} >= {"critical_path", "load_imbalance"}
    assert alerts == expected
