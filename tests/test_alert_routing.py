"""AlertRouter fan-out: application alerts and health alerts on one bus."""

import numpy as np
import pytest

from repro.analysis.alerts import Alert, AlertConfig, AlertMonitor, AlertRouter
from repro.errors import ConfigError, ReproError
from repro.instrument.events import CALL_IDS, EVENT_DTYPE
from repro.telemetry.monitor import HealthAlert


def make_alert(kind="waiting", rank=0, t=1.0):
    return Alert(kind=kind, app="A", rank=rank, t_detect=t, value=0.9, threshold=0.5)


class TestAlertRouter:
    def test_rejects_bad_history_and_handler(self):
        with pytest.raises(ConfigError):
            AlertRouter(history=0)
        with pytest.raises(ConfigError):
            AlertRouter().subscribe("not-callable")

    def test_route_requires_kind(self):
        with pytest.raises(ReproError):
            AlertRouter().route(object())

    def test_fan_out_by_kind(self):
        router = AlertRouter()
        everything, waiting_only = [], []
        router.subscribe(everything.append)
        router.subscribe(waiting_only.append, kind="waiting")
        a = make_alert("waiting")
        b = make_alert("message_rate")
        router.route(a)
        router.route(b)
        assert everything == [a, b]
        assert waiting_only == [a]
        assert router.routed == 2
        assert router.by_kind() == {"waiting": 1, "message_rate": 1}

    def test_history_is_bounded(self):
        router = AlertRouter(history=3)
        for i in range(10):
            router.route(make_alert(t=float(i)))
        assert len(router.alerts) == 3
        assert router.dropped == 7
        assert router.routed == 10
        assert [a.t_detect for a in router.alerts] == [7.0, 8.0, 9.0]

    def test_mixed_alert_types_share_the_bus(self):
        router = AlertRouter()
        seen = []
        router.subscribe(seen.append, kind="stream_stall")
        router.route(make_alert("waiting"))
        health = HealthAlert(
            kind="stream_stall", t_detect=2.0, severity="warn",
            value=500.0, threshold=200.0,
        )
        router.route(health)
        assert seen == [health]
        assert router.by_kind() == {"waiting": 1, "stream_stall": 1}


def _events(rows):
    """rows: (call_name, t_start, t_end) tuples -> structured event array."""
    out = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (call, t0, t1) in enumerate(rows):
        out[i]["call"] = CALL_IDS[call]
        out[i]["t_start"] = t0
        out[i]["t_end"] = t1
    return out


class TestAlertMonitorRouting:
    def test_update_routes_through_router(self):
        router = AlertRouter()
        monitor = AlertMonitor(
            "A", 4, config=AlertConfig(wait_threshold=0.5, window=0.1),
            router=router,
        )
        # One rank spends an entire 0.1s window inside MPI_Recv.
        raised = monitor.update(1, _events([("MPI_Recv", 0.0, 0.1)]))
        assert [a.kind for a in raised] == ["waiting"]
        assert router.alerts == raised
        assert monitor.alerts == raised

    def test_finalize_routes_silence(self):
        router = AlertRouter()
        monitor = AlertMonitor(
            "A", 2, config=AlertConfig(silence_threshold=1.0), router=router,
        )
        monitor.update(0, _events([("MPI_Send", 0.0, 0.01)]))
        raised = monitor.finalize(t_end=5.0)
        assert [a.kind for a in raised] == ["silence"]
        assert router.by_kind()["silence"] == 1

    def test_routerless_monitor_still_records(self):
        monitor = AlertMonitor(
            "A", 4, config=AlertConfig(wait_threshold=0.5, window=0.1)
        )
        raised = monitor.update(1, _events([("MPI_Recv", 0.0, 0.1)]))
        assert monitor.alerts == raised
