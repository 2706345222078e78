"""Extension modules: the OTF2 selective-trace proxy and real-time alerts."""

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.analysis import (
    Alert,
    AlertConfig,
    AlertMonitor,
    AnalysisConfig,
    OTF2Proxy,
    SelectionConfig,
)
from repro.instrument.events import CALL_IDS
from repro.iosim import ParallelFS
from repro.simt import Kernel


def events(rows):
    """Build a structured event array from (name, peer, tag, nbytes, t0, t1)."""
    from repro.instrument.events import CALL_IDS, EVENT_DTYPE

    arr = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (name, peer, tag, nbytes, t0, t1) in enumerate(rows):
        arr[i] = (CALL_IDS[name], 0, peer, tag, 4, nbytes, t0, t1)
    return arr


class TestSelectionConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SelectionConfig(calls=frozenset({"MPI_Nope"}))
        with pytest.raises(ConfigError):
            SelectionConfig(rank_lo=-1)
        with pytest.raises(ConfigError):
            SelectionConfig(rank_lo=4, rank_hi=2)
        with pytest.raises(ConfigError):
            SelectionConfig(t_min=5.0, t_max=1.0)

    def test_call_table_marks_selected_ids(self):
        cfg = SelectionConfig(calls=frozenset({"MPI_Send", "MPI_Recv"}))
        table = cfg.call_table
        assert table.shape == (1 << 16,)  # every representable <u2 call id
        assert np.flatnonzero(table).tolist() == sorted(
            [CALL_IDS["MPI_Send"], CALL_IDS["MPI_Recv"]]
        )
        assert cfg.call_table is table  # built once per config
        assert SelectionConfig(calls=None).call_table is None


class TestOTF2Proxy:
    def test_selects_by_call(self):
        proxy = OTF2Proxy("app", 4, SelectionConfig(calls=frozenset({"MPI_Send"})))
        proxy.update(0, events([
            ("MPI_Send", 1, 0, 10, 0.0, 0.1),
            ("MPI_Allreduce", -1, -1, 8, 0.2, 0.3),
        ]))
        assert proxy.events_selected == 1
        assert proxy.selectivity == pytest.approx(0.5)

    def test_selects_by_rank_window(self):
        cfg = SelectionConfig(calls=None, rank_lo=1, rank_hi=2)
        proxy = OTF2Proxy("app", 4, cfg)
        proxy.update(0, events([("MPI_Send", 1, 0, 10, 0.0, 0.1)]))
        proxy.update(1, events([("MPI_Send", 2, 0, 10, 0.0, 0.1)]))
        assert proxy.events_selected == 1

    def test_selects_by_time_window(self):
        cfg = SelectionConfig(calls=None, t_min=1.0, t_max=2.0)
        proxy = OTF2Proxy("app", 2, cfg)
        proxy.update(0, events([
            ("MPI_Send", 1, 0, 10, 0.5, 0.6),   # before window
            ("MPI_Send", 1, 0, 10, 1.2, 1.3),   # inside
            ("MPI_Send", 1, 0, 10, 1.9, 2.4),   # straddles the end -> dropped
        ]))
        assert proxy.events_selected == 1

    def test_serialize_roundtrip(self):
        proxy = OTF2Proxy("app", 4)
        proxy.update(2, events([("MPI_Send", 1, 7, 99, 0.0, 0.5)] * 3))
        proxy.update(3, events([("MPI_Irecv", 2, 7, 99, 0.0, 0.5)]))
        blob = proxy.serialize()
        assert len(blob) == proxy.trace_bytes()
        back = OTF2Proxy.deserialize(blob)
        assert set(back) == {2, 3}
        assert len(back[2]) == 3 and len(back[3]) == 1
        assert back[2]["nbytes"][0] == 99

    def test_deserialize_rejects_garbage(self):
        with pytest.raises(ReproError):
            OTF2Proxy.deserialize(b"nope")
        with pytest.raises(ReproError):
            OTF2Proxy.deserialize(b"\x00" * 32)

    def test_merge(self):
        a = OTF2Proxy("x", 2)
        b = OTF2Proxy("x", 2)
        a.update(0, events([("MPI_Send", 1, 0, 8, 0, 1)]))
        b.update(1, events([("MPI_Send", 0, 0, 8, 0, 1)]))
        a.merge(b)
        assert a.events_selected == 2
        with pytest.raises(ReproError):
            a.merge(OTF2Proxy("y", 2))

    def test_write_through_fs(self, machine):
        kernel = Kernel()
        fs = ParallelFS(kernel, machine, job_cores=4)
        proxy = OTF2Proxy("app", 2)
        proxy.update(0, events([("MPI_Send", 1, 0, 8, 0, 1)] * 10))
        proc = kernel.spawn(proxy.write_through(fs, "sel.otf2"))
        kernel.run()
        assert proc.value == proxy.trace_bytes()
        assert fs.bytes_written == proxy.trace_bytes()
        assert fs.metadata_ops == 2

    def test_available_as_engine_module(self):
        from repro.analysis.engine import AnalyzerEngine

        cfg = AnalysisConfig(modules=("profile", "otf2proxy"))
        engine = AnalyzerEngine([("app", 4)], cfg)
        assert "otf2proxy" in engine.states["app"]


class TestAlertConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            AlertConfig(wait_threshold=0)
        with pytest.raises(ConfigError):
            AlertConfig(rate_threshold=-1)
        with pytest.raises(ConfigError):
            AlertConfig(window=0)


class TestAlertMonitor:
    def test_waiting_alert(self):
        monitor = AlertMonitor("app", 2, AlertConfig(wait_threshold=0.5, window=0.01))
        raised = monitor.update(0, events([
            ("MPI_Wait", -1, -1, 0, 0.0, 0.9),
            ("MPI_Send", 1, 0, 8, 0.9, 1.0),
        ]))
        assert len(raised) == 1
        assert raised[0].kind == "waiting" and raised[0].rank == 0
        assert "waiting" in raised[0].describe()

    def test_no_alert_below_threshold(self):
        monitor = AlertMonitor("app", 2, AlertConfig(wait_threshold=0.99))
        raised = monitor.update(0, events([
            ("MPI_Wait", -1, -1, 0, 0.0, 0.1),
            ("MPI_Send", 1, 0, 8, 0.1, 1.0),
        ]))
        assert raised == []

    def test_message_rate_alert(self):
        monitor = AlertMonitor(
            "app", 2, AlertConfig(rate_threshold=10.0, window=0.01)
        )
        burst = events([("MPI_Send", 1, 0, 8, 0.0, 0.001)] * 50)
        raised = monitor.update(1, burst)
        assert any(a.kind == "message_rate" for a in raised)

    def test_silence_alert_on_finalize(self):
        monitor = AlertMonitor("app", 2, AlertConfig(silence_threshold=1.0))
        monitor.update(0, events([("MPI_Send", 1, 0, 8, 0.0, 0.1)]))
        monitor.update(1, events([("MPI_Send", 0, 0, 8, 0.0, 9.9)]))
        raised = monitor.finalize(t_end=10.0)
        assert [a.rank for a in raised] == [0]
        assert raised[0].kind == "silence"

    def test_dedup_within_window(self):
        monitor = AlertMonitor("app", 1, AlertConfig(wait_threshold=0.5, window=0.5))
        first = monitor.update(0, events([("MPI_Wait", -1, -1, 0, 0.0, 1.0)]))
        # A second offending batch inside the suppression horizon is deduped.
        again = monitor.update(0, events([("MPI_Wait", -1, -1, 0, 1.0, 1.4)]))
        later = monitor.update(0, events([("MPI_Wait", -1, -1, 0, 2.0, 3.0)]))
        assert len(first) == 1
        assert len(again) == 0
        assert len(later) == 1

    def test_merge_and_by_kind(self):
        a = AlertMonitor("x", 2)
        b = AlertMonitor("x", 2)
        a.alerts.append(Alert("waiting", "x", 0, 1.0, 0.9, 0.6))
        b.alerts.append(Alert("silence", "x", 1, 2.0, 9.0, 5.0))
        a.merge(b)
        assert a.by_kind() == {"waiting": 1, "silence": 1}

    def test_engine_integration(self):
        from repro.analysis.engine import AnalyzerEngine
        from repro.instrument.packer import EventPackBuilder
        from repro.mpi.pmpi import CallRecord

        cfg = AnalysisConfig(modules=("alerts",))
        engine = AnalyzerEngine([("app", 4)], cfg)
        pb = EventPackBuilder(app_id=0, rank=0)
        pb.add(CallRecord("MPI_Wait", 0.0, 0.95, 0, 0, 4, peer=-1, tag=-1, nbytes=0))
        engine.ingest(pb.emit())
        monitor = engine.states["app"]["alerts"]
        assert monitor.by_kind().get("waiting", 0) >= 1
