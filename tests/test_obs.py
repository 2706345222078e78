"""Unified observability bus: registry, bus fan-out, sinks, CLI, wiring."""

import contextlib
import io
import json
import re
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.obs.archive import ArchiveScan, iter_archive, iter_ndjson, read_records
from repro.obs.bus import ObservabilityBus
from repro.obs.registry import (
    HEALTH_SCHEMA, METRICS_SCHEMA, SCHEMAS, STEERING_SCHEMA, TELEMETRY_SCHEMA, make_record,
    record_time, screen,
)
from repro.obs.sinks import FileSink, RingSink, TailServer, parse_address
from repro.obs.__main__ import main as obs_main

pytestmark = pytest.mark.obs


def _window(t1=1.0, **extra):
    return make_record(METRICS_SCHEMA, "window", t0=t1 - 0.5, t1=t1, **extra)


# -- registry -----------------------------------------------------------------------


class TestRegistry:
    def test_all_five_schemas_registered(self):
        assert set(SCHEMAS) == {
            TELEMETRY_SCHEMA,
            "repro.hostprof/1",
            METRICS_SCHEMA,
            HEALTH_SCHEMA,
            STEERING_SCHEMA,
        }
        assert all(isinstance(kinds, frozenset) and kinds for kinds in SCHEMAS.values())
        with pytest.raises(TypeError):
            SCHEMAS["acme.metrics/9"] = frozenset({"blob"})  # read-only table

    def test_windowed_alert_kinds_pair_with_cleared_kinds(self):
        from repro.obs.registry import CLEARED_SUFFIX, WINDOWED_ALERT_KINDS

        health = SCHEMAS[HEALTH_SCHEMA]
        for kind in WINDOWED_ALERT_KINDS:
            assert kind in health and kind + CLEARED_SUFFIX in health
        cleared = {k for k in health if k.endswith(CLEARED_SUFFIX)}
        assert len(cleared) == len(WINDOWED_ALERT_KINDS)  # and only those

    def test_unknown_schema_lists_known(self):
        assert "repro.nonesuch/1" not in SCHEMAS
        with pytest.raises(ConfigError, match="repro.telemetry/1"):
            ObservabilityBus().add_sink(RingSink(8), schemas=["repro.nonesuch/1"])

    def test_make_record_key_order(self):
        record = make_record(METRICS_SCHEMA, "window", b=1, a=2)
        assert list(record) == ["schema", "kind", "b", "a"]

    def test_record_time_priority(self):
        assert record_time({"t_detect": 3.0, "t": 1.0}) == 3.0
        assert record_time({"t1": 2.0, "t0": 1.0}) == 2.0
        assert record_time({"note": "no clock"}) is None


# -- bus ----------------------------------------------------------------------------


class TestBus:
    def test_publish_counts_and_fanout(self):
        bus = ObservabilityBus()
        ring_a, ring_b = RingSink(8), RingSink(8)
        bus.add_sink(ring_a, name="all")
        bus.add_sink(ring_b, schemas=[HEALTH_SCHEMA], name="health-only")
        bus.publish(_window())
        bus.publish(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=1.0))
        assert bus.published == 2
        assert bus.count(METRICS_SCHEMA) == 1
        assert bus.count(HEALTH_SCHEMA, "stream_stall") == 1
        assert len(ring_a) == 2 and len(ring_b) == 1

    def test_malformed_record_rejected_at_publish(self):
        bus = ObservabilityBus()
        sink = RingSink(8)
        bus.add_sink(sink)
        with pytest.raises(ConfigError):
            bus.publish({"schema": "repro.nonesuch/1", "kind": "x"})
        with pytest.raises(ConfigError):
            bus.publish(make_record(METRICS_SCHEMA, "not_a_kind"))
        assert bus.rejected == 2
        assert bus.published == 0
        assert len(sink) == 0  # nothing malformed reached any sink

    def test_sink_exception_counted_not_raised(self):
        class Exploding:
            def emit(self, record):
                raise RuntimeError("boom")

        bus = ObservabilityBus()
        bus.add_sink(Exploding(), name="bad")
        bus.publish(_window())
        (stats,) = [b.stats() for b in bus.bindings]
        assert stats["errors"] == 1 and stats["delivered"] == 0

    def test_subscribing_unknown_schema_fails(self):
        bus = ObservabilityBus()
        with pytest.raises(ConfigError):
            bus.add_sink(RingSink(8), schemas=["repro.nonesuch/1"])

    def test_close_idempotent(self, tmp_path):
        bus = ObservabilityBus()
        bus.add_sink(FileSink(str(tmp_path / "out.ndjson")))
        bus.close()
        bus.close()


# -- file sink ----------------------------------------------------------------------


class TestFileSink:
    def test_emit_writes_pinned_bytes_flushed_per_record(self, tmp_path):
        path = tmp_path / "sink.ndjson"
        sink = FileSink(str(path))
        sink.emit(make_record(METRICS_SCHEMA, "window", index=0, t0=0.0, t1=0.5))
        # Read before close(): every record is flushed as it is written.
        assert path.read_bytes() == (
            b'{"schema": "repro.pop-metrics/1", "kind": "window", '
            b'"index": 0, "t0": 0.0, "t1": 0.5}\n'
        )
        sink.close()
        assert sink.stats()["bytes_written"] == path.stat().st_size

    def test_emit_after_close_raises(self, tmp_path):
        sink = FileSink(str(tmp_path / "out.ndjson"))
        sink.close()
        with pytest.raises(ConfigError):
            sink.emit(_window())


# -- ring sink ----------------------------------------------------------------------


class TestRingSink:
    def test_overflow_drop_oldest_accounting(self):
        ring = RingSink(capacity=3)
        for i in range(5):
            assert ring.emit(_window(t1=float(i), seq=i))
        assert len(ring) == 3
        assert ring.accepted == 5
        assert ring.evicted == 2
        assert [r["seq"] for r in ring.records()] == [2, 3, 4]
        assert ring.stats() == {"capacity": 3, "retained": 3, "evicted": 2}

    def test_query_filters(self):
        ring = RingSink(capacity=8)
        ring.emit(_window(t1=1.0))
        ring.emit(make_record(HEALTH_SCHEMA, "stream_stall", t_detect=2.0))
        ring.emit(make_record(STEERING_SCHEMA, "decision", t=3.0))
        assert len(list(ring.query(schema=HEALTH_SCHEMA))) == 1
        assert len(list(ring.query(kind="window"))) == 1
        # --since is inclusive and excludes time-less records
        assert [r["schema"] for r in ring.query(since=2.0)] == [
            HEALTH_SCHEMA,
            STEERING_SCHEMA,
        ]
        ring.emit(make_record(TELEMETRY_SCHEMA, "counter", name="n", value=1))
        assert all(
            r["kind"] != "counter" for r in ring.query(since=0.0)
        ), "time-less record must not pass a since filter"

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            RingSink(capacity=0)


# -- tail server --------------------------------------------------------------------


def _connect(server: TailServer) -> socket.socket:
    family, sockaddr = parse_address(server.address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(sockaddr)
    return sock


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _tail_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("obs-tail-")]


class TestTailServer:
    def test_live_client_receives_lines(self):
        server = TailServer("127.0.0.1:0")
        try:
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            records = [_window(t1=float(i)) for i in range(3)]
            for record in records:
                assert server.emit(record)
            fh = sock.makefile("rb")
            got = [json.loads(fh.readline()) for _ in records]
            assert got == records
            sock.close()
        finally:
            server.close()

    def test_no_clients_counts_delivered(self):
        server = TailServer("127.0.0.1:0")
        try:
            assert server.emit(_window())  # a file nobody reads, not a drop
        finally:
            server.close()

    def test_slow_client_drops_counted_publisher_unblocked(self):
        # Bound small enough that a couple of records overflow a client
        # that never reads.
        server = TailServer("127.0.0.1:0", max_pending_bytes=96)
        try:
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            t0 = time.monotonic()
            results = [
                server.emit(_window(t1=float(i), pad="x" * 64)) for i in range(50)
            ]
            elapsed = time.monotonic() - t0
            assert elapsed < 2.0, "publisher must never block on a slow client"
            assert not all(results), "overflowing client must surface drops"
            assert _wait_until(
                lambda: sum(c["dropped"] for c in server.stats()["clients"]) > 0
            )
            sock.close()
        finally:
            server.close()

    def test_unix_socket_roundtrip(self, tmp_path):
        path = str(tmp_path / "obs.sock")
        server = TailServer(path)
        try:
            assert server.address == path
            sock = _connect(server)
            assert _wait_until(lambda: server.stats()["clients_served"] == 1)
            record = make_record(HEALTH_SCHEMA, "backlog_growth", t_detect=1.5)
            server.emit(record)
            assert json.loads(sock.makefile("rb").readline()) == record
            sock.close()
        finally:
            server.close()
        assert not (tmp_path / "obs.sock").exists()

    def test_emit_after_close_raises(self):
        server = TailServer("127.0.0.1:0")
        server.close()
        with pytest.raises(ConfigError):
            server.emit(_window())

    def test_bad_address_rejected(self):
        with pytest.raises(ConfigError):
            parse_address("host:notaport")

    @pytest.mark.parametrize("listener_shutdown_works", [True, False])
    def test_close_joins_accept_thread(self, monkeypatch, listener_shutdown_works):
        if not listener_shutdown_works:  # the BSD path: wake by self-connect
            def refuse(self, how):
                raise OSError("shutdown on a listening socket")

            monkeypatch.setattr(socket.socket, "shutdown", refuse)
        server = TailServer("127.0.0.1:0")
        time.sleep(0.1)  # let the acceptor block in accept(): that is the leak
        server.close()
        assert _tail_threads() == []

    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_session_leaves_no_tail_thread(self, tmp_path, kind):
        from repro.apps.nas.adi import SP
        from repro.core.session import CouplingSession
        from repro.telemetry.core import Telemetry

        address = "127.0.0.1:0" if kind == "tcp" else str(tmp_path / "obs.sock")
        session = CouplingSession(telemetry=Telemetry(), seed=3)
        session.add_application(SP(4, "C", iterations=1), name="sp")
        session.set_analyzer(ratio=4.0)
        session.enable_observability(tail=address)
        sock = _connect(session.obs_tail)
        assert _wait_until(lambda: session.obs_tail.stats()["clients_served"] == 1)
        result = session.run()
        assert result.obs["published"] > 0
        # The connected client got the feed, then EOF when the bus closed.
        lines = sock.makefile("rb").read().splitlines()
        sock.close()
        assert len(lines) == result.obs["published"]
        assert _tail_threads() == []


# -- torn-tail NDJSON reading -------------------------------------------------------


class TestIterNdjson:
    def test_offsets_resume(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [_window(t1=float(i)) for i in range(3)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        pairs = list(iter_ndjson(path, tail=True))
        assert [r for _o, r in pairs] == records
        # Resume from the middle offset: only the later records re-read.
        offset = pairs[0][0]
        rest = list(iter_ndjson(path, tail=True, start=offset))
        assert [r for _o, r in rest] == records[1:]

    def test_tail_tolerates_one_trailing_partial(self, tmp_path):
        path = tmp_path / "s.ndjson"
        whole = json.dumps(_window(t1=1.0)) + "\n"
        path.write_text(whole + '{"schema": "repro.pop-m')  # torn mid-flush
        pairs = list(iter_ndjson(path, tail=True))
        assert len(pairs) == 1
        # The writer finishes the line: resuming picks the record up.
        path.write_text(whole + json.dumps(_window(t1=2.0)) + "\n")
        resumed = list(iter_ndjson(path, tail=True, start=pairs[0][0]))
        assert [r["t1"] for _o, r in resumed] == [2.0]

    def test_newline_terminated_garbage_raises_in_both_modes(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps(_window()) + "\n" + "garbage\n")
        with pytest.raises(ConfigError):
            list(iter_ndjson(path, tail=True))
        with pytest.raises(ConfigError):
            list(iter_ndjson(path))

    def test_non_tail_mode_fails_on_torn_tail(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps(_window()))  # no trailing newline
        with pytest.raises(ConfigError, match="tail=True"):
            list(iter_ndjson(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.ndjson"
        path.write_text("")
        assert list(iter_ndjson(path)) == []
        assert list(iter_ndjson(path, tail=True)) == []


class TestReadRecords:
    """The strict loader: every record interpretable, or a ConfigError."""

    def _write(self, path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.ndjson"
        records = [_window(t1=1.0), make_record(HEALTH_SCHEMA, "stream_stall")]
        self._write(path, records)
        assert read_records(path) == records

    @pytest.mark.parametrize(
        "record",
        [
            {"schema": "other/1", "kind": "window"},
            {"schema": METRICS_SCHEMA, "kind": "mystery"},
            {"schema": METRICS_SCHEMA},
            {"kind": "window"},
            ["not", "an", "object"],
            17,
        ],
    )
    def test_rejects_uninterpretable_record(self, tmp_path, record):
        path = tmp_path / "s.ndjson"
        self._write(path, [_window(), record])
        with pytest.raises(ConfigError, match=r"s\.ndjson:\+\d+"):
            read_records(path)

    def test_schema_argument_rejects_other_registered_schemas(self, tmp_path):
        path = tmp_path / "s.ndjson"
        self._write(path, [_window(), make_record(HEALTH_SCHEMA, "stream_stall")])
        assert len(read_records(path)) == 2
        with pytest.raises(ConfigError, match="expected"):
            read_records(path, schema=METRICS_SCHEMA)


# -- archive query + CLI ------------------------------------------------------------


def _archive(tmp_path):
    run = tmp_path / "run1"
    run.mkdir()
    records = [
        _window(t1=1.0),
        _window(t1=2.0),
        make_record(HEALTH_SCHEMA, "stream_stall", t_detect=2.0),
        make_record(STEERING_SCHEMA, "decision", t=2.5),
    ]
    (run / "unified.ndjson").write_text(
        "".join(json.dumps(r) + "\n" for r in records)
    )
    (run / "foreign.jsonl").write_text(
        json.dumps({"schema": "acme.metrics/9", "kind": "blob"}) + "\n"
    )
    return run, records


class TestArchive:
    def test_iter_archive_filters_and_counts_unknown(self, tmp_path):
        run, records = _archive(tmp_path)
        scan = ArchiveScan()
        got = list(iter_archive([run], schema=METRICS_SCHEMA, scan=scan))
        assert got == records[:2]
        assert scan.unknown_schemas == {"acme.metrics/9": 1}
        assert scan.files_scanned == 2

    def test_since_boundary_inclusive(self, tmp_path):
        run, _records = _archive(tmp_path)
        got = list(iter_archive([run], since=2.0))
        assert {record_time(r) for r in got} == {2.0, 2.5}

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            list(iter_archive([tmp_path / "nope"]))


# (record, the label screen gives it, the ConfigError ObservabilityBus.publish
# raised for it while the bus ran a second copy of the rule).  The last
# column is history: publish now names the label instead.
_REFUSALS = [
    (
        {"schema": "acme.metrics/9", "kind": "blob"},
        "acme.metrics/9",
        "unknown schema 'acme.metrics/9'; known: repro.health/1, repro.hostprof/1, "
        "repro.pop-metrics/1, repro.steering/1, repro.telemetry/1",
    ),
    ({"kind": "window"}, "<missing>", "record carries no schema tag: {'kind': 'window'}"),
    (
        {"schema": 7, "kind": "window"},
        "<missing>",
        "record carries no schema tag: {'schema': 7, 'kind': 'window'}",
    ),
    ([1, 2], "<missing>", "observability record must be a dict, got list"),
    (None, "<missing>", "observability record must be a dict, got NoneType"),
    (
        {"schema": METRICS_SCHEMA},
        "repro.pop-metrics/1:<missing>",
        "schema 'repro.pop-metrics/1' has no record kind None (known: phase, run_summary, window)",
    ),
    (
        {"schema": METRICS_SCHEMA, "kind": ["window"]},
        "repro.pop-metrics/1:<missing>",
        "schema 'repro.pop-metrics/1' has no record kind ['window'] "
        "(known: phase, run_summary, window)",
    ),
    (
        {"schema": METRICS_SCHEMA, "kind": "span"},
        "repro.pop-metrics/1:span",
        "schema 'repro.pop-metrics/1' has no record kind 'span' "
        "(known: phase, run_summary, window)",
    ),
]


def _assert_publish_agrees_with_screen(record):
    """The bus refuses exactly what screen labels, names the label, counts it."""
    bus = ObservabilityBus()
    label = screen(record)
    if label is None:
        bus.publish(record)
        assert (bus.published, bus.rejected) == (1, 0)
        return
    with pytest.raises(ConfigError, match=re.escape(f"({label})")):
        bus.publish(record)
    assert (bus.published, bus.rejected) == (0, 1)


class TestScreen:
    def test_accepts_what_the_bus_accepts(self):
        assert screen(_window()) is None
        assert screen(make_record(HEALTH_SCHEMA, "stream_stall.cleared")) is None

    @pytest.mark.parametrize("record, label", [case[:2] for case in _REFUSALS])
    def test_labels_what_it_refuses(self, record, label):
        assert screen(record) == label
        _assert_publish_agrees_with_screen(record)

    @pytest.mark.parametrize("record, label, before", _REFUSALS)
    def test_publish_error_now_names_the_label(self, record, label, before):
        with pytest.raises(ConfigError) as excinfo:
            ObservabilityBus().publish(record)
        assert str(excinfo.value) == f"uninterpretable record ({label}): {record!r:.120}"
        assert str(excinfo.value) != before


# Lines a hostile or half-written archive can hold.  The readers owe the
# caller a typed ConfigError or a clean result — never another exception.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_tags = st.sampled_from([*sorted(SCHEMAS), "acme.metrics/9", "", "repro.telemetry/2"])
_kinds = st.sampled_from(["window", "span", "decision", "stream_stall", "meta", "nope"])
_lines = st.one_of(
    _json_values.map(json.dumps),
    st.fixed_dictionaries(
        {}, optional={"schema": _tags | _json_values, "kind": _kinds | _json_values}
    ).map(json.dumps),
    st.builds(lambda k: json.dumps(_window(t1=1.0) | {"kind": k}), _kinds),
    st.sampled_from(["", "   ", "not json", '{"schema": "repro.pop-m']),
).map(str.encode) | st.sampled_from([b"\xff\xfe", b'{"schema": "\xc3'])


class TestHostileArchives:
    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(_lines, max_size=8), torn=st.booleans())
    def test_readers_raise_config_error_or_succeed(self, lines, torn):
        blob = b"\n".join(lines) + (b"" if torn or not lines else b"\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.ndjson"
            path.write_bytes(blob)
            try:
                for record in read_records(path):
                    assert screen(record) is None
            except ConfigError:
                pass
            scan = ArchiveScan()
            try:
                for record in iter_archive([path], scan=scan):
                    assert screen(record) is None
            except ConfigError:
                pass
            assert sum(scan.unknown_schemas.values()) <= scan.records_read
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert obs_main(["summary", str(path)]) in (0, 1)
                assert obs_main(["tail", str(path)]) in (0, 1)

    @settings(max_examples=150, deadline=None)
    @given(line=_lines)
    def test_publish_refuses_exactly_what_screen_labels(self, line):
        try:
            record = json.loads(line)
        except ValueError:
            return  # not a record at all: no reader hands it to anyone
        _assert_publish_agrees_with_screen(record)


# ``python -m repro.obs schemas`` as printed while a registry object held the
# table; the output is a contract and must not move by a byte.
_SCHEMAS_STDOUT = "\n".join(
    [
        'Registered schemas',
        'schema               kinds                                                                                                                                                                                                                                                                                                                                                                                                   description                                            ',
        '-------------------  ------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------------  -------------------------------------------------------',
        '     repro.health/1  analyzer_crash, analyzer_failover, analyzer_stall, backlog_growth, backlog_growth.cleared, critical_path, critical_path.cleared, link_degraded, load_imbalance, load_imbalance.cleared, message_rate, pack_checksum_reject, pack_corruption, pack_drop, silence, stream_overflow_drop, stream_stall, stream_stall.cleared, stream_write_timeout, waiting, worker_starvation, worker_starvation.cleared                online health alerts (raised and cleared)',
        '   repro.hostprof/1                                                                                                                                                                                                                                                                                                                                                                   count, gc, meta, process, span, timer    host-time self-profiling (wall-clock timers, GC, RSS)',
        'repro.pop-metrics/1                                                                                                                                                                                                                                                                                                                                                                              phase, run_summary, window          time-resolved POP efficiency windows and phases',
        '   repro.steering/1                                                                                                                                                                                                                                                                                                                                                                                                decision                       adaptive-steering decision journal',
        '  repro.telemetry/1                                                                                                                                                                                                                                                                                                                                                          counter, flow, gauge, histogram, instant, span  virtual-time spans, counters, gauges, histograms, flows',
        '',
    ]
)


class TestCli:
    def test_query_counts(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["query", str(run), "--schema", METRICS_SCHEMA, "--count"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_query_since_boundary(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["query", str(run), "--since", "2.0"]) == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert {record_time(r) for r in out} == {2.0, 2.5}

    def test_query_reports_foreign_schema_on_stderr(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        obs_main(["query", str(run)])
        assert "acme.metrics/9" in capsys.readouterr().err

    def test_tail_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert obs_main(["tail", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_tail_file_filters(self, tmp_path, capsys):
        run, records = _archive(tmp_path)
        assert (
            obs_main(
                ["tail", str(run / "unified.ndjson"), "--kind", "decision"]
            )
            == 0
        )
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out == [records[3]]

    def test_tail_file_skips_foreign_schema_unless_strict(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["tail", str(run / "foreign.jsonl")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "acme.metrics/9" in captured.err
        assert obs_main(["tail", str(run / "foreign.jsonl"), "--strict"]) == 1

    def test_tail_socket(self, tmp_path, capsys):
        server = TailServer("127.0.0.1:0")
        record = make_record(HEALTH_SCHEMA, "stream_stall", t_detect=1.0)

        def feed():
            _wait_until(lambda: server.stats()["clients_served"] == 1)
            server.emit(record)
            _wait_until(
                lambda: sum(c["sent"] for c in server.stats()["clients"]) == 1
            )
            server.close()  # EOF ends the client tail

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            assert obs_main(["tail", server.address, "--schema", HEALTH_SCHEMA]) == 0
        finally:
            feeder.join()
            server.close()
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out == [record]

    def test_summary_table(self, tmp_path, capsys):
        run, _ = _archive(tmp_path)
        assert obs_main(["summary", str(run)]) == 0
        out = capsys.readouterr().out
        assert METRICS_SCHEMA in out and "window" in out

    def test_schemas_lists_registry(self, capsys):
        assert obs_main(["schemas"]) == 0
        assert capsys.readouterr().out == _SCHEMAS_STDOUT

    def test_error_exit_code(self, tmp_path, capsys):
        assert obs_main(["query", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, content, code, stderr",
        [
            (["tail", "127.0.0.1:1"], None, 1, "error: cannot connect to 127.0.0.1:1"),
            (["tail", "{missing}"], None, 1, "error: cannot connect to"),
            (["summary", "{file}"], {"schema": TELEMETRY_SCHEMA}, 0, "<missing>"),
            (
                ["query", "{file}"],
                {"schema": TELEMETRY_SCHEMA, "kind": "window"},
                0,
                "repro.telemetry/1:window",
            ),
        ],
    )
    def test_bad_input_is_one_line_not_a_traceback(
        self, tmp_path, capsys, command, content, code, stderr
    ):
        path = tmp_path / "s.ndjson"
        if content is not None:
            path.write_text(json.dumps(_window()) + "\n" + json.dumps(content) + "\n")
        argv = [
            a.format(file=path, missing=tmp_path / "no" / "such" / "path")
            for a in command
        ]
        assert obs_main(argv) == code
        captured = capsys.readouterr()
        assert stderr in captured.err and "Traceback" not in captured.err
        # The bad record is counted and skipped; its good neighbour survives.
        assert json.dumps(content) not in captured.out
        if content is not None:
            assert "window" in captured.out

    def test_tail_strict_fails_on_foreign_kind(self, tmp_path, capsys):
        path = tmp_path / "s.ndjson"
        path.write_text(json.dumps({"schema": TELEMETRY_SCHEMA, "kind": "window"}) + "\n")
        assert obs_main(["tail", str(path)]) == 0
        assert obs_main(["tail", str(path), "--strict"]) == 1
        assert "repro.telemetry/1:window" in capsys.readouterr().err


# -- session wiring -----------------------------------------------------------------


class TestSessionWiring:
    @pytest.fixture(scope="class")
    def session_pair(self, tmp_path_factory):
        from repro.apps.nas.adi import SP
        from repro.core.session import CouplingSession
        from repro.telemetry.core import Telemetry
        from repro.telemetry.popmetrics import PopConfig

        tmp = tmp_path_factory.mktemp("obs_session")

        def build():
            session = CouplingSession(telemetry=Telemetry(), seed=3)
            session.add_application(SP(16, "C", iterations=2), name="sp")
            session.set_analyzer(ratio=4.0)
            session.enable_monitor()
            session.enable_pop_metrics(PopConfig(window=0.5))
            session.enable_steering()
            return session

        off = build()
        r_off = off.run()
        on = build()
        on.enable_observability(str(tmp / "unified.ndjson"))
        r_on = on.run()
        return tmp, r_off, on, r_on

    def test_bus_run_bit_identical(self, session_pair):
        _tmp, r_off, _on, r_on = session_pair
        assert r_off.apps["sp"].walltime == r_on.apps["sp"].walltime
        assert r_off.analyzer_walltime == r_on.analyzer_walltime

    def test_result_and_report_carry_summary(self, session_pair):
        _tmp, _r_off, _on, r_on = session_pair
        assert r_on.obs is not None
        assert r_on.obs["published"] > 0 and r_on.obs["rejected"] == 0
        assert "## Observability" in r_on.report.render()

    def test_ring_queryable_after_run(self, session_pair):
        _tmp, _r_off, on, r_on = session_pair
        ring = on.obs_ring
        assert ring is not None and len(ring) > 0
        assert len(list(ring.query(schema=TELEMETRY_SCHEMA))) == sum(
            r_on.obs["schemas"][TELEMETRY_SCHEMA].values()
        )

    def test_double_enable_rejected(self, session_pair):
        _tmp, _r_off, on, _r_on = session_pair
        with pytest.raises(ConfigError):
            on.enable_observability()


# -- bench compare schema warning ---------------------------------------------------


class TestCompareSchemaWarning:
    def test_unknown_baseline_schema_warns_not_fails(self):
        from repro.bench.compare import compare_bench

        base = {
            "experiment": "obs",
            "columns": ["schema", "bus_records"],
            "rows": [["repro.telemetry/1", 3]],
            "bus": {"schemas": {"repro.retired-plane/1": {"x": 1}}},
            "records": [{"schema": "repro.retired-plane/1", "kind": "x"}],
        }
        cand = {
            "experiment": "obs",
            "columns": ["schema", "bus_records"],
            "rows": [["repro.telemetry/1", 3]],
        }
        cmp = compare_bench(base, cand)
        assert cmp.ok
        assert any("repro.retired-plane/1" in w for w in cmp.warnings)

    def test_known_schemas_no_warning(self):
        from repro.bench.compare import compare_bench

        base = {
            "experiment": "obs",
            "columns": ["schema"],
            "rows": [["repro.telemetry/1"]],
            "bus": {"schemas": {TELEMETRY_SCHEMA: {"span": 1}}},
        }
        cmp = compare_bench(base, dict(base))
        assert cmp.ok and not any("schema tag" in w for w in cmp.warnings)
