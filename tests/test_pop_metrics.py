"""Time-resolved POP efficiency metrics: windowing, telescoping sums,
online phase detection, NDJSON streaming export, bit-identity."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import AppKernel
from repro.apps.nas.adi import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError, SimulationError
from repro.simt.kernel import Kernel
from repro.obs.archive import read_records
from repro.obs.registry import METRICS_SCHEMA, make_record
from repro.obs.sinks import FileSink, RingSink
from repro.telemetry.core import Telemetry
from repro.telemetry.popmetrics import (
    METRIC_KEYS,
    SUM_KEYS,
    PopConfig,
    PopMetricsEngine,
    metrics_from_sums,
)

pytestmark = pytest.mark.metrics


def _session(telemetry=None, seed=7, iterations=3):
    from repro.instrument.overhead import InstrumentationCost

    session = CouplingSession(
        seed=seed,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        telemetry=telemetry,
    )
    name = session.add_application(SP(16, "C", iterations=iterations), name="sp")
    session.set_analyzer(nprocs=4)
    return session, name


class TwoPhase(AppKernel):
    """Synthetic workload with a sharp efficiency cliff at a known time.

    Phase A: balanced compute-heavy iterations (PE near 1).  Phase B:
    imbalanced compute plus chatty collectives (PE collapses).  The
    change-point detector must find the seam.
    """

    name = "TWOPHASE"

    def __init__(self, nprocs=8, iters_a=40, iters_b=40):
        super().__init__(nprocs, iters_a + iters_b)
        self.iters_a = iters_a
        self.iters_b = iters_b

    def main(self, mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        for _ in range(self.iters_a):
            yield from mpi.compute(2e-3)
            yield from comm.allreduce(nbytes=8)
        for _ in range(self.iters_b):
            # Rank-dependent compute spread: load balance degrades.
            yield from mpi.compute(2e-4 + 6e-4 * comm.rank / comm.size)
            for _ in range(4):
                yield from comm.allreduce(nbytes=65536)
        yield from mpi.finalize()


# -- configuration surface ---------------------------------------------------------


def test_pop_config_validation():
    with pytest.raises(ConfigError):
        PopConfig(window=0.0)
    with pytest.raises(ConfigError):
        PopConfig(signal="walltime")
    with pytest.raises(ConfigError):
        PopConfig(min_phase_windows=0)
    with pytest.raises(ConfigError):
        PopConfig(z_threshold=0.0)
    with pytest.raises(ConfigError):
        PopConfig(confirm_windows=0)
    PopConfig()  # defaults are valid


def test_engine_requires_live_telemetry():
    from repro.telemetry.core import NULL_TELEMETRY

    with pytest.raises(ConfigError):
        PopMetricsEngine(NULL_TELEMETRY)
    session, _ = _session(telemetry=None)  # NULL_TELEMETRY session
    with pytest.raises(ConfigError):
        session.enable_pop_metrics()


def test_double_enable_and_double_attach_error():
    session, _ = _session(telemetry=Telemetry())
    session.enable_pop_metrics()
    with pytest.raises(ConfigError):
        session.enable_pop_metrics()
    tel = Telemetry()
    engine = PopMetricsEngine(tel)
    kernel = Kernel(telemetry=tel)
    engine.attach(kernel)
    with pytest.raises(ConfigError):
        engine.attach(kernel)
    with pytest.raises(ConfigError):  # foreign telemetry rejected
        PopMetricsEngine(Telemetry()).attach(kernel)


def test_sink_requires_emit():
    engine = PopMetricsEngine(Telemetry())
    with pytest.raises(ConfigError):
        engine.add_sink(object())

    class NotCallable:
        emit = None

    with pytest.raises(ConfigError):
        engine.add_sink(NotCallable())


# -- the metric math ---------------------------------------------------------------


def test_metrics_from_sums_empty_is_zero():
    zeros = metrics_from_sums({})
    assert set(zeros) == set(METRIC_KEYS)
    assert all(v == 0.0 for v in zeros.values())
    # Ranks that never became active are filtered the same way.
    idle = {"a/0": {k: 0.0 for k in SUM_KEYS}}
    assert metrics_from_sums(idle) == zeros


def test_pop_identity_holds_by_construction():
    per_rank = {
        "a/0": dict(active_s=1.0, useful_s=0.9, mpi_s=0.1, instr_s=0.0, stall_s=0.0),
        "a/1": dict(active_s=1.0, useful_s=0.5, mpi_s=0.4, instr_s=0.1, stall_s=0.2),
        "a/2": dict(active_s=0.8, useful_s=0.7, mpi_s=0.1, instr_s=0.0, stall_s=0.0),
    }
    m = metrics_from_sums(per_rank)
    assert m["parallel_efficiency"] == pytest.approx(
        m["load_balance"] * m["communication_efficiency"], abs=1e-12
    )
    assert 0.0 < m["parallel_efficiency"] < 1.0


# -- windowing on the real coupled workload ----------------------------------------


def test_session_windows_and_report(tmp_path):
    session, name = _session(telemetry=Telemetry())
    session.enable_pop_metrics(PopConfig(window=0.01))
    run = session.run()
    summary = run.efficiency
    assert summary is not None
    assert summary["windows"] > 10
    assert summary["phases"], "at least one phase must be sealed"
    eor = summary["end_of_run"]
    assert 0.0 < eor["parallel_efficiency"] <= 1.0
    # Windows tile the active span: t0/t1 chain without gaps.
    engine = session.pop_metrics
    for prev, cur in zip(engine.windows, engine.windows[1:]):
        assert cur.t0 == pytest.approx(prev.t1)
    # Report section renders.
    text = run.report.render()
    assert "Efficiency timeline" in text
    assert "Per-phase efficiency" in text


def test_end_of_run_matches_phase_recombination():
    """Acceptance gate: per-phase sums recombine to end-of-run to 1e-6."""
    session, _ = _session(telemetry=Telemetry())
    session.enable_pop_metrics(PopConfig(window=0.005))
    run = session.run()
    combined = {}
    for phase in run.efficiency["phases"]:
        for rank_key, sums in phase["ranks"].items():
            entry = combined.setdefault(rank_key, {k: 0.0 for k in SUM_KEYS})
            for key in SUM_KEYS:
                entry[key] += sums[key]
    recombined = metrics_from_sums(combined)
    for key in METRIC_KEYS:
        assert recombined[key] == pytest.approx(
            run.efficiency["end_of_run"][key], abs=1e-6
        )


@settings(max_examples=5, deadline=None)
@given(
    window=st.sampled_from([0.003, 0.007, 0.013, 0.05]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_telescoping_property(window, seed):
    """Telescoping holds for arbitrary window widths and seeds: windows
    sum to phases, phases sum to the run, regardless of where boundaries
    fall relative to MPI calls."""
    session, _ = _session(telemetry=Telemetry(), seed=seed, iterations=2)
    session.enable_pop_metrics(PopConfig(window=window))
    run = session.run()
    summary = run.efficiency
    engine = session.pop_metrics
    # Window sums -> global totals.
    window_totals = {k: 0.0 for k in SUM_KEYS}
    for w in engine.windows:
        for key in SUM_KEYS:
            window_totals[key] += w.sums[key]
    for key in SUM_KEYS:
        assert window_totals[key] == pytest.approx(summary["totals"][key], abs=1e-6)
    # Phase sums -> global totals.
    phase_totals = {k: 0.0 for k in SUM_KEYS}
    for phase in summary["phases"]:
        for key in SUM_KEYS:
            phase_totals[key] += phase["sums"][key]
    for key in SUM_KEYS:
        assert phase_totals[key] == pytest.approx(summary["totals"][key], abs=1e-6)


def test_bit_identical_with_metrics_disabled():
    """The observer bar: enabling the engine must not move the simulation."""
    plain, name = _session(telemetry=Telemetry(), iterations=2)
    base = plain.run()
    metered, name2 = _session(telemetry=Telemetry(), iterations=2)
    metered.enable_pop_metrics(PopConfig(window=0.004))
    run = metered.run()
    assert run.app(name2).walltime == base.app(name).walltime
    assert run.app(name2).events == base.app(name).events
    assert run.analyzer_walltime == base.analyzer_walltime
    assert run.efficiency is not None and base.efficiency is None


# -- phase detection ---------------------------------------------------------------


def test_two_phase_workload_detects_boundary():
    tel = Telemetry()
    session = CouplingSession(telemetry=tel, seed=3)
    session.add_application(TwoPhase(), name="twophase")
    session.set_analyzer(nprocs=2)
    session.enable_pop_metrics(PopConfig(window=0.004))
    run = session.run()
    phases = run.efficiency["phases"]
    assert len(phases) >= 2
    # Phase A is compute-heavy (~2ms x 40 iters ends near t=0.08); the
    # first boundary must land within a few windows of the true seam.
    boundary = phases[0]["t1"]
    assert boundary == pytest.approx(0.08, abs=0.02)
    pe_a = phases[0]["metrics"]["parallel_efficiency"]
    pe_b = phases[1]["metrics"]["parallel_efficiency"]
    assert pe_a > 0.9
    assert pe_b < pe_a - 0.3


def test_uniform_workload_stays_single_phase():
    session, _ = _session(telemetry=Telemetry())
    session.enable_pop_metrics(PopConfig(window=0.01))
    run = session.run()
    assert len(run.efficiency["phases"]) == 1


def test_glitch_folds_back_without_split():
    """A single outlier window (below confirm_windows) must not split."""
    tel = Telemetry()
    engine = PopMetricsEngine(tel, PopConfig(confirm_windows=2, shift_min=0.01))
    # Drive _detect_phase directly with synthetic windows.
    from repro.telemetry.popmetrics import WindowMetrics

    def window(i, pe):
        metrics = {k: 0.0 for k in METRIC_KEYS}
        metrics["parallel_efficiency"] = pe
        return WindowMetrics(
            index=i, t0=i * 0.01, t1=(i + 1) * 0.01, nranks=1,
            metrics=metrics, sums={k: 0.0 for k in SUM_KEYS}, stream={},
            per_rank={"a/0": {k: 0.0 for k in SUM_KEYS}},
        )

    for i in range(8):
        engine._detect_phase(window(i, 0.9 + 0.001 * (i % 2)))
    engine._detect_phase(window(8, 0.2))  # glitch
    engine._detect_phase(window(9, 0.9))  # back to normal: folds in
    assert not engine.phases  # still one open phase, nothing sealed
    assert engine._current.windows == 10

    # A fresh engine seeing two *consecutive* outliers confirms the split
    # (the glitch above widened the variance, which is the point: folded
    # glitches make the detector harder to trip — hysteresis by design).
    sharp = PopMetricsEngine(tel, PopConfig(confirm_windows=2, shift_min=0.01))
    for i in range(8):
        sharp._detect_phase(window(i, 0.9 + 0.001 * (i % 2)))
    sharp._detect_phase(window(8, 0.2))
    assert not sharp.phases  # pending, not yet confirmed
    sharp._detect_phase(window(9, 0.2))
    assert len(sharp.phases) == 1
    assert sharp._current.windows == 2
    assert sharp._current.t0 == pytest.approx(0.08)  # boundary at outlier #1


# -- kernel hook alignment ---------------------------------------------------------


def test_call_every_first_pins_alignment():
    tel = Telemetry()
    kernel = Kernel(telemetry=tel)
    fired = []
    kernel.timeout(0.0123)  # move the clock off-grid
    kernel.run()
    kernel.call_every(0.01, fired.append, first=0.02)
    kernel.timeout(0.05 - kernel.now)
    kernel.run()
    assert fired[:3] == [pytest.approx(0.02), pytest.approx(0.03), pytest.approx(0.04)]
    with pytest.raises(SimulationError):
        kernel.call_every(0.01, fired.append, first=kernel.now - 0.01)


def test_attach_aligns_to_window_grid():
    tel = Telemetry()
    kernel = Kernel(telemetry=tel)
    kernel.timeout(0.0123)
    kernel.run()
    engine = PopMetricsEngine(tel, PopConfig(window=0.005))
    engine.attach(kernel)
    kernel.timeout(0.03 - kernel.now)
    kernel.run()
    assert engine.windows
    assert engine.windows[0].t1 == pytest.approx(0.015)  # grid-aligned
    for w in engine.windows:
        assert math.isclose(w.t1 / 0.005, round(w.t1 / 0.005), abs_tol=1e-6)


# -- stream-health rates: growth since the previous close --------------------------


def _rates_with_carried_counter(t_attach, writes, until):
    """``stream_bytes_per_s`` per window of an engine attached at
    ``t_attach`` to a Telemetry whose counter already reads 1000."""
    tel = Telemetry()
    kernel = Kernel(telemetry=tel)
    written = tel.counter("stream.bytes_written")
    written.inc(1000)  # earlier use of this Telemetry
    if t_attach > 0:
        kernel.timeout(t_attach)
        kernel.run()
    engine = PopMetricsEngine(tel, PopConfig(window=0.005))
    engine.attach(kernel)

    def writer(k):
        for at, nbytes in writes:
            yield k.timeout(at - k.now)
            written.inc(nbytes)
        yield k.timeout(until - k.now)

    kernel.spawn(writer(kernel))
    kernel.run()
    return [(w.t0, w.t1, w.stream["stream_bytes_per_s"]) for w in engine.windows]


def test_carried_counter_is_not_charged_when_attached_on_the_grid():
    rates = _rates_with_carried_counter(0.0, [(0.002, 500), (0.007, 250)], until=0.012)
    assert rates == [(0.0, 0.005, 100000.0), (0.005, 0.01, 50000.0)]


def test_carried_counter_is_not_charged_when_attached_between_grid_points():
    # The baseline is what the counters read at attach, wherever that falls.
    rates = _rates_with_carried_counter(0.003, [(0.007, 250)], until=0.012)
    assert [(t0, t1) for t0, t1, _ in rates] == [(0.0, 0.005), (0.005, 0.01)]
    assert [rate for _, _, rate in rates] == [0.0, 50000.0]


# -- NDJSON streaming export -------------------------------------------------------


def test_ndjson_streams_incrementally(tmp_path):
    """Records hit the file as windows close, not at teardown."""
    path = tmp_path / "metrics.ndjson"
    sink = FileSink(str(path))
    sink.emit(make_record(METRICS_SCHEMA, "window", index=0, t0=0.0, t1=0.01))
    # Readable immediately, before close: the streaming contract.
    first = path.read_text().strip().splitlines()
    assert len(first) == 1
    rec = json.loads(first[0])
    assert rec["schema"] == METRICS_SCHEMA
    assert rec["kind"] == "window"
    sink.emit(make_record(METRICS_SCHEMA, "phase", index=0))
    sink.emit(make_record(METRICS_SCHEMA, "run_summary", windows=1))
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(ConfigError):
        sink.emit(make_record(METRICS_SCHEMA, "window"))
    records = read_records(path, schema=METRICS_SCHEMA)
    assert [r["kind"] for r in records] == ["window", "phase", "run_summary"]


def test_ndjson_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"schema": "someone-else/9", "kind": "window"}\n')
    with pytest.raises(ConfigError):
        read_records(path, schema=METRICS_SCHEMA)
    path.write_text('{"schema": "%s", "kind": "mystery"}\n' % METRICS_SCHEMA)
    with pytest.raises(ConfigError):
        read_records(path, schema=METRICS_SCHEMA)
    path.write_text("not json\n")
    with pytest.raises(ConfigError):
        read_records(path, schema=METRICS_SCHEMA)
    path.write_text("\n\n")  # blank lines alone are fine
    assert read_records(path, schema=METRICS_SCHEMA) == []


#: Key order of the engine's three record kinds, as streamed by the commit
#: before the engine built its own records (PR 14): part of the byte format.
RECORD_KEYS = {
    "window": (
        "schema", "kind", "index", "t0", "t1", "elapsed_s", "nranks",
        "metrics", "sums", "stream",
    ),
    "phase": (
        "schema", "kind", "index", "t0", "t1", "elapsed_s", "windows",
        "signal_mean", "signal_std", "metrics", "sums", "ranks",
    ),
    "run_summary": (
        "schema", "kind", "window_s", "signal", "windows", "phases",
        "end_of_run", "totals", "nranks", "stream_last",
    ),
}
STREAM_KEYS = (
    "eagain_per_s", "stream_bytes_per_s", "packs_analyzed_per_s", "backlog_depth",
)


def test_session_stream_round_trip(tmp_path):
    path = tmp_path / "session.ndjson"
    session, _ = _session(telemetry=Telemetry(), iterations=2)
    engine = session.enable_pop_metrics(PopConfig(window=0.01), stream=str(path))
    ring = engine.add_sink(RingSink(4096))
    run = session.run()
    records = read_records(path, schema=METRICS_SCHEMA)
    kinds = [r["kind"] for r in records]
    assert kinds.count("window") == run.efficiency["windows"]
    assert kinds.count("phase") == len(run.efficiency["phases"])
    assert kinds[-1] == "run_summary"
    # The streamed run summary is the session's own summary.
    tail = records[-1]
    assert tail["windows"] == run.efficiency["windows"]
    assert tail["end_of_run"] == run.efficiency["end_of_run"]
    # Every sink sees the same records in the same order.
    assert ring.records() == records
    # The byte format: key order of every record kind and nested block.
    for record in records:
        assert tuple(record) == RECORD_KEYS[record["kind"]]
    window = next(r for r in records if r["kind"] == "window")
    assert tuple(window["metrics"]) == METRIC_KEYS == tuple(tail["end_of_run"])
    assert tuple(window["sums"]) == SUM_KEYS == tuple(tail["totals"])
    assert tuple(window["stream"]) == STREAM_KEYS == tuple(tail["stream_last"])


def test_engine_sink_receives_what_the_bus_does():
    session, _ = _session(telemetry=Telemetry(), iterations=2)
    engine = session.enable_pop_metrics(PopConfig(window=0.01))
    direct = engine.add_sink(RingSink(4096))
    via_bus = RingSink(4096)
    session.enable_observability(ring=None).add_sink(via_bus, schemas=[METRICS_SCHEMA])
    session.run()
    assert len(direct) > 2
    assert direct.records() == via_bus.records()


# -- Chrome-trace counters ---------------------------------------------------------


def test_pop_gauges_export_as_counter_events(tmp_path):
    tel = Telemetry()
    session, _ = _session(telemetry=tel, iterations=2)
    session.enable_pop_metrics(PopConfig(window=0.01))
    session.run()
    trace = tmp_path / "trace.json"
    tel.write_chrome_trace(trace)
    events = json.loads(trace.read_text())["traceEvents"]
    counters = [
        e for e in events
        if e.get("ph") == "C" and e.get("name", "").startswith("pop.")
    ]
    assert counters, "pop.* gauges must appear as Chrome counter tracks"
    names = {e["name"] for e in counters}
    assert "pop.parallel_efficiency" in names
