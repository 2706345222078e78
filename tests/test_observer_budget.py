"""What being watched costs: instrument writes per kernel event, the
per-call records (``CallRecord``, ``Status``) as one-allocation tuples, and
the observers' one clock — two kernel hooks, one ring of samples, and every
record the planes emit held to ``fixtures/observer_records_observed_faulted.json``
(taken **on the parent of PR 23**; regenerate, on a commit whose values are the
contract, with ``PYTHONPATH=src python tests/test_observer_budget.py``)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.apps.nas.adi import SP
from repro.instrument.packer import EventPackBuilder, decode_pack
from repro.instrument.events import CALL_IDS
from repro.mpi.launcher import MPMDLauncher
from repro.mpi.pmpi import CallRecord, Interceptor
from repro.mpi.status import Status
from repro.telemetry import metrics

# -- instrument writes per kernel event -----------------------------------------------

_WRITES = [
    (metrics.Counter, "inc"),
    (metrics.Gauge, "set"),
    (metrics.HistogramMetric, "observe"),
    (metrics.NullCounter, "inc"),
    (metrics.NullGauge, "set"),
    (metrics.NullHistogram, "observe"),
]


@pytest.fixture
def instrument_writes(monkeypatch):
    """Counts every ``inc`` / ``set`` / ``observe``, live or null."""
    calls = {"n": 0}
    for owner, attr in _WRITES:
        real = getattr(owner, attr)

        def counted(self, *args, _real=real):
            calls["n"] += 1
            return _real(self, *args)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_every_plane_on_writes_instruments_per_read_not_per_event(
    watched_session, instrument_writes
):
    session = watched_session(iterations=2)
    events = session.run().world.kernel.events_dispatched
    assert events > 5_000
    # Two writes per event in the dispatch loop alone before the kernel
    # synced its instruments at the points they can be read.
    assert 0 < instrument_writes["n"] <= 0.5 * events
    assert session.telemetry.counters["kernel.events_dispatched"].value == events


def test_no_telemetry_no_instrument_write(instrument_writes):
    session = CouplingSession(
        TERA100, seed=0, instrumentation=InstrumentationCost(block_size=4096, na_buffers=2)
    )
    session.add_application(SP(16, "C", iterations=2))
    session.set_analyzer(nprocs=4)
    assert session.run().world.kernel.events_dispatched > 5_000
    assert instrument_writes["n"] == 0


# -- one clock, one ring, the same records ----------------------------------------------

RECORDS_FIXTURE = Path(__file__).parent / "fixtures" / "observer_records_observed_faulted.json"


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _observer_records(session, tmpdir) -> dict:
    """What the three clocked planes emitted, reduced to a diffable dict.

    Nothing here reads the host clock (the POP records, the alerts and the
    watched series are all virtual-time values), so nothing is excluded
    but the steering summary's echo of its policy.
    """
    result = session.run()
    pop = (Path(tmpdir) / "pop.ndjson").read_bytes()
    health = dict(result.health)
    alerts = health.pop("alerts")
    series = health.pop("series")
    steering = {k: v for k, v in result.steering.items() if k != "policy"}
    return {
        "pop_records": pop.count(b"\n"),
        "pop_sha256": hashlib.sha256(pop).hexdigest(),
        "steering": steering,
        "health": health,
        "health_alerts_sha256": _sha(alerts),
        "health_series_sha256": _sha(series),
    }


@pytest.mark.parametrize("seed", [0, 1])
def test_observer_records_match_the_parent_tree(watched_session, tmp_path, seed):
    expected = json.loads(RECORDS_FIXTURE.read_text())[str(seed)]
    assert expected["health"]["ticks"] > 100 and expected["pop_records"] >= 4
    records = _observer_records(watched_session(seed=seed), tmp_path)
    assert json.loads(json.dumps(records)) == expected


def test_every_plane_on_is_two_hooks_and_one_ring(watched_session, monkeypatch):
    from repro.simt.kernel import Kernel
    from repro.telemetry.timeline import Timeline

    registered, samples = [], []
    real_call_every, real_sample = Kernel.call_every, Timeline.sample

    def call_every(self, interval, fn, **kwargs):
        registered.append(fn)
        return real_call_every(self, interval, fn, **kwargs)

    def sample(self, now):
        samples.append(self)
        return real_sample(self, now)

    monkeypatch.setattr(Kernel, "call_every", call_every)
    monkeypatch.setattr(Timeline, "sample", sample)
    session = watched_session(iterations=2)
    result = session.run()
    # The monitor's tick and POP's window close; steering rides the former.
    assert [fn.__self__ for fn in registered] == [session.monitor, session.pop_metrics]
    assert not any(isinstance(v, Timeline) for v in vars(session.pop_metrics).values())
    assert set(map(id, samples)) == {id(session.monitor.timeline)}
    assert len(samples) == session.monitor.ticks == result.health["samples"] > 50


# -- the per-call records -------------------------------------------------------------

_RECORD = CallRecord("MPI_Send", 1.0, 1.5, 0, 3, 16, 4, 7, 4096)


def test_call_record_is_an_immutable_value():
    by_keyword = CallRecord(
        name="MPI_Send", t_start=1.0, t_end=1.5, comm_id=0, comm_rank=3, comm_size=16,
        peer=4, tag=7, nbytes=4096,
    )
    assert by_keyword == _RECORD and hash(by_keyword) == hash(_RECORD)
    assert by_keyword != CallRecord("MPI_Send", 1.0, 1.5, 0, 3, 16, 4, 8, 4096)
    assert _RECORD.duration == 0.5
    for field in (
        "name", "t_start", "t_end", "comm_id", "comm_rank", "comm_size", "peer", "tag", "nbytes",
    ):
        assert f"{field}=" in repr(_RECORD)
        with pytest.raises(AttributeError):
            setattr(_RECORD, field, 0)
    with pytest.raises((AttributeError, TypeError)):
        _RECORD.extra = 1  # no instance dict either: one record is shared by the stack


def test_status_is_an_immutable_value():
    status = Status(1, 2, 3)
    assert status.payload is None
    assert status == Status(source=1, tag=2, nbytes=3, payload=None)
    assert hash(status) == hash(Status(1, 2, 3))
    assert status != Status(1, 2, 3, payload=b"x")
    assert status.count(2) == 1  # MPI_Get_count, not tuple.count
    for field in ("source", "tag", "nbytes", "payload"):
        assert f"{field}=" in repr(status)
        with pytest.raises(AttributeError):
            setattr(status, field, 0)
    with pytest.raises(AttributeError):
        status.extra = 1


def test_pack_builder_round_trips_positional_and_keyword_records():
    builder = EventPackBuilder(app_id=1, rank=3, capacity_bytes=4096)
    builder.add(_RECORD)
    builder.add(
        CallRecord(
            nbytes=8, tag=-1, peer=-1, comm_size=-1, comm_rank=0, comm_id=2,
            t_end=3.0, t_start=2.0, name="MPI_Barrier",
        )
    )
    header, events = decode_pack(builder.emit())
    assert header.count == 2
    sent, barrier = events
    assert (sent["call"], sent["peer"], sent["tag"], sent["comm_size"], sent["nbytes"]) == (
        CALL_IDS["MPI_Send"], 4, 7, 16, 4096,
    )
    assert (sent["t_start"], sent["t_end"]) == (1.0, 1.5)
    assert (barrier["call"], barrier["peer"], barrier["tag"], barrier["nbytes"]) == (
        CALL_IDS["MPI_Barrier"], -1, -1, 8,
    )
    assert barrier["comm_size"] == 0  # negative sizes clip to 0 on the wire
    assert (barrier["t_start"], barrier["t_end"]) == (2.0, 3.0)


# -- hook lists bound at attach -------------------------------------------------------


class _Enter(Interceptor):
    """Overrides ``on_enter`` only; logs ``(tag, call name, now)``."""

    def __init__(self, tag, log, outcome):
        self.tag, self.log, self.outcome = tag, log, outcome

    def on_enter(self, ctx, name):
        self.log.append((self.tag, name, ctx.kernel.now))
        return self.outcome(ctx)


def _run_one_rank(machine, app):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program("a", nprocs=1, main=app)
    launcher.run()


def test_overridden_on_enter_is_driven_in_stack_order(machine):
    log = []

    def blocking(ctx):
        yield ctx.kernel.timeout(0.5)

    def app(mpi):
        mpi.ctx.pmpi.attach(_Enter("seconds", log, lambda ctx: 0.25))
        mpi.ctx.pmpi.attach(_Enter("generator", log, blocking))
        mpi.ctx.pmpi.attach(_Enter("free", log, lambda ctx: None))
        yield from mpi.init()
        yield from mpi.finalize()

    _run_one_rank(machine, app)
    init = [(tag, now) for tag, name, now in log if name == "MPI_Init"]
    # Each hook runs after the one below it was charged or driven to the end.
    assert init == [("seconds", 0.0), ("generator", 0.25), ("free", 0.75)]
    assert [tag for tag, name, _now in log if name == "MPI_Finalize"] == [
        "seconds", "generator", "free",
    ]


def test_interceptor_attached_mid_run_is_picked_up_by_the_next_call(machine):
    log, exits = [], []

    class Exit(Interceptor):
        def on_exit(self, ctx, record):
            exits.append(record.name)

    def app(mpi):
        mpi.ctx.pmpi.attach(Exit())
        yield from mpi.init()
        yield from mpi.comm_world.barrier()
        mpi.ctx.pmpi.attach(_Enter("late", log, lambda ctx: None))
        yield from mpi.comm_world.barrier()
        yield from mpi.finalize()
        assert not mpi.ctx.pmpi.active

    _run_one_rank(machine, app)
    assert [name for _tag, name, _now in log] == ["MPI_Barrier", "MPI_Finalize"]
    assert exits == ["MPI_Init", "MPI_Barrier", "MPI_Barrier", "MPI_Finalize"]


# -- nobody watching: ``around`` is the body itself -----------------------------------


def test_an_unobserved_rank_gets_its_call_body_back_without_a_wrapper(machine):
    seen = []

    def app(mpi):
        pmpi, comm = mpi.ctx.pmpi, mpi.comm_world
        body = iter(())
        # Nothing attached: no generator of around's own, no call counted.
        seen.append(pmpi.around("MPI_Barrier", body, comm, -1, -1, nbytes=0, post=None) is body)
        yield from mpi.init()
        seen.append(pmpi.calls_seen)
        pmpi.attach(Interceptor())  # mid-run, on a stack that had none
        wrapped = pmpi.around("MPI_Barrier", body, comm)
        seen.append(wrapped is not body and wrapped.gi_code.co_name)
        yield from comm.barrier()
        seen.append(pmpi.calls_seen)
        yield from mpi.finalize()  # detaches: back to the pass-through
        seen.append(pmpi.around("MPI_Barrier", body, comm) is body)
        seen.append(pmpi.calls_seen)

    _run_one_rank(machine, app)
    # ``wrapped`` was never started, so it counted nothing: barrier + finalize.
    assert seen == [True, 0, "_intercepted", 1, True, 2]


if __name__ == "__main__":
    import sys
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import make_watched_session

    records = {}
    for seed in (0, 1):
        with tempfile.TemporaryDirectory() as tmpdir:
            records[str(seed)] = _observer_records(
                make_watched_session(tmpdir, seed=seed), tmpdir
            )
    RECORDS_FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORDS_FIXTURE}")
