"""Differential oracle: blocking MPI calls vs the non-blocking path they fused.

``MPI_Send`` / ``MPI_Recv`` / ``MPI_Sendrecv`` skip two heap entries per
eager message (no born-succeeded send completion, the receive overhead and
the completion as one entry — DESIGN 14); ``isend`` / ``irecv`` / ``wait``
still take every hop, so they are the in-tree oracle.  Hypothesis draws
deadlock-free programs over 2-6 ranks and runs each twice, once written with
the blocking calls and once with ``isend`` + ``wait`` / ``irecv`` + ``wait``:
``kernel.now`` at the return of every call, every ``Status``, each rank's
``Mailbox.delivered`` / ``unexpected_peak`` and the final clock must be
equal, floats compared exactly.

How a program stays deadlock-free: its operations are one global list and
every rank runs its share in list order, so the lowest unfinished operation
always has both parties at it.  A *wild* rank receives with ``ANY_SOURCE`` /
``ANY_TAG`` only and is only ever sent eager messages (whatever it matches
out of order, the counts still add up and no sender waits on it); the other
ranks name their source and may leave the tag open.

Then the edges of the fused receive — interrupt, the two bounded ``run()``
modes landing between arrival and wake-up, deadlock and crash reporting —
and ``SimEvent.succeed_after``'s one-shot law.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import DeadlockError, ProcessCrashError, SimulationError
from repro.mpi import ANY_SOURCE, ANY_TAG, MPMDLauncher
from repro.mpi.costmodel import CostModel
from repro.network.machine import small_test_machine
from repro.simt import Interrupt, Kernel
from repro.telemetry import Telemetry

EAGER = 4096
#: straddling the threshold; a wild rank's senders draw from the eager ones
SIZES = [0, 1, 512, EAGER - 1, EAGER, EAGER + 1, 4 * EAGER]
EAGER_SIZES = [n for n in SIZES if n <= EAGER]
#: few distinct compute delays, zero among them: receives posted long
#: before, right at and long after the message's arrival
DELAYS = [0.0, 0.0, 1e-7, 2e-6, 5e-5, 1e-3]


@st.composite
def programs(draw):
    nranks = draw(st.integers(2, 6))
    wild = draw(st.sets(st.integers(0, nranks - 1), max_size=2))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.integers(0, nranks - 1))
        b = draw(st.integers(0, nranks - 2))
        b += b >= a  # a peer other than ``a``
        delay_a, delay_b = draw(st.sampled_from(DELAYS)), draw(st.sampled_from(DELAYS))
        exchange = not ({a, b} & wild) and draw(st.integers(0, 3)) == 0
        sizes = EAGER_SIZES if b in wild else SIZES
        ops.append(
            {
                "kind": "exchange" if exchange else "message",
                "a": a,
                "b": b,
                "delay": {a: delay_a, b: delay_b},
                "nbytes": draw(st.sampled_from(sizes)),
                "nbytes_back": draw(st.sampled_from(SIZES)),
                "tag": draw(st.integers(0, 2)),
                "any_tag": draw(st.booleans()),
            }
        )
    o_recv = draw(st.sampled_from([0.0, 0.4e-6, 3e-6]))
    return nranks, frozenset(wild), ops, o_recv, draw(st.booleans())


def _run(nranks, wild, ops, o_recv, observed, blocking):
    """One world; returns (per-rank call log, mailbox counters, final time)."""
    logs = [[] for _ in range(nranks)]

    def send(comm, dest, nbytes, tag):
        if blocking:
            yield from comm.send(dest, nbytes=nbytes, tag=tag, payload=(comm.rank, tag))
        else:
            req = yield from comm.isend(dest, nbytes=nbytes, tag=tag, payload=(comm.rank, tag))
            yield from comm.wait(req)

    def recv(comm, source, tag):
        if blocking:
            return (yield from comm.recv(source=source, tag=tag))
        req = yield from comm.irecv(source=source, tag=tag)
        return (yield from comm.wait(req))

    def exchange(comm, peer, nbytes, tag):
        if blocking:
            return (yield from comm.sendrecv(peer, nbytes, source=peer, tag=tag))
        send_req = yield from comm.isend(peer, nbytes=nbytes, tag=tag)
        recv_req = yield from comm.irecv(source=peer, tag=tag)
        status = yield from comm.wait(recv_req)
        yield from comm.wait(send_req)
        return status

    def main(mpi):
        yield from mpi.init()
        comm, log = mpi.comm_world, logs[mpi.comm_world.rank]
        me = comm.rank
        for index, op in enumerate(ops):
            if me not in (op["a"], op["b"]):
                continue
            yield from mpi.compute(op["delay"][me])
            tag = op["tag"]
            if op["kind"] == "exchange":
                peer = op["b"] if me == op["a"] else op["a"]
                nbytes = op["nbytes"] if me == op["a"] else op["nbytes_back"]
                result = yield from exchange(comm, peer, nbytes, tag)
            elif me == op["a"]:
                result = yield from send(comm, op["b"], op["nbytes"], tag)
            elif me in wild:
                result = yield from recv(comm, ANY_SOURCE, ANY_TAG)
            else:
                result = yield from recv(comm, op["a"], ANY_TAG if op["any_tag"] else tag)
            log.append((index, mpi.now, result))
        yield from mpi.finalize()

    launcher = MPMDLauncher(
        machine=small_test_machine(),
        cost=CostModel(o_recv=o_recv, eager_threshold=EAGER),
        telemetry=Telemetry() if observed else None,
    )
    launcher.add_program("p", nprocs=nranks, main=main)
    world = launcher.run()
    counters = [(ctx.mailbox.delivered, ctx.mailbox.unexpected_peak) for ctx in world.ranks]
    return logs, counters, world.kernel.now


@settings(max_examples=150, deadline=None)
@given(programs())
def test_blocking_calls_see_what_the_nonblocking_oracle_sees(program):
    assert _run(*program, blocking=True) == _run(*program, blocking=False)


def test_the_oracle_covers_eager_rendezvous_wildcards_and_exchanges():
    """One hand-written program through every branch the strategy can draw."""
    ops = [
        {"kind": "message", "a": 0, "b": 1, "delay": {0: 0.0, 1: 1e-3},
         "nbytes": 512, "nbytes_back": 0, "tag": 1, "any_tag": False},
        {"kind": "message", "a": 2, "b": 1, "delay": {2: 1e-3, 1: 0.0},
         "nbytes": 4 * EAGER, "nbytes_back": 0, "tag": 2, "any_tag": True},
        {"kind": "exchange", "a": 0, "b": 2, "delay": {0: 0.0, 2: 2e-6},
         "nbytes": EAGER + 1, "nbytes_back": 1, "tag": 0, "any_tag": False},
        {"kind": "message", "a": 1, "b": 3, "delay": {1: 0.0, 3: 0.0},
         "nbytes": EAGER, "nbytes_back": 0, "tag": 0, "any_tag": False},
        {"kind": "message", "a": 0, "b": 3, "delay": {0: 0.0, 3: 5e-5},
         "nbytes": 0, "nbytes_back": 0, "tag": 2, "any_tag": False},
    ]
    for o_recv in (0.0, 0.4e-6):
        blocking = _run(4, frozenset({3}), ops, o_recv, False, blocking=True)
        assert blocking == _run(4, frozenset({3}), ops, o_recv, False, blocking=False)
        logs, counters, _final = blocking
        assert [status.source for _i, _t, status in logs[3]] == [1, 0]
        assert logs[1][1][2].nbytes == 4 * EAGER and logs[1][1][2].tag == 2
        assert [delivered for delivered, _peak in counters] == [1, 2, 1, 2]


# -- edges of the fused receive ---------------------------------------------------------


def _world(main, nprocs=2, **cost):
    launcher = MPMDLauncher(machine=small_test_machine(), cost=CostModel(**cost))
    launcher.add_program("edge", nprocs=nprocs, main=main)
    return launcher.launch()


def _send_to_a_blocked_receiver(seen, after_send=None):
    """Rank 1 blocks in ``recv``; rank 0 sends after 1 ms."""

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from mpi.compute(1e-3)
            yield from comm.send(1, nbytes=64, tag=5)
            if after_send is not None:
                yield from after_send(mpi)
        else:
            try:
                seen.append((yield from comm.recv(source=0, tag=5)))
            except Interrupt as interrupt:
                seen.append(interrupt.cause)
            seen.append(mpi.now)
        yield from mpi.finalize()

    return main


def test_interrupt_while_blocked_in_recv_leaves_a_harmless_completion():
    seen = []
    world = _world(_send_to_a_blocked_receiver(seen))
    world.kernel.run(until=0.5e-3)
    world.ranks[1].process.interrupt("stop")
    world.run()  # the matched message's completion fires later, with no waiter
    assert seen == ["stop", 0.5e-3]
    assert world.ranks[1].mailbox.delivered == 1
    assert world.ranks[1].mailbox.pending_counts() == (0, 0)


def test_bounded_runs_may_stop_between_arrival_and_wake_up():
    o_recv = 1e-3  # wide, so a deadline can land inside the receive overhead
    seen, sent_at = [], []

    def after_send(mpi):
        sent_at.append(mpi.now)
        yield from mpi.compute(0.0)

    world = _world(_send_to_a_blocked_receiver(seen, after_send), o_recv=o_recv)
    kernel = world.kernel
    # until=<event>: rank 0's process ends after its send returned (an eager
    # blocking send does not wait for the receiver) and before the wake-up.
    kernel.run(until=world.ranks[0].process)
    assert sent_at and not seen
    arrival_bound = sent_at[0] + o_recv
    # until=<deadline>: past the arrival, inside the receive overhead.
    kernel.run(until=arrival_bound)
    assert not seen and world.ranks[1].process.is_alive
    completion = world.ranks[1].process._waiting_on
    assert not completion.triggered and completion.value.nbytes == 64
    world.run()
    status, woke = seen
    assert (status.source, status.tag, status.nbytes) == (0, 5, 64)
    assert arrival_bound < woke < arrival_bound + o_recv


def test_deadlock_still_names_the_rank_blocked_in_recv():
    def main(mpi):
        yield from mpi.init()
        if mpi.comm_world.rank == 1:
            yield from mpi.comm_world.recv(source=0, tag=1)
        yield from mpi.finalize()

    with pytest.raises(DeadlockError) as info:
        _world(main).run()
    assert "edge[1]" in str(info.value) and "edge[0]" not in str(info.value)


def test_a_crash_after_a_blocking_receive_surfaces():
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8)
        else:
            yield from comm.recv(source=0)
            raise RuntimeError("boom")
        yield from mpi.finalize()

    with pytest.raises(ProcessCrashError, match="boom"):
        _world(main).run()


# -- SimEvent.succeed_after -------------------------------------------------------------


def test_succeed_after_is_the_timeout_contract_on_an_existing_event():
    kernel = Kernel()
    event = kernel.event("late")
    got = []

    def waiter():
        got.append((yield event))
        got.append(kernel.now)

    kernel.spawn(waiter())
    kernel.run(until=1.0)
    before = kernel.events_dispatched
    assert event.succeed_after(0.5, "v") is event
    assert not event.triggered and event.value == "v"  # PENDING until dispatched
    kernel.run(until=1.25)
    assert not event.triggered and not got
    kernel.run()
    assert event.ok and got == ["v", 1.5]
    assert kernel.events_dispatched - before == 2  # the event, the process's end


def test_succeed_after_zero_fires_at_the_current_instant_in_scheduling_order():
    kernel = Kernel()
    order = []
    first, second = kernel.event("first"), kernel.event("second")
    first.add_callback(lambda _ev: order.append("first"))
    second.add_callback(lambda _ev: order.append("second"))
    first.succeed_after(0.0)
    second.succeed()
    kernel.run()
    assert order == ["first", "second"] and kernel.now == 0.0


@pytest.mark.parametrize("again", ["succeed", "fail", "succeed_after"])
def test_a_scheduled_event_is_one_shot(again):
    kernel = Kernel()
    event = kernel.event("once").succeed_after(1.0, "v")
    retrigger = {
        "succeed": lambda: event.succeed("w"),
        "fail": lambda: event.fail(RuntimeError("w")),
        "succeed_after": lambda: event.succeed_after(2.0, "w"),
    }[again]
    with pytest.raises(SimulationError, match="already triggered"):
        retrigger()
    kernel.run()
    assert event.ok and event.value == "v" and kernel.now == 1.0
    with pytest.raises(SimulationError, match="already triggered"):
        retrigger()


@pytest.mark.parametrize("first", ["succeed", "fail"])
def test_succeed_after_on_a_triggered_event_raises(first):
    kernel = Kernel()
    event = kernel.event("done")
    event.add_callback(lambda _ev: None)  # a failed event needs an observer
    event.succeed() if first == "succeed" else event.fail(RuntimeError("x"))
    with pytest.raises(SimulationError, match="already triggered"):
        event.succeed_after(1.0)


@pytest.mark.parametrize("delay", [-1e-9, float("nan")])
def test_succeed_after_validates_its_delay_like_timeout(delay):
    kernel = Kernel()
    event = kernel.event()
    with pytest.raises(SimulationError, match="delay"):
        event.succeed_after(delay)
    event.succeed()  # the rejected call left it untouched
    kernel.run()
    assert event.ok
