"""Point-to-point semantics: matching, wildcards, ordering, rendezvous."""

import pytest

from repro.errors import DeadlockError
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.mpi.launcher import MPMDLauncher
from repro.mpi.costmodel import CostModel


def _single(machine, main, nprocs, **kwargs):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program("t", nprocs=nprocs, main=main, **kwargs)
    return launcher.run()


def test_blocking_send_recv_payload(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=128, tag=9, payload={"k": 1})
        else:
            status = yield from comm.recv(source=0, tag=9)
            got.append(status)
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert got[0].source == 0
    assert got[0].tag == 9
    assert got[0].nbytes == 128
    assert got[0].payload == {"k": 1}


def test_any_source_any_tag(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 2:
            for _ in range(2):
                status = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                got.append((status.source, status.tag))
        else:
            yield from comm.send(2, nbytes=8, tag=comm.rank + 10)
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert sorted(got) == [(0, 10), (1, 11)]


def test_tag_selectivity(machine):
    order = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8, tag=1, payload="first")
            yield from comm.send(1, nbytes=8, tag=2, payload="second")
        else:
            st2 = yield from comm.recv(source=0, tag=2)
            st1 = yield from comm.recv(source=0, tag=1)
            order.extend([st2.payload, st1.payload])
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert order == ["second", "first"]


def test_non_overtaking_same_tag(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            for i in range(5):
                yield from comm.send(1, nbytes=8, tag=7, payload=i)
        else:
            for _ in range(5):
                status = yield from comm.recv(source=0, tag=7)
                got.append(status.payload)
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert got == [0, 1, 2, 3, 4]


def test_unmatched_recv_deadlocks(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 1:
            yield from comm.recv(source=0, tag=1)  # never sent
        yield from mpi.finalize()

    with pytest.raises(DeadlockError):
        _single(machine, main, 2)


def test_self_send(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        req = yield from comm.isend(comm.rank, nbytes=64, tag=3, payload="me")
        status = yield from comm.recv(source=comm.rank, tag=3)
        yield from mpi.wait(req)
        got.append(status.payload)
        yield from mpi.finalize()

    _single(machine, main, 1)
    assert got == ["me"]


def test_rendezvous_send_waits_for_receiver(machine):
    """A blocking send above the eager threshold completes only at match."""
    cost = CostModel(eager_threshold=1024)
    times = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1_000_000, tag=1)
            times["send_done"] = mpi.now
        else:
            yield from mpi.compute(0.5)  # receiver is late
            yield from comm.recv(source=0, tag=1)
        yield from mpi.finalize()

    launcher = MPMDLauncher(machine=machine, cost=cost)
    launcher.add_program("t", nprocs=2, main=main)
    launcher.run()
    assert times["send_done"] >= 0.5


def test_eager_send_completes_without_receiver(machine):
    cost = CostModel(eager_threshold=1024 * 1024)
    times = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1000, tag=1)
            times["send_done"] = mpi.now
        else:
            yield from mpi.compute(0.5)
            yield from comm.recv(source=0, tag=1)
        yield from mpi.finalize()

    launcher = MPMDLauncher(machine=machine, cost=cost)
    launcher.add_program("t", nprocs=2, main=main)
    launcher.run()
    assert times["send_done"] < 0.1


def test_sendrecv_exchange(machine):
    got = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        partner = 1 - comm.rank
        status = yield from comm.sendrecv(
            partner, send_nbytes=256, source=partner, tag=5, payload=comm.rank
        )
        got[comm.rank] = status.payload
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert got == {0: 1, 1: 0}


def test_iprobe(machine):
    observed = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=32, tag=4)
        else:
            # Poll until the message shows up.
            while True:
                status = yield from comm.iprobe(source=0, tag=4)
                if status is not None:
                    observed.append(status.nbytes)
                    break
                yield from mpi.compute(1e-6)
            yield from comm.recv(source=0, tag=4)
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert observed == [32]


def test_message_latency_positive(machine):
    spans = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1, tag=0)
        else:
            t0 = mpi.now
            yield from comm.recv(source=0, tag=0)
            spans.append(mpi.now - t0)
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert spans[0] > 0


def test_bigger_messages_take_longer(machine):
    durations = {}

    def main(mpi, nbytes, key):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes, tag=0)
        else:
            t0 = mpi.now
            yield from comm.recv(source=0, tag=0)
            durations[key] = mpi.now - t0
        yield from mpi.finalize()

    _single(machine, main, 2, nbytes=1_000, key="small")
    _single(machine, main, 2, nbytes=10_000_000, key="big")
    assert durations["big"] > durations["small"] * 10


def test_two_worlds_in_one_interpreter_share_no_counter(machine, monkeypatch):
    # Envelope.seq used to be drawn from a module-global counter: the only
    # state on the message path that remembered earlier simulations.
    from repro.mpi import message

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        for tag in range(3):
            yield from comm.sendrecv((comm.rank + 1) % comm.size, 64, tag=tag)
        yield from mpi.finalize()

    def envelopes_of_one_run():
        delivered = []
        real_deliver = message.Mailbox.deliver

        def recording_deliver(self, env):
            delivered.append({
                slot: getattr(env, slot)
                for slot in message.Envelope.__slots__
                if slot not in ("arrival", "match_event")  # per-run event objects
            })
            real_deliver(self, env)

        monkeypatch.setattr(message.Mailbox, "deliver", recording_deliver)
        world = _single(machine, main, 4)
        monkeypatch.setattr(message.Mailbox, "deliver", real_deliver)
        return delivered, world.kernel.events_dispatched, world.kernel.now

    first = envelopes_of_one_run()
    assert len(first[0]) == 12
    assert envelopes_of_one_run() == first
    # ... and nothing at module level is left to count with.
    assert not [name for name, value in vars(message).items() if hasattr(value, "__next__")]
