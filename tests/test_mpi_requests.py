"""Non-blocking requests: wait/test/waitall/waitany discipline."""

import pytest

from repro.errors import SimulationError
from repro.mpi import MPMDLauncher


def _single(machine, main, nprocs, **kwargs):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program("t", nprocs=nprocs, main=main, **kwargs)
    return launcher.run()


def test_isend_irecv_waitall_statuses(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        rq = yield from comm.irecv(source=left, tag=1)
        sq = yield from comm.isend(right, nbytes=64, tag=1, payload=comm.rank)
        statuses = yield from mpi.waitall([rq, sq])
        got.append((comm.rank, statuses[0].payload, statuses[1]))
        yield from mpi.finalize()

    _single(machine, main, 4)
    for rank, left_payload, send_status in got:
        assert left_payload == (rank - 1) % 4
        assert send_status is None  # sends carry no status


def test_test_polls_without_blocking(machine):
    polled = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from mpi.compute(0.01)
            yield from comm.send(1, nbytes=8, tag=1)
        else:
            req = yield from comm.irecv(source=0, tag=1)
            done_first, _ = req.test()
            polled.append(done_first)
            yield from mpi.wait(req)
            done_after, st = req.test()
            polled.append(done_after)
            assert st.nbytes == 8
        yield from mpi.finalize()

    _single(machine, main, 2)
    assert polled == [False, True]


def test_double_wait_rejected(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=8, tag=1)
        else:
            req = yield from comm.irecv(source=0, tag=1)
            yield from req.wait()
            yield from req.wait()
        yield from mpi.finalize()

    with pytest.raises(SimulationError, match="already-waited"):
        _single(machine, main, 2)


def test_waitall_empty_list(machine):
    def main(mpi):
        yield from mpi.init()
        statuses = yield from mpi.waitall([])
        assert statuses == []
        yield from mpi.finalize()

    _single(machine, main, 1)


def test_waitany_returns_first_completion(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from mpi.compute(0.2)
            yield from comm.send(2, nbytes=8, tag=1, payload="slow")
        elif comm.rank == 1:
            yield from comm.send(2, nbytes=8, tag=2, payload="fast")
        else:
            r_slow = yield from comm.irecv(source=0, tag=1)
            r_fast = yield from comm.irecv(source=1, tag=2)
            idx, status = yield from mpi.waitany([r_slow, r_fast])
            got.append((idx, status.payload))
            yield from mpi.wait(r_slow)
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert got == [(1, "fast")]


def test_waitany_empty_rejected(machine):
    def main(mpi):
        yield from mpi.init()
        yield from mpi.waitany([])
        yield from mpi.finalize()

    with pytest.raises(SimulationError):
        _single(machine, main, 1)


def test_many_outstanding_requests(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        n = 50
        if comm.rank == 0:
            reqs = []
            for i in range(n):
                req = yield from comm.isend(1, nbytes=100, tag=i, payload=i)
                reqs.append(req)
            yield from mpi.waitall(reqs)
        else:
            reqs = []
            for i in range(n):
                req = yield from comm.irecv(source=0, tag=i)
                reqs.append(req)
            statuses = yield from mpi.waitall(reqs)
            assert [s.payload for s in statuses] == list(range(n))
        yield from mpi.finalize()

    _single(machine, main, 2)
