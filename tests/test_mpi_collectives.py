"""Collective operations: data semantics, synchronization, mismatch detection."""

import pytest

from repro.errors import SimulationError
from repro.mpi.launcher import MPMDLauncher
from repro.mpi.collectives import numeric_max, numeric_min
from repro.mpi.costmodel import CostModel


def _single(machine, main, nprocs, **kwargs):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program("t", nprocs=nprocs, main=main, **kwargs)
    return launcher.run()


def test_barrier_synchronizes(machine):
    after = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        yield from mpi.compute(comm.rank * 0.1)  # staggered arrivals
        yield from comm.barrier()
        after.append(mpi.now)
        yield from mpi.finalize()

    _single(machine, main, 4)
    assert max(after) - min(after) < 1e-12  # all released together
    assert min(after) >= 0.3  # not before the last arrival


def test_bcast_value(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        value = yield from comm.bcast(
            nbytes=64, root=2, payload=("data", 42) if comm.rank == 2 else None
        )
        got.append(value)
        yield from mpi.finalize()

    _single(machine, main, 4)
    assert got == [("data", 42)] * 4


def test_reduce_to_root_only(machine):
    got = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        value = yield from comm.reduce(nbytes=8, root=1, payload=comm.rank + 1)
        got[comm.rank] = value
        yield from mpi.finalize()

    _single(machine, main, 4)
    assert got[1] == 10  # 1+2+3+4
    assert got[0] is None and got[2] is None and got[3] is None


def test_allreduce_sum_everywhere(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        value = yield from comm.allreduce(nbytes=8, payload=comm.rank)
        got.append(value)
        yield from mpi.finalize()

    _single(machine, main, 5)
    assert got == [10] * 5


def test_allreduce_min_max_reducers(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        lo = yield from comm.allreduce(nbytes=8, payload=comm.rank, reduce_fn=numeric_min)
        hi = yield from comm.allreduce(nbytes=8, payload=comm.rank, reduce_fn=numeric_max)
        got.append((lo, hi))
        yield from mpi.finalize()

    _single(machine, main, 4)
    assert got == [(0, 3)] * 4


def test_gather_ordered(machine):
    got = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        value = yield from comm.gather(nbytes=8, root=0, payload=f"r{comm.rank}")
        got[comm.rank] = value
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert got[0] == ["r0", "r1", "r2"]
    assert got[1] is None


def test_allgather(machine):
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        value = yield from comm.allgather(nbytes=8, payload=comm.rank * 2)
        got.append(value)
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert got == [[0, 2, 4]] * 3


def test_scatter(machine):
    got = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        payload = ["a", "b", "c"] if comm.rank == 0 else None
        value = yield from comm.scatter(nbytes=8, root=0, payload=payload)
        got[comm.rank] = value
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert got == {0: "a", 1: "b", 2: "c"}


def test_alltoall_redistribution(machine):
    got = {}

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        row = [f"{comm.rank}->{j}" for j in range(comm.size)]
        value = yield from comm.alltoall(nbytes=16, payload=row)
        got[comm.rank] = value
        yield from mpi.finalize()

    _single(machine, main, 3)
    for r in range(3):
        assert got[r] == [f"{i}->{r}" for i in range(3)]


def test_collective_mismatch_detected(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.allreduce(nbytes=8)
        yield from mpi.finalize()

    with pytest.raises(SimulationError, match="collective mismatch"):
        _single(machine, main, 2)


def test_root_mismatch_detected(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        yield from comm.bcast(nbytes=8, root=comm.rank)
        yield from mpi.finalize()

    with pytest.raises(SimulationError, match="root mismatch"):
        _single(machine, main, 2)


def test_collective_cost_grows_with_ranks(machine):
    cost = CostModel()
    c4 = cost.collective_cost("allreduce", 4, 1024)
    c64 = cost.collective_cost("allreduce", 64, 1024)
    assert c64 > c4


def test_collective_cost_grows_with_bytes(machine):
    cost = CostModel()
    small = cost.collective_cost("bcast", 16, 1024)
    big = cost.collective_cost("bcast", 16, 1024 * 1024)
    assert big > small


def test_collective_cost_single_rank_trivial():
    cost = CostModel()
    assert cost.collective_cost("alltoall", 1, 10**9) == cost.o_send


def test_unknown_collective_rejected():
    from repro.errors import ConfigError

    cost = CostModel()
    with pytest.raises(ConfigError):
        cost.collective_cost("gossip", 4, 8)


def test_successive_collectives_match_by_sequence(machine):
    """Two back-to-back allreduces never cross-match."""
    got = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        first = yield from comm.allreduce(nbytes=8, payload=1)
        second = yield from comm.allreduce(nbytes=8, payload=10)
        got.append((first, second))
        yield from mpi.finalize()

    _single(machine, main, 3)
    assert got == [(3, 30)] * 3


def test_comm_split_subgroups(machine):
    sizes = []

    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
        sizes.append((comm.rank, sub.size, sub.rank))
        total = yield from sub.allreduce(nbytes=8, payload=comm.rank)
        if comm.rank % 2 == 0:
            assert total == 0 + 2
        else:
            assert total == 1 + 3
        yield from mpi.finalize()

    _single(machine, main, 4)
    assert all(size == 2 for _r, size, _nr in sizes)


def test_comm_dup_independent_matching(machine):
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        dup = yield from comm.dup()
        assert dup.id != comm.id
        # p2p on the dup does not cross into the original comm.
        if comm.rank == 0:
            yield from dup.send(1, nbytes=8, tag=0, payload="dup")
            yield from comm.send(1, nbytes=8, tag=0, payload="orig")
        else:
            st_orig = yield from comm.recv(source=0, tag=0)
            st_dup = yield from dup.recv(source=0, tag=0)
            assert st_orig.payload == "orig"
            assert st_dup.payload == "dup"
        yield from mpi.finalize()

    _single(machine, main, 2)
