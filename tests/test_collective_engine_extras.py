"""Collective engine internals: release timing, payload folding edge cases."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi.launcher import MPMDLauncher
from repro.mpi.collectives import _compute_results, _fold, _PendingOp


def _single(machine, main, nprocs, **kwargs):
    launcher = MPMDLauncher(machine=machine)
    launcher.add_program("t", nprocs=nprocs, main=main, **kwargs)
    return launcher.run()


class TestFolding:
    def test_fold_skips_none(self):
        assert _fold([1, None, 2], None) == 3

    def test_fold_all_none(self):
        assert _fold([None, None], None) is None

    def test_fold_numpy_arrays(self):
        out = _fold([np.array([1, 2]), np.array([3, 4])], None)
        assert (out == np.array([4, 6])).all()

    def test_custom_fold(self):
        assert _fold([5, 3, 9], lambda a, b: max(a, b)) == 9


class TestComputeResults:
    def _op(self, op, contribs, root=0, reduce_fn=None):
        pending = _PendingOp(op, root, reduce_fn)
        pending.contribs = dict(enumerate(contribs))
        pending.completions = {r: None for r in range(len(contribs))}
        return _compute_results(pending, len(contribs))

    def test_scatter_payload_shape_checked(self):
        with pytest.raises(MPIError):
            self._op("scatter", [["a", "b"], None, None])  # wrong length at root

    def test_scatter_none_payload_ok(self):
        out = self._op("scatter", [None, None])
        assert out == {0: None, 1: None}

    def test_alltoall_payload_shape_checked(self):
        with pytest.raises(MPIError):
            self._op("alltoall", [["x"], ["a", "b"]])

    def test_alltoall_with_missing_contributions(self):
        out = self._op("alltoall", [None, ["a", "b"]])
        assert out[0] == [None, "a"]
        assert out[1] == [None, "b"]

    def test_unknown_op_rejected(self):
        with pytest.raises(MPIError):
            self._op("gossip", [1, 2])

    def test_reduce_scatter_gives_fold_to_all(self):
        out = self._op("reduce_scatter", [1, 2, 3])
        assert out == {0: 6, 1: 6, 2: 6}


class TestReleaseSemantics:
    def test_all_ranks_released_at_same_instant(self, machine):
        release_times = []

        def main(mpi):
            yield from mpi.init()
            comm = mpi.comm_world
            yield from mpi.compute(0.01 * (comm.rank + 1))
            yield from comm.allreduce(nbytes=1024)
            release_times.append(mpi.now)
            yield from mpi.finalize()

        _single(machine, main, 6)
        assert max(release_times) - min(release_times) < 1e-12

    def test_collective_duration_exceeds_arrival_spread(self, machine):
        """Completion happens after the last arrival plus the modelled cost."""
        t_done = []

        def main(mpi):
            yield from mpi.init()
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from mpi.compute(0.5)  # last arriver
            yield from comm.barrier()
            t_done.append(mpi.now)
            yield from mpi.finalize()

        _single(machine, main, 4)
        assert all(t >= 0.5 for t in t_done)

    def test_engine_cleanup_after_completion(self, machine):
        def main(mpi):
            yield from mpi.init()
            comm = mpi.comm_world
            for _ in range(5):
                yield from comm.barrier()
            assert comm.group.coll.in_flight == 0
            assert comm.group.coll.completed_ops == 5
            yield from mpi.finalize()

        _single(machine, main, 3)

    def test_interleaved_collectives_on_two_comms(self, machine):
        """Collectives on dup'ed communicators are sequenced independently."""
        out = []

        def main(mpi):
            yield from mpi.init()
            comm = mpi.comm_world
            dup = yield from comm.dup()
            a = yield from dup.allreduce(nbytes=8, payload=1)
            b = yield from comm.allreduce(nbytes=8, payload=10)
            c = yield from dup.allreduce(nbytes=8, payload=100)
            out.append((a, b, c))
            yield from mpi.finalize()

        _single(machine, main, 4)
        assert out == [(4, 40, 400)] * 4
