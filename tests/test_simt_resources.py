"""Resource, Store and Pipe semantics."""

import pytest

from repro.errors import SimulationError
from repro.simt import Pipe, Resource, Store


class TestResource:
    def test_capacity_validation(self, kernel):
        with pytest.raises(SimulationError):
            Resource(kernel, capacity=0)

    def test_acquire_release_fifo(self, kernel):
        res = Resource(kernel, capacity=1)
        order = []

        def worker(k, name, hold):
            yield res.acquire()
            order.append((name, k.now))
            yield k.timeout(hold)
            res.release()

        kernel.spawn(worker(kernel, "a", 2.0))
        kernel.spawn(worker(kernel, "b", 1.0))
        kernel.spawn(worker(kernel, "c", 1.0))
        kernel.run()
        assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]

    def test_capacity_two_runs_concurrently(self, kernel):
        res = Resource(kernel, capacity=2)
        done = []

        def worker(k, name):
            yield res.acquire()
            yield k.timeout(1.0)
            res.release()
            done.append((name, k.now))

        for name in "abc":
            kernel.spawn(worker(kernel, name))
        kernel.run()
        assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]

    def test_release_idle_raises(self, kernel):
        res = Resource(kernel)
        with pytest.raises(SimulationError):
            res.release()

    def test_queue_length(self, kernel):
        res = Resource(kernel, capacity=1)

        def holder(k):
            yield res.acquire()
            yield k.timeout(5.0)
            res.release()

        def waiter(k):
            yield res.acquire()
            res.release()

        kernel.spawn(holder(kernel))
        kernel.spawn(waiter(kernel))
        kernel.run(until=1.0)
        assert res.queue_length == 1
        kernel.run()
        assert res.queue_length == 0


class TestStore:
    def test_put_get_fifo(self, kernel):
        store = Store(kernel)
        got = []

        def producer(k):
            for i in range(3):
                yield store.put(i)

        def consumer(k):
            for _ in range(3):
                value = yield store.get()
                got.append(value)

        kernel.spawn(producer(kernel))
        kernel.spawn(consumer(kernel))
        kernel.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, kernel):
        store = Store(kernel)
        got = []

        def consumer(k):
            value = yield store.get()
            got.append((value, k.now))

        def producer(k):
            yield k.timeout(3.0)
            yield store.put("x")

        kernel.spawn(consumer(kernel))
        kernel.spawn(producer(kernel))
        kernel.run()
        assert got == [("x", 3.0)]

    def test_bounded_put_blocks(self, kernel):
        store = Store(kernel, capacity=1)
        events = []

        def producer(k):
            yield store.put(1)
            events.append(("put1", k.now))
            yield store.put(2)
            events.append(("put2", k.now))

        def consumer(k):
            yield k.timeout(4.0)
            value = yield store.get()
            events.append(("got", value, k.now))

        kernel.spawn(producer(kernel))
        kernel.spawn(consumer(kernel))
        kernel.run()
        assert ("put1", 0.0) in events
        assert ("put2", 4.0) in events

    def test_try_get(self, kernel):
        store = Store(kernel)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put("v")
        kernel.run()
        ok, item = store.try_get()
        assert ok and item == "v"

    def test_capacity_validation(self, kernel):
        with pytest.raises(SimulationError):
            Store(kernel, capacity=0)

    def test_len(self, kernel):
        store = Store(kernel)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestPipe:
    def test_bandwidth_validation(self, kernel):
        with pytest.raises(SimulationError):
            Pipe(kernel, bandwidth=0)
        with pytest.raises(SimulationError):
            Pipe(kernel, bandwidth=10, latency=-1)

    def test_single_transfer_duration(self, kernel):
        pipe = Pipe(kernel, bandwidth=100.0, latency=0.25)

        def proc(k):
            yield pipe.transfer(50)
            return k.now

        p = kernel.spawn(proc(kernel))
        kernel.run()
        assert p.value == pytest.approx(0.75)  # 0.5 transfer + 0.25 latency

    def test_transfers_serialize(self, kernel):
        pipe = Pipe(kernel, bandwidth=100.0)
        times = []

        def sender(k):
            yield pipe.transfer(100)
            times.append(k.now)
            yield pipe.transfer(100)
            times.append(k.now)

        kernel.spawn(sender(kernel))
        kernel.run()
        assert times == [1.0, 2.0]

    def test_concurrent_transfers_share_bandwidth(self, kernel):
        pipe = Pipe(kernel, bandwidth=100.0)
        times = []

        def sender(k, name):
            yield pipe.transfer(100)
            times.append((name, k.now))

        kernel.spawn(sender(kernel, "a"))
        kernel.spawn(sender(kernel, "b"))
        kernel.run()
        # FIFO: a finishes at 1s, b at 2s — aggregate never beats bandwidth.
        assert times == [("a", 1.0), ("b", 2.0)]

    def test_commit_returns_absolute_time(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0, latency=0.5)
        assert pipe.commit(10) == pytest.approx(1.5)
        assert pipe.commit(10) == pytest.approx(2.5)

    def test_negative_transfer_rejected(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0)
        with pytest.raises(SimulationError):
            pipe.transfer(-1)

    @pytest.mark.parametrize("nbytes", [float("nan"), -1, -0.5])
    def test_nan_and_negative_commits_leave_the_pipe_untouched(self, kernel, nbytes):
        # A NaN size would make _busy_until NaN and every later completion
        # time with it.
        pipe = Pipe(kernel, bandwidth=10.0, latency=0.5)
        with pytest.raises(SimulationError, match=">= 0"):
            pipe.commit(nbytes)
        assert (pipe.transfers, pipe.bytes_transferred, pipe.busy_time) == (0, 0, 0.0)
        assert pipe.commit(10) == pytest.approx(1.5)

    def test_stats_accumulate(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0)

        def proc(k):
            yield pipe.transfer(10)
            yield pipe.transfer(20)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert pipe.bytes_transferred == 30
        assert pipe.transfers == 2
        assert pipe.busy_time == pytest.approx(3.0)
        assert pipe.utilization() == pytest.approx(1.0)

    def test_idle_pipe_catches_up_with_now(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0)
        times = []

        def proc(k):
            yield pipe.transfer(10)  # done at 1.0
            yield k.timeout(10.0)  # idle gap
            yield pipe.transfer(10)  # starts fresh at 11.0
            times.append(k.now)

        kernel.spawn(proc(kernel))
        kernel.run()
        assert times == [12.0]
        assert pipe.backlog_seconds == 0.0

    def test_eta_has_no_side_effects(self, kernel):
        pipe = Pipe(kernel, bandwidth=10.0)
        eta1 = pipe.eta(10)
        eta2 = pipe.eta(10)
        assert eta1 == eta2 == pytest.approx(1.0)
        assert pipe.bytes_transferred == 0
