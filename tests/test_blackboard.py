"""Blackboard engine: entries, KS triggering, jobs, ref-counting, multilevel."""

import threading

import pytest

from repro.errors import BlackboardError, UnknownTypeError
from repro.blackboard.board import Blackboard
from repro.blackboard.multilevel import MultiLevelBlackboard
from repro.blackboard.workers import ThreadPool
from repro.blackboard.entry import DataEntry, TypeRegistry
from repro.blackboard.jobs import Job, JobQueues
from repro.blackboard.ks import KnowledgeSource
from repro.telemetry.core import Telemetry


class TestTypeRegistry:
    def test_register_idempotent(self):
        reg = TypeRegistry()
        a = reg.register("events", level="app0")
        b = reg.register("events", level="app0")
        assert a == b

    def test_level_scoping(self):
        reg = TypeRegistry()
        a = reg.register("events", level="app0")
        b = reg.register("events", level="app1")
        assert a != b

    def test_lookup_unknown_raises(self):
        reg = TypeRegistry()
        with pytest.raises(UnknownTypeError):
            reg.lookup("missing")

    def test_name_of_roundtrip(self):
        reg = TypeRegistry()
        tid = reg.register("x", level="lvl")
        assert reg.lookup("x", level="lvl") == tid

    def test_len(self):
        reg = TypeRegistry()
        reg.register("a")
        reg.register("b")
        assert len(reg) == 2


class TestDataEntry:
    def test_refcount_lifecycle(self):
        e = DataEntry(1, 10, b"payload")
        assert e.refs == 1 and e.writable
        e.retain()
        assert e.refs == 2 and not e.writable
        assert not e.release()
        assert e.release()  # last ref frees
        assert e.freed

    def test_payload_access_after_free_rejected(self):
        e = DataEntry(1, 0, "x")
        e.release()
        with pytest.raises(BlackboardError):
            _ = e.payload
        with pytest.raises(BlackboardError):
            e.retain()
        with pytest.raises(BlackboardError):
            e.release()

    def test_negative_size_rejected(self):
        with pytest.raises(BlackboardError):
            DataEntry(1, -1, None)


class TestKnowledgeSource:
    def test_needs_sensitivities(self):
        with pytest.raises(BlackboardError):
            KnowledgeSource("ks", [], lambda b, e: None)

    def test_single_sensitivity_fires_per_entry(self):
        ks = KnowledgeSource("ks", [5], lambda b, e: None)
        e = DataEntry(5, 0, None)
        assert ks.offer(e) == [e]

    def test_multi_sensitivity_waits_for_all(self):
        ks = KnowledgeSource("join", [1, 2], lambda b, e: None)
        e1 = DataEntry(1, 0, "a")
        assert ks.offer(e1) is None
        e2 = DataEntry(2, 0, "b")
        assert ks.offer(e2) == [e1, e2]

    def test_duplicate_sensitivity_consumes_two(self):
        ks = KnowledgeSource("pair", [7, 7], lambda b, e: None)
        e1, e2, e3, e4 = (DataEntry(7, 0, i) for i in range(4))
        assert ks.offer(e1) is None
        job = ks.offer(e2)
        assert job == [e1, e2]
        assert ks.offer(e3) is None
        assert ks.offer(e4) == [e3, e4]  # e3 was kept pending

    def test_foreign_type_rejected(self):
        ks = KnowledgeSource("ks", [1], lambda b, e: None)
        with pytest.raises(BlackboardError):
            ks.offer(DataEntry(2, 0, None))


class TestJobQueues:
    def test_validation(self):
        with pytest.raises(BlackboardError):
            JobQueues(nqueues=0)

    def test_push_pop_all(self):
        q = JobQueues(nqueues=4, seed=1)
        ks = KnowledgeSource("ks", [1], lambda b, e: None)
        jobs = [Job(ks=ks, entries=[]) for _ in range(20)]
        for job in jobs:
            q.push_many((job,))
        assert len(q) == 20
        popped = []
        while True:
            job = q.try_pop()
            if job is None:
                break
            popped.append(job)
        assert len(popped) == 20 and q.empty

    def test_pop_empty_returns_none(self):
        q = JobQueues(nqueues=2)
        assert q.try_pop() is None

    def test_a_sweep_locks_only_the_fifos_that_hold_jobs(self):
        # The locks of the FIFOs without a job are held elsewhere: a sweep
        # neither waits for them nor counts them as contention.
        q = JobQueues(nqueues=4, seed=3)

        def sweep():
            out = []
            worker = threading.Thread(target=lambda: out.append(q.try_pop(start=0)), daemon=True)
            worker.start()
            worker.join(timeout=5)
            assert not worker.is_alive(), "try_pop blocked on an idle FIFO"
            return out[0]

        held = list(q._locks)
        for lock in held:
            lock.acquire()
        try:
            assert sweep() is None  # every FIFO empty: an answer, no lock taken
        finally:
            for lock in held:
                lock.release()
        job = Job(KnowledgeSource("ks", [1], lambda b, e: None), [])
        q.push_many([job])
        held = [lock for lock, fifo in zip(q._locks, q._queues) if not fifo]
        for lock in held:
            lock.acquire()
        try:
            assert sweep() is job
        finally:
            for lock in held:
                lock.release()
        assert q.lock_failures == 0 and q.popped == 1 and q.empty


class TestBlackboard:
    def test_submit_unregistered_type_rejected(self):
        b = Blackboard()
        with pytest.raises(UnknownTypeError):
            b.submit(123456, None)

    def test_ks_with_unregistered_sensitivity_rejected(self):
        b = Blackboard()
        with pytest.raises(UnknownTypeError):
            b.register_ks("ks", [999], lambda bd, e: None)

    def test_chained_ks_dataflow(self):
        """Paper Figure 4: pack -> unpack -> per-event analyses."""
        b = Blackboard(seed=3)
        t_pack = b.register_type("pack")
        t_event = b.register_type("event")
        profile = []
        topo = []

        def unpack(board, entries):
            for e in entries:
                for item in e.payload:
                    board.submit(t_event, item, size=8)

        b.register_ks("unpacker", [t_pack], unpack)
        b.register_ks("profiler", [t_event], lambda bd, es: profile.append(es[0].payload))
        b.register_ks("topology", [t_event], lambda bd, es: topo.append(es[0].payload))
        b.submit(t_pack, ["e1", "e2"])
        b.run_until_idle()
        assert sorted(profile) == ["e1", "e2"]
        assert sorted(topo) == ["e1", "e2"]

    def test_buffer_freed_after_all_consumers(self):
        b = Blackboard()
        t = b.register_type("t")
        b.register_ks("a", [t], lambda bd, es: None)
        b.register_ks("b", [t], lambda bd, es: None)
        entry = b.submit(t, b"x" * 100, size=100)
        assert not entry.freed  # two consumers still hold references
        b.run_until_idle()
        assert entry.freed
        assert b.stats()["bytes_current"] == 0
        assert b.stats()["bytes_peak"] == 100

    def test_entry_without_consumers_freed_immediately(self):
        b = Blackboard()
        t = b.register_type("orphan")
        entry = b.submit(t, "data", size=4)
        assert entry.freed

    def test_dynamic_ks_registration_from_operation(self):
        """Opportunistic reasoning: a KS installs another KS."""
        b = Blackboard()
        t = b.register_type("t")
        late = []

        def bootstrap(board, entries):
            board.register_ks("late", [t], lambda bd, es: late.append(es[0].payload))

        ks = b.register_ks("bootstrap", [t], bootstrap)
        b.submit(t, "first")
        b.run_until_idle()
        assert late == []  # late KS was not yet installed for "first"
        b.remove_ks(ks)
        b.submit(t, "second")
        b.run_until_idle()
        assert late == ["second"]

    def test_ks_self_removal(self):
        b = Blackboard()
        t = b.register_type("t")
        fired = []

        def once(board, entries):
            fired.append(entries[0].payload)
            board.remove_ks(ks)

        ks = b.register_ks("once", [t], once)
        b.submit(t, 1)
        b.run_until_idle()
        b.submit(t, 2)
        b.run_until_idle()
        assert fired == [1]

    def test_remove_unknown_ks_rejected(self):
        b = Blackboard()
        t = b.register_type("t")
        ks = KnowledgeSource("ghost", [t], lambda bd, e: None)
        with pytest.raises(BlackboardError):
            b.remove_ks(ks)

    def test_stats_counters(self):
        b = Blackboard()
        t = b.register_type("t")
        b.register_ks("ks", [t], lambda bd, es: None)
        for i in range(5):
            b.submit(t, i, size=10)
        executed = b.run_until_idle()
        s = b.stats()
        assert executed == 5
        assert s["entries_submitted"] == 5
        assert s["jobs_executed"] == 5
        assert s["bytes_total"] == 50

    def test_listeners_follow_registration_and_removal(self):
        b = Blackboard()
        t = b.register_type("t")
        seen = []
        first = b.register_ks("first", [t], lambda bd, es: seen.append("first"))
        b.register_ks("second", [t], lambda bd, es: seen.append("second"))
        b.submit(t, 1)
        b.run_until_idle()
        b.remove_ks(first)
        b.submit(t, 2)
        b.run_until_idle()
        assert seen == ["first", "second", "second"]

    def test_telemetry_instruments_appear_when_first_observed(self):
        tel = Telemetry()
        b = Blackboard(telemetry=tel)
        t = b.register_type("t")
        b.register_ks("ks", [t], lambda bd, es: None)
        b.register_ks("idle", [b.register_type("u")], lambda bd, es: None)
        assert not any(name.startswith("blackboard.") for name in tel.histograms)
        for i in range(3):
            b.submit(t, i)
        b.run_until_idle()
        assert list(tel.histograms) == [
            "blackboard.job_cpu_s", "blackboard.ks_cpu_s.ks", "blackboard.job_dwell_s",
        ]
        assert tel.counters["blackboard.jobs_executed"].value == 3
        assert tel.histograms["blackboard.ks_cpu_s.ks"].count == 3

    def test_run_until_idle_max_jobs(self):
        b = Blackboard()
        t = b.register_type("t")
        b.register_ks("ks", [t], lambda bd, es: None)
        for i in range(5):
            b.submit(t, i)
        assert b.run_until_idle(max_jobs=2) == 2
        assert b.run_until_idle() == 3


class TestThreadPool:
    def test_parallel_execution_correct(self):
        b = Blackboard(nqueues=8, seed=5)
        t = b.register_type("n")
        results = []
        lock = threading.Lock()

        def work(board, entries):
            value = entries[0].payload
            with lock:
                results.append(value * 2)

        b.register_ks("doubler", [t], work)
        with ThreadPool(b, nworkers=4, seed=9):
            for i in range(300):
                b.submit(t, i)
        assert sorted(results) == [2 * i for i in range(300)]

    def test_workers_validation(self):
        b = Blackboard()
        with pytest.raises(BlackboardError):
            ThreadPool(b, nworkers=0)

    def test_double_start_rejected(self):
        b = Blackboard()
        pool = ThreadPool(b, nworkers=1)
        pool.start()
        try:
            with pytest.raises(BlackboardError):
                pool.start()
        finally:
            pool.stop()

    def test_chained_submission_under_threads(self):
        b = Blackboard(nqueues=4, seed=2)
        t_in = b.register_type("in")
        t_out = b.register_type("out")
        final = []
        lock = threading.Lock()

        def stage1(board, entries):
            board.submit(t_out, entries[0].payload + 1)

        def stage2(board, entries):
            with lock:
                final.append(entries[0].payload)

        b.register_ks("s1", [t_in], stage1)
        b.register_ks("s2", [t_out], stage2)
        with ThreadPool(b, nworkers=3):
            for i in range(100):
                b.submit(t_in, i)
        assert sorted(final) == list(range(1, 101))


class TestMultiLevel:
    def _pack(self, app_id, nevents=2):
        from repro.instrument.packer import EventPackBuilder
        from repro.mpi.pmpi import CallRecord

        pb = EventPackBuilder(app_id=app_id, rank=0)
        for _ in range(nevents):
            pb.add(
                CallRecord(
                    "MPI_Send", 0.0, 1.0, 0, 0, 4, peer=1, tag=0, nbytes=10
                )
            )
        return pb.emit()

    def test_dispatch_by_app_id(self):
        ml = MultiLevelBlackboard(levels=["a", "b"])
        seen = {"a": [], "b": []}
        for level in ml.levels:
            ml.register_ks(
                "sink",
                [("event_pack", level)],
                (lambda lv: lambda bd, es: seen[lv].append(es[0].size))(level),
            )
        ml.submit_pack(self._pack(0))
        ml.submit_pack(self._pack(1))
        ml.submit_pack(self._pack(0))
        ml.board.run_until_idle()
        assert len(seen["a"]) == 2 and len(seen["b"]) == 1
        assert ml.dispatched == {"a": 2, "b": 1}

    def test_same_ks_name_cohabits_across_levels(self):
        # The same KS registered once per level (paper Figure 5) listens to
        # two distinct type ids: type ids hash the level with the name.
        ml = MultiLevelBlackboard(levels=["x", "y"])
        x, y = (
            ml.register_ks("profiler", [("event_pack", lv)], lambda bd, es: None)
            for lv in ml.levels
        )
        assert x.name == y.name and x.sensitivity_types != y.sensitivity_types

    def test_unknown_app_id_rejected(self):
        ml = MultiLevelBlackboard(levels=["only"])
        ml.submit_pack(self._pack(3))
        with pytest.raises(BlackboardError):
            ml.board.run_until_idle()

    def test_level_validation(self):
        with pytest.raises(BlackboardError):
            MultiLevelBlackboard(levels=[])
        with pytest.raises(BlackboardError):
            MultiLevelBlackboard(levels=["a", "a"])
        ml = MultiLevelBlackboard(levels=["a"])
        with pytest.raises(BlackboardError):
            ml.type_id("t", "missing_level")
