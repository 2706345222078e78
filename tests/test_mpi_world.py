"""World, launcher, partitions, PMPI interception, program API."""

import pytest

from repro.apps.nas.adi import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError, MPIError, ProcessCrashError, SimulationError
from repro.faults.plan import make_plan
from repro.instrument.overhead import InstrumentationCost
from repro.mpi.launcher import MPMDLauncher
from repro.mpi.pmpi import CallRecord, Interceptor
from repro.simt.primitives import Interrupt
from repro.vmpi.virtualization import VirtualizedLauncher


def _noop_app(mpi, work=0.0):
    yield from mpi.init()
    if work:
        yield from mpi.compute(work)
    yield from mpi.comm_world.barrier()
    yield from mpi.finalize()


class TestLauncher:
    def test_single_program(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=4, main=_noop_app)
        world = launcher.run()
        assert world.nranks == 4
        assert world.app_walltime("a") >= 0

    def test_duplicate_program_name_rejected(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=_noop_app)
        with pytest.raises(ConfigError):
            launcher.add_program("a", nprocs=2, main=_noop_app)

    def test_launch_twice_rejected(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=_noop_app)
        launcher.run()
        with pytest.raises(ConfigError):
            launcher.launch()

    def test_no_programs_rejected(self, machine):
        with pytest.raises(ConfigError):
            MPMDLauncher(machine=machine).launch()

    def test_bad_nprocs_rejected(self, machine):
        launcher = MPMDLauncher(machine=machine)
        with pytest.raises(ConfigError):
            launcher.add_program("a", nprocs=0, main=_noop_app)

    def test_partition_layout(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=3, main=_noop_app)
        launcher.add_program("b", nprocs=5, main=_noop_app)
        world = launcher.run()
        a = world.partition_by_name("a")
        b = world.partition_by_name("b")
        assert list(a.global_ranks) == [0, 1, 2]
        assert list(b.global_ranks) == [3, 4, 5, 6, 7]
        assert world.partition_by_name("missing") is None

    def test_missing_finalize_detected(self, machine):
        def bad(mpi):
            yield from mpi.init()
            # forgets finalize

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("bad", nprocs=1, main=bad)
        with pytest.raises(SimulationError, match="finalize"):
            launcher.run()

    def test_missing_init_detected(self, machine):
        def bad(mpi):
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("bad", nprocs=1, main=bad)
        with pytest.raises(SimulationError, match="init"):
            launcher.run()


def _no_finalize(mpi):
    yield from mpi.init()


def _no_init(mpi):
    yield from mpi.finalize()


class TestLifecycleAtReturn:
    """A rank's process is its main: the init/finalize check runs when it ends."""

    @pytest.mark.parametrize("main, what", [(_no_finalize, "finalize"), (_no_init, "init")])
    def test_lifecycle_errors_under_virtualization(self, machine, main, what):
        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("ok", nprocs=2, main=_noop_app)
        launcher.add_program("bad", nprocs=1, main=main)
        with pytest.raises(ProcessCrashError, match=what) as caught:
            launcher.run()
        assert caught.value.process_name == "bad[0]"
        assert isinstance(caught.value.original, MPIError)

    def test_a_joiner_sees_the_lifecycle_error_not_a_success(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("bad", nprocs=1, main=_no_finalize)
        world = launcher.launch()
        process = world.ranks[0].process
        with pytest.raises(MPIError, match="returned without finalize"):
            world.kernel.run(until=process)
        assert not process.ok

    def test_a_ranks_own_error_surfaces_as_itself(self, machine):
        def crashes(mpi):
            yield from mpi.init()
            yield from mpi.compute(1e-6)
            raise ValueError("the application's own bug")

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("app", nprocs=1, main=crashes)
        with pytest.raises(ProcessCrashError, match="own bug") as caught:
            launcher.run()
        assert type(caught.value.original) is ValueError

    def test_a_run_stopped_early_flags_no_live_rank(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=3, main=_noop_app, work=1.0)
        world = launcher.launch()
        world.run(until=0.5)  # every rank is inside its compute phase, none finalized
        assert [ctx.process.is_alive for ctx in world.ranks] == [True] * 3
        assert all(ctx.t_finalize is None for ctx in world.ranks)
        world.run()
        assert world.app_walltime("a") >= 1.0

    def test_an_absorbed_analyzer_crash_completes_the_run(self, machine):
        session = CouplingSession(
            machine=machine, seed=0,
            instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
        )
        name = session.add_application(SP(4, "C", iterations=3))
        session.set_analyzer(nprocs=2)
        session.inject_faults(make_plan("crash1", at=1e-3, seed=0))
        result = session.run()  # the interrupted analyzer raises nothing out of the run
        assert result.apps[name].walltime > 0
        (dead,) = result.faults["dead_ranks"]
        process = result.world.ranks[dead].process
        assert not process.ok and isinstance(process.value, Interrupt)


class TestVirtualization:
    def test_plain_mpmd_shares_world(self, machine):
        sizes = []

        def probe(mpi):
            yield from mpi.init()
            sizes.append(mpi.comm_world.size)
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=probe)
        launcher.add_program("b", nprocs=3, main=probe)
        launcher.run()
        assert sizes == [5] * 5  # everyone sees the full world

    def test_virtualized_worlds_are_partition_scoped(self, machine):
        views = []

        def probe(mpi):
            yield from mpi.init()
            views.append(
                (mpi.partition.name, mpi.comm_world.size, mpi.comm_universe.size)
            )
            yield from mpi.comm_world.barrier()  # partition-local barrier
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=probe)
        launcher.add_program("b", nprocs=3, main=probe)
        launcher.run()
        for name, world_size, universe_size in views:
            assert universe_size == 5
            assert world_size == (2 if name == "a" else 3)

    def test_same_program_unmodified_alone_or_colaunched(self, machine):
        """The transparency property: identical code both ways."""
        results = {}

        def app(mpi, key):
            yield from mpi.init()
            total = yield from mpi.comm_world.allreduce(nbytes=8, payload=mpi.rank)
            results.setdefault(key, []).append(total)
            yield from mpi.finalize()

        solo = VirtualizedLauncher(machine=machine)
        solo.add_program("app", nprocs=4, main=app, key="solo")
        solo.run()

        co = VirtualizedLauncher(machine=machine)
        co.add_program("app", nprocs=4, main=app, key="co")
        co.add_program("other", nprocs=4, main=app, key="other")
        co.run()
        assert results["solo"] == results["co"] == [6, 6, 6, 6]

    def test_universe_enables_cross_partition_p2p(self, machine):
        got = []

        def sender(mpi):
            yield from mpi.init()
            target = mpi.partition_by_name("recv")
            yield from mpi.comm_universe.send(
                target.first_global_rank, nbytes=8, tag=77, payload="hello"
            )
            yield from mpi.finalize()

        def receiver(mpi):
            yield from mpi.init()
            status = yield from mpi.comm_universe.recv(tag=77)
            got.append(status.payload)
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("send", nprocs=1, main=sender)
        launcher.add_program("recv", nprocs=1, main=receiver)
        launcher.run()
        assert got == ["hello"]


class TestProgramAPI:
    def test_wtime_advances(self, machine):
        times = []

        def app(mpi):
            yield from mpi.init()
            t0 = mpi.wtime()
            yield from mpi.compute(1.5)
            times.append(mpi.wtime() - t0)
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        launcher.run()
        assert times == [1.5]

    def test_compute_flops_uses_machine_rate(self, machine):
        spans = []

        def app(mpi):
            yield from mpi.init()
            t0 = mpi.now
            yield from mpi.compute_flops(machine.core_flops_effective * 2.0)
            spans.append(mpi.now - t0)
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        launcher.run()
        assert spans == [pytest.approx(2.0)]

    def test_negative_compute_rejected(self, machine):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.compute(-1)
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        with pytest.raises(SimulationError):
            launcher.run()

    def test_double_finalize_rejected(self, machine):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.finalize()
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        with pytest.raises(SimulationError, match="double finalize"):
            launcher.run()

    def test_posix_calls_validated(self, machine):
        def app(mpi):
            yield from mpi.init()
            yield from mpi.posix("unlink")
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        with pytest.raises(SimulationError):
            launcher.run()

    def test_app_walltime_requires_completion(self, machine):
        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=_noop_app)
        world = launcher.launch()
        with pytest.raises(MPIError):
            world.app_walltime("a")
        world.run()
        assert world.app_walltime("a") >= 0


class TestPMPI:
    def test_interceptor_sees_calls_in_order(self, machine):
        calls = []

        class Recorder(Interceptor):
            def on_exit(self, ctx, record: CallRecord):
                calls.append(record.name)

        def app(mpi):
            mpi.ctx.pmpi.attach(Recorder())
            yield from mpi.init()
            yield from mpi.comm_world.barrier()
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        launcher.run()
        assert calls == ["MPI_Init", "MPI_Barrier", "MPI_Finalize"]

    def test_interceptor_charges_time(self, machine):
        class Expensive(Interceptor):
            def on_exit(self, ctx, record):
                return 0.25  # seconds per call

        spans = {}

        def app(mpi, key, intercept):
            if intercept:
                mpi.ctx.pmpi.attach(Expensive())
            yield from mpi.init()
            yield from mpi.comm_world.barrier()
            yield from mpi.finalize()
            spans[key] = mpi.now

        for key, flag in (("plain", False), ("hooked", True)):
            launcher = MPMDLauncher(machine=machine)
            launcher.add_program("a", nprocs=1, main=app, key=key, intercept=flag)
            launcher.run()
        assert spans["hooked"] >= spans["plain"] + 0.74  # three calls x 0.25

    def test_interceptor_detached_after_finalize(self, machine):
        events = []

        class Tracker(Interceptor):
            def on_detach(self, ctx):
                events.append("detached")

        def app(mpi):
            mpi.ctx.pmpi.attach(Tracker())
            yield from mpi.init()
            yield from mpi.finalize()
            assert not mpi.ctx.pmpi.active

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        launcher.run()
        assert events == ["detached"]

    def test_record_fields_for_p2p(self, machine):
        records = []

        class Recorder(Interceptor):
            def on_exit(self, ctx, record):
                if record.name in ("MPI_Send", "MPI_Recv"):
                    records.append(record)

        def app(mpi):
            mpi.ctx.pmpi.attach(Recorder())
            yield from mpi.init()
            comm = mpi.comm_world
            if comm.rank == 0:
                yield from comm.send(1, nbytes=512, tag=6)
            else:
                yield from comm.recv()
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=2, main=app)
        launcher.run()
        send = next(r for r in records if r.name == "MPI_Send")
        recv = next(r for r in records if r.name == "MPI_Recv")
        assert send.peer == 1 and send.nbytes == 512 and send.tag == 6
        # Wildcard receive resolved by the post hook:
        assert recv.peer == 0 and recv.nbytes == 512 and recv.tag == 6
        assert recv.t_end >= recv.t_start

    def test_bad_hook_return_type_rejected(self, machine):
        class Broken(Interceptor):
            def on_exit(self, ctx, record):
                return "oops"

        def app(mpi):
            mpi.ctx.pmpi.attach(Broken())
            yield from mpi.init()
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("a", nprocs=1, main=app)
        with pytest.raises(SimulationError):
            launcher.run()
