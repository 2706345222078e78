"""Parallel file-system model: data path, metadata contention, SIONlib."""

import pytest

from repro.errors import IOSimError
from repro.iosim.file import SimFile
from repro.iosim.filesystem import ParallelFS
from repro.iosim.sionlib import SionFile
from repro.simt.kernel import Kernel


@pytest.fixture
def fs(machine):
    return ParallelFS(Kernel(), machine, job_cores=machine.total_cores)


def _run(fs, gen):
    proc = fs.kernel.spawn(gen)
    fs.kernel.run()
    return proc.value


class TestParallelFS:
    def test_job_bandwidth_scales_with_cores(self, machine):
        kernel = Kernel()
        small = ParallelFS(kernel, machine, job_cores=machine.total_cores // 2)
        assert small.job_bandwidth == pytest.approx(machine.fs_bandwidth_total / 2)

    def test_job_cores_validated(self, machine):
        with pytest.raises(IOSimError):
            ParallelFS(Kernel(), machine, job_cores=0)

    def test_metadata_ops_serialize(self, fs, machine):
        done = []

        def client(k, name):
            yield from fs.metadata_op()
            done.append((name, k.now))

        for name in "abc":
            fs.kernel.spawn(client(fs.kernel, name))
        fs.kernel.run()
        lat = machine.fs_metadata_latency
        assert [t for _n, t in done] == pytest.approx([lat, 2 * lat, 3 * lat])
        assert fs.metadata_ops == 3

    def test_metadata_service_scale(self, fs, machine):
        def client(k):
            yield from fs.metadata_op(service_scale=0.1)
            return k.now

        t = _run(fs, client(fs.kernel))
        assert t == pytest.approx(machine.fs_metadata_latency * 0.1)

    def test_metadata_scale_validated(self, fs):
        with pytest.raises(IOSimError):
            list(fs.metadata_op(service_scale=0.0))

    def test_stripe_cap_limits_single_stream(self, fs, machine):
        """A single writer cannot exceed the stripe bandwidth."""
        nbytes = int(machine.fs_stripe_bandwidth)  # 1 second at stripe speed

        def writer(k):
            yield fs.raw_write(nbytes)
            return k.now

        t = _run(fs, writer(fs.kernel))
        assert t >= 1.0 * 0.999

    def test_aggregate_bandwidth_shared(self, machine):
        kernel = Kernel()
        fs = ParallelFS(kernel, machine, job_cores=machine.total_cores)
        # Write 2 seconds worth of aggregate bandwidth from many clients.
        total = int(2 * fs.job_bandwidth)
        per_client = total // 20
        done = []

        def writer(k):
            yield fs.raw_write(per_client)
            done.append(k.now)

        for _ in range(20):
            kernel.spawn(writer(kernel))
        kernel.run()
        assert max(done) >= 1.99

    def test_negative_write_rejected(self, fs):
        with pytest.raises(IOSimError):
            fs.raw_write(-1)

    def test_read_accounting(self, fs):
        def reader(k):
            yield fs.raw_read(1000)

        _run(fs, reader(fs.kernel))
        assert fs.bytes_read == 1000


class TestSimFile:
    def test_lifecycle(self, fs):
        f = SimFile(fs, "/scratch/trace.0")

        def user(k):
            yield from f.open()
            yield from f.write(500)
            yield from f.write(700)
            yield from f.close()

        _run(fs, user(fs.kernel))
        assert f.size == 1200
        assert f.writes == 2
        assert not f.is_open
        assert fs.files_created == 1
        assert fs.metadata_ops == 2  # open + close

    def test_write_requires_open(self, fs):
        f = SimFile(fs, "/x")
        with pytest.raises(IOSimError):
            list(f.write(10))

    def test_double_open_rejected(self, fs):
        from repro.errors import SimulationError

        f = SimFile(fs, "/x")

        def user(k):
            yield from f.open()
            yield from f.open()

        # The crash surfaces through the kernel, chained to the IOSimError.
        with pytest.raises(SimulationError, match="already open") as excinfo:
            _run(fs, user(fs.kernel))
        assert isinstance(excinfo.value.__cause__, IOSimError)

    def test_close_closed_rejected(self, fs):
        f = SimFile(fs, "/x")
        with pytest.raises(IOSimError):
            list(f.close())


class TestSionFile:
    def test_container_sharing(self, fs):
        sion = SionFile(fs, "trace.sion", tasks_per_file=4)

        def user(k):
            for task in range(8):
                yield from sion.open_task(task)
                yield from sion.write_task(task, 1000)
            return None

        _run(fs, user(fs.kernel))
        assert sion.containers_used == 2
        assert fs.metadata_ops == 2  # one per container, not per task
        assert sion.logical_size == 8000

    def test_block_alignment_padding(self, fs):
        sion = SionFile(fs, "t.sion")

        def user(k):
            yield from sion.open_task(0)
            yield from sion.write_task(0, 1)

        _run(fs, user(fs.kernel))
        assert sion.physical_size == SionFile.BLOCK_SIZE
        assert sion.task_size(0) == 1

    def test_write_before_open_rejected(self, fs):
        sion = SionFile(fs, "t.sion")
        with pytest.raises(IOSimError):
            list(sion.write_task(0, 10))

    def test_close_before_open_rejected(self, fs):
        sion = SionFile(fs, "t.sion")
        with pytest.raises(IOSimError):
            list(sion.close_task(3))

    def test_validation(self, fs):
        with pytest.raises(IOSimError):
            SionFile(fs, "t", tasks_per_file=0)

    def test_metadata_storm_vs_sion(self, machine):
        """N task-local creates queue N-fold; SIONlib pays once per container."""
        kernel = Kernel()
        fs = ParallelFS(kernel, machine, job_cores=64)
        n = 32
        local_done = []

        def local_writer(k, i):
            f = SimFile(fs, f"/trace.{i}")
            yield from f.open()
            local_done.append(k.now)

        for i in range(n):
            kernel.spawn(local_writer(kernel, i))
        kernel.run()
        t_local = max(local_done)

        kernel2 = Kernel()
        fs2 = ParallelFS(kernel2, machine, job_cores=64)
        sion = SionFile(fs2, "t.sion", tasks_per_file=n)
        sion_done = []

        def sion_writer(k, i):
            yield from sion.open_task(i)
            sion_done.append(k.now)

        for i in range(n):
            kernel2.spawn(sion_writer(kernel2, i))
        kernel2.run()
        t_sion = max(sion_done)
        assert t_local > 10 * t_sion
