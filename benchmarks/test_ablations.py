"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

1. DES kernel throughput (events/s) — the substrate's own cost.
2. Flow-model vs latency-only network — contention matters for Fig. 14.
3. Blackboard worker/FIFO scaling — the parallel task engine's speedup.
4. Stream NA-buffer sweep — the adaptation window's effect on overhead.
"""

import threading

import pytest

from repro.blackboard.board import Blackboard
from repro.blackboard.workers import ThreadPool
from repro.telemetry.hostprof import host_now
from repro.network.machine import small_test_machine
from repro.simt.kernel import Kernel


# ---------------------------------------------------------------------------
# 1. DES kernel event throughput
# ---------------------------------------------------------------------------


def _spin_kernel(nevents: int) -> float:
    kernel = Kernel()

    def proc(k, n):
        for _ in range(n):
            yield k.timeout(1e-6)

    for _ in range(4):
        kernel.spawn(proc(kernel, nevents // 4))
    kernel.run()
    return kernel.events_dispatched


def test_ablation_kernel_event_rate(benchmark):
    """Baseline cost of the substrate: dispatched events per second."""
    dispatched = benchmark(lambda: _spin_kernel(40_000))
    assert dispatched >= 40_000


def test_ablation_p2p_message_cost(benchmark):
    """End-to-end simulated-MPI message cost (send+recv+match)."""
    from repro.mpi.launcher import MPMDLauncher

    machine = small_test_machine(nodes=8, cores_per_node=4)

    def run():
        def main(mpi):
            yield from mpi.init()
            comm = mpi.comm_world
            for i in range(500):
                if comm.rank == 0:
                    yield from comm.send(1, nbytes=1000, tag=0)
                else:
                    yield from comm.recv(source=0, tag=0)
            yield from mpi.finalize()

        launcher = MPMDLauncher(machine=machine)
        launcher.add_program("pp", nprocs=2, main=main)
        launcher.run()
        return 500

    msgs = benchmark(run)
    assert msgs == 500


# ---------------------------------------------------------------------------
# 2. Network model ablation: with vs without shared-capacity contention
# ---------------------------------------------------------------------------


def _incast_makespan(rank_injection_gbps: float) -> float:
    """64 ranks on 16 nodes all send to node 0; returns the makespan."""
    from repro.network.cluster import Cluster
    from repro.util.units import GB

    machine = small_test_machine(
        nodes=16,
        cores_per_node=4,
        rank_injection_max=rank_injection_gbps * GB,
        nic_bandwidth=rank_injection_gbps * GB * 4,
    )
    kernel = Kernel()
    cluster = Cluster(kernel, machine, nranks=64)
    done = []

    def sender(k, src):
        yield cluster.transfer(src, 0, 5_000_000)
        done.append(k.now)

    for src in range(4, 64):
        kernel.spawn(sender(kernel, src))
    kernel.run()
    return max(done)


def test_ablation_network_contention_visible(benchmark):
    """Incast must serialize on the target NIC: makespan >> single transfer.

    A latency-only model (no shared pipes) would finish all transfers in
    one transfer time — underestimating incast by the fan-in factor and
    destroying the reader-limited regime of Figure 14.
    """
    makespan = benchmark.pedantic(lambda: _incast_makespan(1.0), rounds=1, iterations=1)
    single = 5_000_000 / 4e9  # one transfer through the 4 GB/s ingress NIC
    assert makespan > 50 * single


def test_ablation_bisection_caps_crossleaf_throughput():
    """Cross-leaf aggregate obeys the calibrated bisection share."""
    from repro.network.cluster import Cluster
    from repro.util.units import GB

    machine = small_test_machine(nodes=40, cores_per_node=1, bisection_efficiency=0.25)
    kernel = Kernel()
    cluster = Cluster(kernel, machine, nranks=40)
    nbytes = 50_000_000
    done = []

    def sender(k, src, dst):
        yield cluster.transfer(src, dst, nbytes)
        done.append(k.now)

    # 10 cross-leaf pairs (leaf 0 = nodes 0..17, leaf 2 = 36..39 etc.)
    pairs = [(i, 20 + i) for i in range(10)]
    for src, dst in pairs:
        kernel.spawn(sender(kernel, src, dst))
    kernel.run()
    total = nbytes * len(pairs)
    bisection = machine.bisection_bandwidth(cluster.placement.nodes_used)
    assert max(done) >= total / bisection * 0.99


# ---------------------------------------------------------------------------
# 3. Blackboard worker scaling (real threads, real time)
# ---------------------------------------------------------------------------


def _blackboard_run(nworkers: int, nqueues: int, njobs: int = 400) -> float:
    board = Blackboard(nqueues=nqueues, seed=1)
    t_in = board.register_type("work")
    sink = []
    lock = threading.Lock()

    def busy(b, entries):
        # A small but real CPU payload.
        acc = 0
        for i in range(4000):
            acc += i * i
        with lock:
            sink.append(acc)

    board.register_ks("busy", [t_in], busy)
    t0 = host_now()
    with ThreadPool(board, nworkers=nworkers, seed=2):
        for i in range(njobs):
            board.submit(t_in, i)
    elapsed = host_now() - t0
    assert len(sink) == njobs
    return elapsed


@pytest.mark.parametrize("nworkers", [1, 4])
def test_ablation_blackboard_workers(benchmark, nworkers):
    """Worker-pool scaling of the parallel blackboard (wall-clock)."""
    benchmark.pedantic(
        lambda: _blackboard_run(nworkers=nworkers, nqueues=8), rounds=2, iterations=1
    )


def test_ablation_blackboard_single_fifo_contention(benchmark):
    """One shared FIFO vs an array: the array reduces lock contention."""
    benchmark.pedantic(
        lambda: _blackboard_run(nworkers=4, nqueues=1), rounds=2, iterations=1
    )


# ---------------------------------------------------------------------------
# 4. NA buffer sweep: the adaptation window
# ---------------------------------------------------------------------------


def _overhead_for_na(na: int) -> float:
    from repro.analysis.engine import AnalysisConfig
    from repro.apps.nas.adi import SP
    from repro.bench.harness import measure_overhead
    from repro.instrument.overhead import InstrumentationCost
    from repro.mpi.costmodel import CostModel

    machine = small_test_machine(nodes=256, cores_per_node=4)
    point = measure_overhead(
        SP(16, "C", iterations=8),
        machine,
        ratio=16.0,  # one slow analyzer rank
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=na),
        analysis=AnalysisConfig(per_byte_cpu=2e-5, per_pack_cpu=1e-4, na_buffers=na),
        mpi_cost=CostModel(eager_threshold=2048),
    )
    return point.overhead_pct


def test_ablation_na_buffers_absorb_bursts(benchmark):
    """A deeper adaptation window (larger NA) lowers backpressure overhead."""
    overheads = benchmark.pedantic(
        lambda: [_overhead_for_na(na) for na in (1, 8)], rounds=1, iterations=1
    )
    shallow, deep = overheads
    assert deep < shallow
