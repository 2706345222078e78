"""Determinism guarantees: identical seeds give bit-identical campaigns."""

import json
import os
import subprocess
import sys

import repro
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas.adi import SP
from repro.apps.nas.cg import CG
from repro.apps.synthetic import stream_reader_program, stream_writer_program
from repro.core.comparison import run_tool
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine
from repro.vmpi.mapping import RANDOM, VMPIMap, map_partitions
from repro.vmpi.virtualization import VirtualizedLauncher

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


def _session_fingerprint(seed):
    session = CouplingSession(machine=MACHINE, seed=seed)
    name = session.add_application(SP(16, "C", iterations=2))
    session.set_analyzer(ratio=2.0)
    result = session.run()
    profile = result.report.chapter(name).profile
    topo = result.report.chapter(name).topology
    return (
        result.app(name).walltime,
        result.analyzer_walltime,
        profile.events_total,
        profile.mpi_time_total,
        tuple(sorted(topo.cells.items())),
    )


def test_sessions_bit_identical_across_runs():
    assert _session_fingerprint(5) == _session_fingerprint(5)


def test_seed_changes_random_mapping_not_results():
    """Seeds feed mapping policies; deterministic workloads stay identical
    in event counts even when the random mapping differs."""
    a = _session_fingerprint(5)
    b = _session_fingerprint(6)
    assert a[2] == b[2]  # same events captured
    assert a[4] == b[4]  # same communication matrix


def test_random_mapping_depends_on_seed():
    def mapping_for(seed):
        out = {}

        def prog(mpi, other):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, other, policy=RANDOM)
            out[(mpi.partition.name, mpi.rank)] = tuple(vmap.entries)
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=MACHINE, seed=seed)
        launcher.add_program("A", nprocs=12, main=prog, other="B")
        launcher.add_program("B", nprocs=3, main=prog, other="A")
        launcher.run()
        return tuple(sorted(out.items()))

    assert mapping_for(1) == mapping_for(1)
    assert mapping_for(1) != mapping_for(2)


def test_tool_runs_deterministic():
    a = run_tool(CG(16, "C", iterations=2), "scorep_trace", MACHINE, seed=3)
    b = run_tool(CG(16, "C", iterations=2), "scorep_trace", MACHINE, seed=3)
    assert a.walltime == b.walltime
    assert a.full_run_volume_bytes == b.full_run_volume_bytes


def test_multi_app_order_independent_of_dict_iteration():
    """Two sessions with the same apps give identical per-app results."""

    def run_once():
        session = CouplingSession(machine=MACHINE, seed=11)
        session.add_application(CG(8, "C", iterations=2), name="one")
        session.add_application(EulerMHD(8, grid=512, iterations=2), name="two")
        session.set_analyzer(nprocs=4)
        result = session.run()
        return {
            name: (run.walltime, run.events) for name, run in result.apps.items()
        }

    assert run_once() == run_once()


# -- determinism stated as wide as it holds (ROADMAP 5c) ----------------------------

_QUICK_SESSION = """
import hashlib, json
from repro.bench.harness import coupled_session, fingerprint, reference_kernel
from repro.network.machine import TERA100
session, name, _ = coupled_session(reference_kernel("small"), TERA100, 0, ratio=4.0)
session.set_reduction("delta+dict+zlib")
run = session.run()
report = hashlib.sha256(run.report.render().encode()).hexdigest()
print(json.dumps([fingerprint(run, name), report], sort_keys=True))
"""


def test_fingerprints_do_not_depend_on_the_hash_seed():
    """No set or str-keyed dict is iterated on a path that reaches an output."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    seeds = ("0", "1", "12345", "random")
    children = [
        subprocess.Popen(
            [sys.executable, "-c", _QUICK_SESSION],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed in seeds
    ]
    outputs = {}
    for hash_seed, child in zip(seeds, children):
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        outputs[hash_seed] = out
    assert len(set(outputs.values())) == 1, outputs
    fingerprint, report_digest = json.loads(outputs["0"])
    assert fingerprint["events"] > 0 and fingerprint["analyzer_packs"] > 0
    assert len(report_digest) == 64


def _launch_world(kind: str, seed: int):
    """A launched, not yet run, world and the stats dict its programs fill."""
    stats: dict = {}
    launcher = VirtualizedLauncher(machine=MACHINE, seed=seed)
    if kind == "streams":
        launcher.add_program(
            "Writers", nprocs=8, main=stream_writer_program, total_bytes=4 * 1024**2,
            policy=RANDOM, stats=stats,
        )
        launcher.add_program(
            "Analyzer", nprocs=3, main=stream_reader_program, policy=RANDOM, stats=stats
        )
    else:
        launcher.add_program("CG", nprocs=16, main=CG(16, "C", iterations=2).main)
    return launcher.launch(), stats


def _world_outcome(world, stats):
    return (
        world.kernel.events_dispatched,
        tuple((ctx.t_init, ctx.t_finalize) for ctx in world.ranks),
        tuple(sorted(stats.items())),
        tuple(tuple(sorted(stream.stats().items())) for _rank, stream in world.streams),
    )


def test_two_worlds_interleaved_in_one_interpreter_match_their_solo_runs():
    """No interpreter-global state on any simulation path: two worlds
    advanced in alternating virtual-time slices each end exactly where
    they end alone."""
    solo = {}
    for kind, seed in (("streams", 3), ("cg", 4)):
        world, stats = _launch_world(kind, seed)
        world.run()
        solo[kind] = _world_outcome(world, stats)

    pair = {kind: _launch_world(kind, seed) for kind, seed in (("streams", 3), ("cg", 4))}
    deadline, slices = 0.0, 0
    while any(world.kernel.alive_processes() for world, _ in pair.values()):
        deadline += 2e-3
        slices += 1
        for world, _ in pair.values():
            if world.kernel.alive_processes():
                world.run(until=deadline)
    assert slices > 10  # the two really were interleaved
    for kind, (world, stats) in pair.items():
        world.run()  # drain what the last slice left scheduled
        assert _world_outcome(world, stats) == solo[kind], kind
