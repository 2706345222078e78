"""VMPI_Map: pivot protocol, policies, additive maps."""

import pytest

from repro.errors import MappingError, SimulationError
from repro.vmpi.mapping import FIXED, RANDOM, ROUND_ROBIN, VMPIMap, map_partitions, user_policy
from repro.vmpi.virtualization import VirtualizedLauncher


def _run_mapping(machine, sizes, policy=ROUND_ROBIN, seed=0, names=("A", "B")):
    """Two partitions mapping to each other; returns {(name, rank): VMPIMap}."""
    maps = {}

    def prog(mpi, other):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, other, policy=policy)
        maps[(mpi.partition.name, mpi.rank)] = vmap
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=machine, seed=seed)
    launcher.add_program(names[0], nprocs=sizes[0], main=prog, other=names[1])
    launcher.add_program(names[1], nprocs=sizes[1], main=prog, other=names[0])
    launcher.run()
    return maps


def test_round_robin_assignment(big_machine):
    maps = _run_mapping(big_machine, (8, 4))
    # Slaves (A, larger) each map to exactly one master (B) rank, round robin.
    for i in range(8):
        entries = maps[("A", i)].entries
        assert len(entries) == 1
        master_global = entries[0]
        assert master_global == 8 + (i % 4)
    # Masters see the inverse mapping.
    for j in range(4):
        entries = maps[("B", j)].entries
        assert sorted(entries) == [j, j + 4]


def test_mapping_is_symmetric(big_machine):
    maps = _run_mapping(big_machine, (12, 5))
    pairs_from_a = {(a, b) for (name, r), m in maps.items() if name == "A" for a, b in [(r, e) for e in m.entries]}
    pairs_from_b = set()
    for (name, r), m in maps.items():
        if name == "B":
            for e in m.entries:
                pairs_from_b.add((e, r + 12))
    assert pairs_from_a == pairs_from_b


def test_every_process_mapped(big_machine):
    maps = _run_mapping(big_machine, (16, 3))
    for key, vmap in maps.items():
        assert len(vmap.entries) >= 1, f"{key} unmapped"


def test_fixed_policy_targets_master_root(big_machine):
    maps = _run_mapping(big_machine, (6, 3), policy=FIXED)
    for i in range(6):
        assert maps[("A", i)].entries == [6]  # master root (global rank 6)
    assert sorted(maps[("B", 0)].entries) == [0, 1, 2, 3, 4, 5]
    assert maps[("B", 1)].entries == []


def test_random_policy_deterministic_by_seed(big_machine):
    a = _run_mapping(big_machine, (8, 4), policy=RANDOM, seed=11)
    b = _run_mapping(big_machine, (8, 4), policy=RANDOM, seed=11)
    c = _run_mapping(big_machine, (8, 4), policy=RANDOM, seed=12)
    targets = lambda ms: [ms[("A", i)].entries for i in range(8)]
    assert targets(a) == targets(b)
    assert targets(a) != targets(c)


def test_user_policy(big_machine):
    reversed_policy = user_policy(lambda i, m: (m - 1) - (i % m), name="reversed")
    maps = _run_mapping(big_machine, (4, 4), policy=reversed_policy)
    # Equal sizes: partition A (lower index) is master, B is slave.
    for i in range(4):
        assert maps[("B", i)].entries == [3 - i]


def test_user_policy_out_of_range_rejected(big_machine):
    bad = user_policy(lambda i, m: m, name="off_by_one")
    with pytest.raises((MappingError, SimulationError)):
        _run_mapping(big_machine, (4, 2), policy=bad)


def test_equal_sizes_one_to_one(big_machine):
    maps = _run_mapping(big_machine, (4, 4))
    for i in range(4):
        assert len(maps[("A", i)].entries) == 1
        assert len(maps[("B", i)].entries) == 1


def test_additive_multi_partition_map(big_machine):
    """The analyzer maps each app partition in turn (paper Figure 12)."""
    collected = {}

    def app(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        collected[(mpi.partition.name, mpi.rank)] = vmap
        yield from mpi.finalize()

    def analyzer(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        for i in range(mpi.partition_count()):
            if i != mpi.partition.index:
                yield from map_partitions(mpi, vmap, i, ROUND_ROBIN)
        collected[("Analyzer", mpi.rank)] = vmap
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=big_machine)
    launcher.add_program("app1", nprocs=6, main=app)
    launcher.add_program("app2", nprocs=4, main=app)
    launcher.add_program("Analyzer", nprocs=2, main=analyzer)
    launcher.run()

    an0 = collected[("Analyzer", 0)]
    an1 = collected[("Analyzer", 1)]
    assert len(an0.entries) + len(an1.entries) == 10
    # by_partition groups the peers per application.
    assert set(an0.by_partition) <= {0, 1}
    total_app1 = len(an0.by_partition.get(0, [])) + len(an1.by_partition.get(0, []))
    assert total_app1 == 6


def test_map_to_self_rejected(big_machine):
    def prog(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, mpi.partition.index)
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=big_machine)
    launcher.add_program("only", nprocs=2, main=prog)
    with pytest.raises(SimulationError, match="itself"):
        launcher.run()


def test_unknown_partition_rejected(big_machine):
    def prog(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "nope")
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=big_machine)
    launcher.add_program("a", nprocs=1, main=prog)
    launcher.add_program("b", nprocs=1, main=prog)
    with pytest.raises(SimulationError, match="nope"):
        launcher.run()


def test_map_clear(big_machine):
    maps = _run_mapping(big_machine, (4, 2))
    vmap = maps[("A", 0)]
    assert len(vmap) > 0
    vmap.clear()
    assert len(vmap) == 0 and vmap.by_partition == {}
