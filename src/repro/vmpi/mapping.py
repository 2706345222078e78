"""VMPI_Map: partition-to-partition process mapping (paper Sec. III-A, Fig. 7-8).

When two partitions are mapped, the larger becomes the *slave* and the
smaller the *master*.  Every slave rank sends its global rank to the master
partition's root (the *pivot*); the pivot assigns a master-partition local
rank per the requested policy, associates local and remote ranks both-ways,
and finally broadcasts the end of the mapping to every participant (each
participant receives exactly one notification carrying its complete entry
list, which doubles as the end-of-mapping synchronization).  The three
default policies are round-robin, random and fixed (paper Figure 8);
user-defined policies map a slave index to a master local rank.

Maps are *additive*: calling :func:`map_partitions` repeatedly appends
entries — this is how the analyzer partition maps itself to N application
partitions (paper Figure 10/12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MappingError
from repro.mpi.datatypes import ANY_SOURCE
from repro.mpi.world import PartitionInfo, ProgramAPI
from repro.telemetry.core import rank_pid
from repro.util.rng import derive_rng

# Reserved tag space on the universe communicator.  Tags encode the mapping
# pair so that concurrent mappings between different partition pairs never
# cross-match.
_TAG_BASE = 700_000
_MAX_PARTITIONS = 256


def _pair_tag(kind: int, master_idx: int, slave_idx: int) -> int:
    return _TAG_BASE + ((kind * _MAX_PARTITIONS) + master_idx) * _MAX_PARTITIONS + slave_idx


_KIND_REQ = 0
_KIND_NOTIFY = 1


@dataclass(frozen=True)
class MapPolicy:
    """A mapping policy: assigns each slave index a master local rank."""

    name: str
    fn: Callable[[int, int, int], int]  # (slave_index, master_size, seed) -> local rank

    def assign(self, slave_index: int, master_size: int, seed: int) -> int:
        local = self.fn(slave_index, master_size, seed)
        if not (0 <= local < master_size):
            raise MappingError(
                f"policy {self.name!r} returned {local} for master of {master_size}"
            )
        return local


ROUND_ROBIN = MapPolicy("round_robin", lambda i, m, s: i % m)
FIXED = MapPolicy("fixed", lambda i, m, s: 0)
RANDOM = MapPolicy(
    "random", lambda i, m, s: derive_rng(s, "vmpi-map", i).randrange(m)
)


def user_policy(fn: Callable[[int, int], int], name: str = "user") -> MapPolicy:
    """Wrap a user function ``(slave_index, master_size) -> local rank``."""
    return MapPolicy(name, lambda i, m, s: fn(i, m))


@dataclass(slots=True)
class VMPIMap:
    """Per-rank mapping result: the global ranks of the mapped peers.

    ``entries`` preserves append order; ``by_partition`` groups peers by the
    remote partition index (useful for multi-instrumentation dispatch).
    """

    entries: list[int] = field(default_factory=list)
    by_partition: dict[int, list[int]] = field(default_factory=dict)

    def clear(self) -> None:
        """``VMPI_Map_clear``."""
        self.entries.clear()
        self.by_partition.clear()

    def add(self, global_rank: int, partition_index: int) -> None:
        self.entries.append(global_rank)
        self.by_partition.setdefault(partition_index, []).append(global_rank)

    def __len__(self) -> int:
        return len(self.entries)


def remap_orphans(
    orphans: list[int], survivors: list[int]
) -> dict[int, int]:
    """Reassign orphaned mapped ranks onto surviving peers (failover).

    When an analyzer rank dies, the instrumented ranks it served become
    orphans; this computes the degraded mapping — deterministic round-robin
    of the sorted orphans over the sorted survivors — used by fault handling
    to re-route streams.  Returns ``{orphan_global: survivor_global}``.
    """
    if not survivors:
        raise MappingError("no surviving ranks to remap orphans onto")
    targets = sorted(survivors)
    return {
        orphan: targets[i % len(targets)]
        for i, orphan in enumerate(sorted(orphans))
    }


def map_partitions(
    mpi: ProgramAPI,
    vmap: VMPIMap,
    target: PartitionInfo | str | int,
    policy: MapPolicy = ROUND_ROBIN,
):
    """Generator: map the caller's partition to ``target`` (``VMPI_Map_partitions``).

    Every rank of *both* partitions must call this with the same target and
    policy; matched entries are appended to ``vmap`` (additive semantics).
    """
    world = mpi.ctx.world
    mine = mpi.partition
    if isinstance(target, str):
        found = world.partition_by_name(target)
        if found is None:
            raise MappingError(f"no partition named {target!r}")
        target = found
    elif isinstance(target, int):
        if not (0 <= target < len(world.partitions)):
            raise MappingError(f"no partition with index {target}")
        target = world.partitions[target]
    if target.index == mine.index:
        raise MappingError(f"cannot map partition {mine.name!r} to itself")
    if max(target.index, mine.index) >= _MAX_PARTITIONS:
        raise MappingError(f"partition index exceeds tag space ({_MAX_PARTITIONS})")

    # The larger partition is the slave; ties break toward the lower index.
    if mine.size > target.size or (mine.size == target.size and mine.index > target.index):
        master, slave = target, mine
        i_am_master = False
    else:
        master, slave = mine, target
        i_am_master = True

    universe = mpi.comm_universe
    pivot = master.first_global_rank  # master partition root, globally
    tag_req = _pair_tag(_KIND_REQ, master.index, slave.index)
    tag_notify = _pair_tag(_KIND_NOTIFY, master.index, slave.index)
    my_global = mpi.ctx.global_rank
    ctx = mpi.ctx
    tel = ctx.telemetry
    span = (
        tel.span(
            "vmpi.map_partitions",
            pid=rank_pid(my_global),
            cat="vmpi",
            args={"master": master.name, "slave": slave.name, "policy": policy.name},
        )
        if tel.enabled
        else None
    )

    if my_global == pivot:
        yield from _run_pivot(mpi, vmap, master, slave, policy, tag_req, tag_notify)
        if span is not None:
            span.end(role="pivot")
        return

    if not i_am_master:
        # Slave: announce myself to the pivot.
        yield from universe._raw_isend(pivot, nbytes=4, tag=tag_req, payload=my_global)
    # Everyone (but the pivot) blocks on exactly one notification message.
    status = yield ctx.mailbox.post(universe.id, ANY_SOURCE, tag_notify, 0.0)
    for peer_global, partition_index in status.payload:
        vmap.add(peer_global, partition_index)
    if span is not None:
        span.end(entries=len(status.payload))


def _run_pivot(
    mpi: ProgramAPI,
    vmap: VMPIMap,
    master: PartitionInfo,
    slave: PartitionInfo,
    policy: MapPolicy,
    tag_req: int,
    tag_notify: int,
):
    """The master-root side: collect requests, assign, notify everyone."""
    universe = mpi.comm_universe
    ctx = mpi.ctx
    seed = ctx.world.seed
    tel = ctx.telemetry
    span = (
        tel.span(
            "vmpi.map_pivot",
            pid=rank_pid(ctx.global_rank),
            cat="vmpi",
            args={"slave_size": slave.size},
        )
        if tel.enabled
        else None
    )
    per_peer: dict[int, list[tuple[int, int]]] = {
        g: [] for g in list(master.global_ranks) + list(slave.global_ranks)
    }
    for _ in range(slave.size):
        status = yield ctx.mailbox.post(universe.id, ANY_SOURCE, tag_req, 0.0)
        if tel.enabled:
            tel.counter("vmpi.map_requests").inc()
        slave_global = status.payload
        if slave_global not in per_peer:
            raise MappingError(
                f"map request from rank {slave_global} outside slave partition"
            )
        slave_index = slave_global - slave.first_global_rank
        local = policy.assign(slave_index, master.size, seed)
        master_global = master.first_global_rank + local
        per_peer[slave_global].append((master_global, master.index))
        per_peer[master_global].append((slave_global, slave.index))
    # One notification per participant; doubles as the end-of-mapping
    # broadcast of paper Figure 7.
    for peer, entries in per_peer.items():
        if peer == ctx.global_rank:
            for peer_global, partition_index in entries:
                vmap.add(peer_global, partition_index)
        else:
            nbytes = max(4, 8 * len(entries))
            yield from universe._raw_isend(
                peer, nbytes=nbytes, tag=tag_notify, payload=tuple(entries)
            )
    if span is not None:
        span.end()
