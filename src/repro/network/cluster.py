"""Job-scoped cluster instance: placement + per-node pipes + transfers.

A :class:`Cluster` is built for one simulated job: the launcher places ranks
on nodes (block placement, one rank per core, exactly as Slurm would for an
MPMD job description), then each *used* node gets an egress and an ingress
:class:`~repro.simt.resources.Pipe` whose bandwidth reflects how many ranks
share the NIC (see :meth:`MachineSpec.nic_effective_bandwidth`).

``transfer(src_rank, dst_rank, nbytes)`` returns a simulation event that
fires when the message's payload would have fully arrived.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.network.fattree import FatTree
from repro.network.machine import MachineSpec
from repro.simt.kernel import Kernel
from repro.simt.resources import Pipe
from repro.simt.primitives import SimEvent, Timeout


@dataclass(frozen=True)
class Placement:
    """Where each global rank lives."""

    node_of_rank: tuple[int, ...]
    ranks_per_node: dict[int, int]

    @property
    def nodes_used(self) -> int:
        return len(self.ranks_per_node)


def block_placement(nranks: int, machine: MachineSpec) -> Placement:
    """Fill nodes sequentially, one rank per core (standard batch placement)."""
    if nranks <= 0:
        raise ConfigError(f"placement needs nranks > 0, got {nranks}")
    cpn = machine.cores_per_node
    needed_nodes = -(-nranks // cpn)
    if needed_nodes > machine.nodes:
        raise ConfigError(
            f"job of {nranks} ranks needs {needed_nodes} nodes; "
            f"{machine.name} has {machine.nodes}"
        )
    node_of_rank = tuple(r // cpn for r in range(nranks))
    per_node: dict[int, int] = {}
    for node in node_of_rank:
        per_node[node] = per_node.get(node, 0) + 1
    return Placement(node_of_rank=node_of_rank, ranks_per_node=per_node)


class Cluster:
    """Simulated allocation of a machine for one job."""

    def __init__(
        self,
        kernel: Kernel,
        machine: MachineSpec,
        nranks: int,
    ):
        self.kernel = kernel
        self.machine = machine
        self.placement = block_placement(nranks, machine)
        self.nranks = nranks
        self.topology = FatTree(machine.nodes)
        # Per used node: (egress pipe, ingress pipe).  NIC bandwidth is set
        # from the static per-node rank count (flow-level approximation).
        self._nic: dict[int, tuple[Pipe, Pipe]] = {}
        self._mem: dict[int, Pipe] = {}
        for node, count in self.placement.ranks_per_node.items():
            bw = machine.nic_effective_bandwidth(count)
            self._nic[node] = (
                Pipe(kernel, bw, name=f"node{node}.out"),
                Pipe(kernel, bw, name=f"node{node}.in"),
            )
            self._mem[node] = Pipe(
                kernel, machine.intra_node_bandwidth, name=f"node{node}.mem"
            )
        # Cross-leaf traffic shares the job's effective bisection capacity.
        self._bisection = Pipe(
            kernel,
            machine.bisection_bandwidth(self.placement.nodes_used),
            name="bisection",
        )
        self.bytes_internode = 0
        self.bytes_intranode = 0
        self.bytes_crossleaf = 0
        # Fault-injected extra per-node latency; empty in healthy runs so
        # the latency() hot path stays untouched (pay-for-what-you-use).
        self._extra_latency: dict[int, float] = {}
        self.degraded_nodes = 0
        #: (src node, dst node) -> (healthy latency, first pipe, second pipe,
        #: crosses_leaf), filled on first use by :meth:`_route`.  Placement,
        #: topology and the pipe objects never change during a job, so
        #: transfer() resolves a message with one lookup.
        self._routes: dict[tuple[int, int], tuple[float, Pipe, Pipe | None, bool]] = {}

    # -- queries ---------------------------------------------------------------

    def node_of(self, rank: int) -> int:
        if not (0 <= rank < self.nranks):
            raise ConfigError(f"rank {rank} outside job of {self.nranks}")
        return self.placement.node_of_rank[rank]

    # -- fault injection -----------------------------------------------------------

    def degrade_node(
        self, node: int, *, bandwidth_factor: float = 1.0, extra_latency: float = 0.0
    ) -> None:
        """Degrade one node's links: cut NIC bandwidth and/or add latency.

        Models a flaky link or failing switch port next to ``node``.  Only
        future transfers are affected; already-committed ones complete at
        their original times, so injection at time *t* is deterministic.
        """
        if node not in self._nic:
            raise ConfigError(f"node {node} hosts no ranks in this job")
        if bandwidth_factor <= 0:
            raise ConfigError(f"bandwidth_factor must be > 0, got {bandwidth_factor}")
        if extra_latency < 0:
            raise ConfigError(f"extra_latency must be >= 0, got {extra_latency}")
        out_pipe, in_pipe = self._nic[node]
        if bandwidth_factor != 1.0:
            out_pipe.scale_bandwidth(bandwidth_factor)
            in_pipe.scale_bandwidth(bandwidth_factor)
        if extra_latency > 0:
            self._extra_latency[node] = self._extra_latency.get(node, 0.0) + extra_latency
        self.degraded_nodes += 1

    # -- data movement -----------------------------------------------------------

    def _route(self, src_n: int, dst_n: int) -> tuple[float, Pipe, Pipe | None, bool]:
        """Resolve and cache what a message between two nodes goes through."""
        if src_n == dst_n:
            route = (self.machine.intra_node_latency, self._mem[src_n], None, False)
        else:
            # Per-hop share of the end-to-end budget; 4 hops is the common case.
            per_hop = self.machine.nic_latency / 4.0
            topo = self.topology
            route = (
                topo.latency(src_n, dst_n, per_hop, base=self.machine.nic_latency),
                self._nic[src_n][0],
                self._nic[dst_n][1],
                topo.leaf_of(src_n) != topo.leaf_of(dst_n),
            )
        self._routes[src_n, dst_n] = route
        return route

    def transfer(self, src: int, dst: int, nbytes: int) -> SimEvent:
        """Event firing when ``nbytes`` from ``src`` has arrived at ``dst``.

        Pipes are deterministic FIFO channels, so the completion instant is
        known at commit time: one timeout covers egress + ingress + latency.
        """
        if nbytes < 0:
            raise ConfigError(f"negative transfer: {nbytes}")
        nranks = self.nranks
        if not (0 <= src < nranks and 0 <= dst < nranks):
            raise ConfigError(f"rank {src} or {dst} outside job of {nranks}")
        node_of_rank = self.placement.node_of_rank
        src_n = node_of_rank[src]
        dst_n = node_of_rank[dst]
        route = self._routes.get((src_n, dst_n))
        if route is None:
            route = self._route(src_n, dst_n)
        lat, first, second, crosses_leaf = route
        if second is None:
            self.bytes_intranode += nbytes
            done = first.commit(nbytes)
        else:
            self.bytes_internode += nbytes
            done = first.commit(nbytes)
            done_in = second.commit(nbytes)
            if done_in > done:
                done = done_in
            if crosses_leaf:
                # Leaf-local traffic never touches the core layer; only
                # cross-leaf flows share the bisection capacity.
                self.bytes_crossleaf += nbytes
                done_core = self._bisection.commit(nbytes)
                if done_core > done:
                    done = done_core
            if self._extra_latency:
                extra = self._extra_latency
                lat += extra.get(src_n, 0.0) + extra.get(dst_n, 0.0)
        kernel = self.kernel
        return Timeout(kernel, done + lat - kernel.now)

    def injection_eta(self, src: int, nbytes: int) -> float:
        """When the source NIC would finish injecting ``nbytes`` issued now."""
        out_pipe, _ = self._nic[self.node_of(src)]
        return out_pipe.eta(nbytes)

    def nic_utilization(self) -> dict[int, tuple[float, float]]:
        """Per-node (egress, ingress) utilization fractions so far."""
        return {
            node: (pout.utilization(), pin.utilization())
            for node, (pout, pin) in self._nic.items()
        }


