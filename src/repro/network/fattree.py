"""Fat-tree topology description.

The flow model in :mod:`repro.network.cluster` only needs node endpoints, but
the topology object is used by placement (locality-aware node ordering), by
the documentation examples, and by the latency model (hop count between
nodes).  We model a classic two-level fat-tree: nodes are grouped into
*switch groups* of ``radix`` nodes hanging off a leaf switch; leaf switches
connect through a core layer (full bisection assumed at the core, which
matches QDR fat-trees at the scales the paper uses after NIC-level effects
are accounted for).
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


class FatTree:
    """Two-level fat-tree over ``nodes`` endpoints with leaf radix ``radix``."""

    def __init__(self, nodes: int, radix: int = 18):
        if nodes <= 0:
            raise ConfigError(f"FatTree needs nodes > 0, got {nodes}")
        if radix <= 1:
            raise ConfigError(f"FatTree needs radix > 1, got {radix}")
        self.nodes = nodes
        self.radix = radix
        self.leaf_switches = math.ceil(nodes / radix)

    def leaf_of(self, node: int) -> int:
        """Leaf switch index hosting ``node``."""
        self._check(node)
        return node // self.radix

    def hops(self, a: int, b: int) -> int:
        """Switch hops between two nodes (0 = same node)."""
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        if self.leaf_of(a) == self.leaf_of(b):
            return 2  # up to the leaf switch and back down
        return 4  # leaf -> core -> leaf

    def latency(self, a: int, b: int, per_hop: float, base: float = 0.0) -> float:
        """End-to-end latency for a message between two nodes."""
        return base + self.hops(a, b) * per_hop

    def bisection_links(self) -> int:
        """Number of leaf-to-core uplinks crossing the bisection."""
        return max(1, self.leaf_switches // 2) * self.radix

    def _check(self, node: int) -> None:
        if not (0 <= node < self.nodes):
            raise ConfigError(f"node {node} outside fat-tree of {self.nodes} nodes")
