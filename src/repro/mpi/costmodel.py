"""Timing constants and collective cost formulas.

Point-to-point overheads follow the LogGP tradition: a CPU overhead on each
side (``O_SEND``, ``CostModel.o_recv``), eager copies below the rendezvous
threshold, and network time from the flow model.  Collectives are charged
with the standard log-tree / ring formulas used by every MPI performance
model; the bandwidth term uses the per-rank NIC share implied by the node's
occupancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.network.machine import MachineSpec

#: CPU time to issue a send
O_SEND = 0.4e-6
#: per-byte local reduction arithmetic
REDUCE_GAMMA = 1.0 / 4.0e9


@dataclass(frozen=True)
class CostModel:
    """The tunable timing constants of the simulated MPI library."""

    o_recv: float = 0.4e-6  # CPU time to complete a receive
    eager_threshold: int = 64 * 1024  # rendezvous above this size
    eager_copy_bandwidth: float = 5.0e9  # memcpy into MPI buffering
    alpha: float = 2.0e-6  # collective per-stage latency
    beta: float = 1.0 / 0.8e9  # collective per-byte time (per-rank share)

    @classmethod
    def for_machine(cls, machine: MachineSpec, ranks_per_node: int | None = None) -> "CostModel":
        """Derive constants from a machine spec.

        The collective byte-term uses the per-rank NIC share when every core
        of a node participates (the common fully-packed case).
        """
        cpn = ranks_per_node if ranks_per_node is not None else machine.cores_per_node
        if cpn < 1:
            raise ConfigError(f"ranks_per_node must be >= 1, got {cpn}")
        share = machine.nic_effective_bandwidth(cpn) / cpn
        return cls(
            alpha=machine.nic_latency,
            beta=1.0 / share,
            eager_copy_bandwidth=machine.intra_node_bandwidth,
        )

    # -- collective durations ------------------------------------------------------

    def collective_cost(self, op: str, nranks: int, nbytes: int) -> float:
        """Modelled duration of a collective once all participants arrived."""
        if nranks < 1:
            raise ConfigError(f"collective over {nranks} ranks")
        if nbytes < 0:
            raise ConfigError(f"negative collective payload: {nbytes}")
        if nranks == 1:
            return O_SEND
        p = nranks
        n = nbytes
        log_p = math.ceil(math.log2(p))
        if op == "barrier":
            return 2.0 * log_p * self.alpha
        if op == "bcast":
            return log_p * (self.alpha + n * self.beta)
        if op == "reduce":
            return log_p * (self.alpha + n * self.beta + n * REDUCE_GAMMA)
        if op == "allreduce":
            # Rabenseifner: reduce-scatter + allgather.
            return 2.0 * log_p * self.alpha + 2.0 * n * self.beta * (p - 1) / p + n * REDUCE_GAMMA
        if op in ("gather", "scatter"):
            return log_p * self.alpha + n * self.beta * (p - 1)
        if op in ("allgather", "reduce_scatter"):
            return log_p * self.alpha + n * self.beta * (p - 1)
        if op == "alltoall":
            return log_p * self.alpha + n * self.beta * (p - 1)
        raise ConfigError(f"unknown collective op: {op!r}")
