"""Deterministic random-number management.

Every stochastic component of the library (random mapping policies, random
FIFO selection in the blackboard, synthetic workload jitter) draws from an RNG
derived from a single experiment seed, so that whole simulated campaigns are
reproducible bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random


class SeedSequence:
    """Derives independent child seeds from a root seed and string labels.

    Unlike :class:`numpy.random.SeedSequence`, derivation is keyed by *names*
    (``seq.child("stream", rank)``) so that adding a new consumer does not
    perturb the streams handed to existing ones.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)

    def child_seed(self, *labels: object) -> int:
        """Return a 63-bit seed derived from the root seed and the labels."""
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.root_seed).encode())
        for label in labels:
            h.update(b"\x1f")
            h.update(repr(label).encode())
        return int.from_bytes(h.digest(), "little") & (2**63 - 1)

    def child(self, *labels: object) -> random.Random:
        """Return a stdlib :class:`random.Random` seeded for the labels."""
        return random.Random(self.child_seed(*labels))


def derive_rng(seed: int, *labels: object) -> random.Random:
    """One-shot helper: ``derive_rng(seed, 'mapping', 3)``."""
    return SeedSequence(seed).child(*labels)
