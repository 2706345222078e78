"""Receive status objects."""

from __future__ import annotations

from typing import NamedTuple


class Status(NamedTuple):
    """Outcome of a completed receive (mirrors ``MPI_Status``).

    An immutable value record, one allocation to build: every matched
    message makes one.

    ``source`` and ``tag`` are the *matched* values (wildcards resolved),
    ``nbytes`` the actual message size, ``payload`` the optional real data
    carried by the message (VMPI streams ship real event packs; application
    skeletons usually send size-only messages, payload ``None``).
    """

    source: int
    tag: int
    nbytes: int
    payload: object = None

    def count(self, datatype_size: int) -> int:
        """Element count for a given datatype extent (``MPI_Get_count``)."""
        if datatype_size <= 0:
            raise ValueError(f"datatype size must be > 0, got {datatype_size}")
        return self.nbytes // datatype_size
