"""Knowledge sources.

A knowledge source is the paper's couple ``{{Sensitivities}, Operation}``:
a set of data-type ids whose joint availability triggers the operation.  A
KS may declare the same type several times (it then consumes that many
entries per firing) and may, from inside its operation, submit new entries
and register or remove knowledge sources — the paper's simplified form of
opportunistic reasoning.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import TYPE_CHECKING, Callable

from repro.errors import BlackboardError
from repro.blackboard.entry import DataEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.blackboard.board import Blackboard

Operation = Callable[["Blackboard", list[DataEntry]], None]


class KnowledgeSource:
    """One expert around the blackboard."""

    __slots__ = ("name", "sensitivities", "operation", "_needs", "_single", "_pending",
                 "_lock", "fired")

    def __init__(self, name: str, sensitivities: list[int], operation: Operation):
        if not sensitivities:
            raise BlackboardError(f"KS {name!r} needs at least one sensitivity")
        if not callable(operation):
            raise BlackboardError(f"KS {name!r}: operation must be callable")
        self.name = name
        self.sensitivities = list(sensitivities)
        self.operation = operation
        self._needs = Counter(sensitivities)
        # A one-sensitivity KS completes on every offer: nothing is ever
        # pending, so offer() hands the entry straight back as the job input
        # and the KS builds no pending FIFOs and no lock.  A multi-sensitivity
        # KS keeps a deque per type: one type may run ahead of the others
        # without bound.
        self._single = single = len(self.sensitivities) == 1
        self._pending = None if single else {t: deque() for t in self._needs}
        self._lock = None if single else threading.Lock()
        self.fired = 0

    @property
    def sensitivity_types(self) -> set[int]:
        return set(self._needs)

    def offer(self, entry: DataEntry) -> list[DataEntry] | None:
        """Offer an entry; returns the job's input list once complete.

        The entry must already be retained for this KS by the caller.  When
        every sensitivity slot has enough pending entries, one entry per
        declared slot is consumed (FIFO) and returned in sensitivity
        declaration order.
        """
        if entry.type_id not in self._needs:
            raise BlackboardError(
                f"KS {self.name!r} offered entry of foreign type {entry.type_id:#x}"
            )
        if self._single:
            return [entry]
        pending = self._pending
        with self._lock:
            pending[entry.type_id].append(entry)
            for t, n in self._needs.items():
                if len(pending[t]) < n:
                    return None
            # Every slot has enough: take each slot's oldest, in declaration order.
            complete = []
            for t in self.sensitivities:
                complete.append(pending[t].popleft())
        return complete

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KS {self.name} sens={len(self.sensitivities)} fired={self.fired}>"
