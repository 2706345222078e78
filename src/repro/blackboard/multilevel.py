"""Multi-level blackboard: concurrent application profiling (paper Fig. 5).

One physical blackboard hosts several *levels*, one per instrumented
application; type ids are hashes of (level, type name), so identical
knowledge sources and data types cohabit per level without interfering.  A
dispatcher knowledge source reads each incoming event pack's application id
and re-submits the payload on that application's level — providing direct
multi-instrumentation support.
"""

from __future__ import annotations

from repro.errors import BlackboardError
from repro.blackboard.board import Blackboard
from repro.blackboard.entry import DataEntry
from repro.blackboard.ks import KnowledgeSource
from repro.telemetry import Telemetry


class MultiLevelBlackboard:
    """A blackboard plus per-level namespaces and the dispatcher KS."""

    #: type name of the undispatched, level-less input entries
    INBOX_TYPE = "event_pack_raw"

    def __init__(
        self,
        levels: list[str],
        seed: int = 0,
        telemetry: Telemetry | None = None,
        track_pid: int = 0,
    ):
        if not levels:
            raise BlackboardError("multi-level blackboard needs at least one level")
        if len(set(levels)) != len(levels):
            raise BlackboardError("duplicate level names")
        self.board = Blackboard(seed=seed, telemetry=telemetry, track_pid=track_pid)
        self.levels = list(levels)
        self._inbox_id = self.board.register_type(self.INBOX_TYPE)
        self._level_pack_ids: dict[str, int] = {
            level: self.board.register_type("event_pack", level) for level in levels
        }
        self.board.register_ks(
            "KS_Dispatcher", [self._inbox_id], self._dispatch
        )
        self.dispatched: dict[str, int] = {level: 0 for level in levels}

    # -- level-scoped helpers ----------------------------------------------------------

    def type_id(self, name: str, level: str) -> int:
        self._check_level(level)
        return self.board.register_type(name, level)

    def register_ks(
        self, name: str, sensitivities: list[tuple[str, str]], operation
    ) -> KnowledgeSource:
        """Register a KS with (type name, level) sensitivities."""
        ids = [self.type_id(n, lv) for n, lv in sensitivities]
        return self.board.register_ks(name, ids, operation)

    def submit_pack(self, payload, size: int | None = None, meta=None) -> None:
        """Push an undispatched event pack (as read from a stream).

        ``meta`` may carry the pack's already-parsed frame; the dispatcher
        forwards it to the level entry so the unpacker never re-parses.
        """
        self.board.submit(self._inbox_id, payload, size, meta=meta)

    # -- the dispatcher KS ---------------------------------------------------------------

    def _dispatch(self, board: Blackboard, entries: list[DataEntry]) -> None:
        for entry in entries:
            level = self._level_of(entry)
            self._check_level(level)
            board.submit(
                self._level_pack_ids[level], entry.payload, entry.size, meta=entry.meta
            )
            self.dispatched[level] += 1

    def _level_of(self, entry: DataEntry) -> str:
        """The level the entry's frame header app id indexes.

        Dispatch needs only the 20-byte header peek — decoding the payload
        (and inverting its codec chain) is the unpacker KS's job, once, after
        the pack has been routed to its level.
        """
        frame = entry.meta
        if frame is None:
            from repro.codec.frame import peek_header

            frame = peek_header(entry.payload)
        if frame.app_id >= len(self.levels):
            raise BlackboardError(
                f"pack app_id {frame.app_id} has no level (have {len(self.levels)})"
            )
        return self.levels[frame.app_id]

    def _check_level(self, level: str) -> None:
        if level not in self._level_pack_ids:
            raise BlackboardError(f"unknown blackboard level {level!r}")
