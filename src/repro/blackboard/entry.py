"""Data entries and the type registry.

A data entry is the paper's tuple ``{Type, Size, Payload}``.  Type
identifiers are computed as a hash of both the *level* name and the
*data-type* name (paper Sec. III-B), which is what makes the multi-level
blackboard work: the same knowledge-source code and type names instantiate
independently per level (per instrumented application).
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any

from repro.errors import BlackboardError, UnknownTypeError


def _hash_type(level: str, name: str) -> int:
    h = hashlib.blake2b(digest_size=4)
    h.update(level.encode())
    h.update(b"\x1f")
    h.update(name.encode())
    return int.from_bytes(h.digest(), "little")


class TypeRegistry:
    """Thread-safe bidirectional registry of (level, name) <-> type id."""

    __slots__ = ("_lock", "_ids", "_names")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[tuple[str, str], int] = {}
        self._names: dict[int, tuple[str, str]] = {}

    def register(self, name: str, level: str = "") -> int:
        """Get-or-create the id of a (level, name) data type."""
        key = (level, name)
        with self._lock:
            existing = self._ids.get(key)
            if existing is not None:
                return existing
            type_id = _hash_type(level, name)
            clash = self._names.get(type_id)
            if clash is not None and clash != key:
                raise BlackboardError(
                    f"type id collision: {key} vs {clash} (rename one type)"
                )
            self._ids[key] = type_id
            self._names[type_id] = key
            return type_id

    def lookup(self, name: str, level: str = "") -> int:
        type_id = self._ids.get((level, name))
        if type_id is None:
            raise UnknownTypeError(f"unregistered data type {name!r} at level {level!r}")
        return type_id

    def known(self, type_id: int) -> bool:
        return type_id in self._names

    def __len__(self) -> int:
        return len(self._ids)


class DataEntry:
    """One blackboard datum: ``{Type, Size, Payload}`` with a ref-count.

    The payload is writable only while exactly one reference exists; the
    buffer is released (payload dropped) when the count reaches zero.
    """

    __slots__ = ("type_id", "size", "_payload", "_refs", "_lock", "freed", "meta")

    def __init__(self, type_id: int, size: int, payload: Any, meta: Any = None):
        if size < 0:
            raise BlackboardError(f"negative entry size: {size}")
        self.type_id = type_id
        self.size = size
        self._payload = payload
        self._refs = 1
        self._lock = threading.Lock()
        self.freed = False
        # Optional decoded rider travelling with the payload (e.g. the
        # already-parsed Frame of an event pack), so downstream knowledge
        # sources never re-parse wire bytes the submitter has parsed.
        # Purely advisory: consumers must handle ``None``.
        self.meta = meta

    @property
    def payload(self) -> Any:
        if self.freed:
            raise BlackboardError("payload access after free (ref-count bug)")
        return self._payload

    @property
    def refs(self) -> int:
        return self._refs

    @property
    def writable(self) -> bool:
        return self._refs == 1 and not self.freed

    def retain(self) -> "DataEntry":
        with self._lock:
            if self.freed:
                raise BlackboardError("retain() after free")
            self._refs += 1
        return self

    def release(self) -> bool:
        """Drop one reference; returns True when the buffer was freed."""
        with self._lock:
            if self.freed:
                raise BlackboardError("release() after free")
            self._refs -= 1
            if self._refs < 0:
                raise BlackboardError("negative ref-count")
            if self._refs == 0:
                self.freed = True
                self._payload = None
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataEntry type={self.type_id:#010x} size={self.size} refs={self._refs}>"
