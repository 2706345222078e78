"""Reading the record plane back: torn-tail-tolerant NDJSON + archive query.

Two consumers need to *read* schema-tagged NDJSON:

* a **live tail** following a file another process is still flushing.  A
  flush can tear mid-record, leaving a trailing line that is invalid JSON
  with no newline yet — that is normal, not corruption, and the reader
  must tolerate exactly one such line and resume from its start once more
  bytes arrive (:func:`iter_ndjson`, ``tail=True``);
* an **archive query** over finished run directories, where every line
  should parse and anything else is real corruption worth failing on.

Offsets are byte positions (files are read in binary), so a resumed tail
re-seeks exactly to where the previous pass stopped regardless of record
content.  :func:`iter_archive` walks run directories for ``*.jsonl`` /
``*.ndjson`` files and yields records across all five schemas, counting
(rather than crashing on) records of a tag it does not know — a run
archived by a *newer* version must still be queryable.

Every record read back is judged by :func:`~repro.obs.registry.screen`,
the rule the bus applies at publish: the lenient readers
(:func:`iter_archive`, ``obs tail``) count what it refuses, the strict one
(:func:`read_records`) raises.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ConfigError
from repro.obs.registry import record_time, screen

__all__ = ["iter_ndjson", "iter_archive", "match_record", "read_records", "ArchiveScan"]

#: file suffixes the archive walker treats as record streams
RECORD_SUFFIXES = (".ndjson", ".jsonl")


def iter_ndjson(
    path: str | Path,
    *,
    tail: bool = False,
    start: int = 0,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(next_offset, record)`` pairs from one NDJSON file.

    ``next_offset`` is the byte position just past the record's newline —
    pass it back as ``start`` to resume without re-reading.  Blank lines
    are skipped (but advance the offset).

    With ``tail=True`` the final line is allowed to be *partial*: a line
    with no terminating newline (torn mid-flush by a live writer) ends the
    iteration silently, and the last yielded ``next_offset`` (or ``start``
    when nothing parsed) is the position to resume from.  A malformed line
    that **is** newline-terminated is mid-file corruption and raises
    :class:`~repro.errors.ConfigError` loudly in both modes — as does a
    torn final line when ``tail=False``, because a finished file should
    not have one.
    """
    path = Path(path)
    lineno = 0
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        offset = start
        for raw in fh:
            lineno += 1
            complete = raw.endswith(b"\n")
            line = raw.strip()
            if not line:
                if complete:
                    offset += len(raw)
                    continue
                return  # whitespace-only torn tail: resume at its start
            try:
                record = json.loads(line)
            except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                if tail and not complete:
                    return  # the one tolerated trailing partial line
                raise ConfigError(
                    f"{path}:+{offset}: not valid JSON: {exc}"
                ) from exc
            if not complete:
                if tail:
                    # Parses today, but the writer may still be appending
                    # to this line (its newline has not flushed) — treat
                    # as partial and re-read it next pass.
                    return
                raise ConfigError(
                    f"{path}:+{offset}: final line has no newline "
                    "(torn tail; use tail=True to follow a live file)"
                )
            offset += len(raw)
            yield offset, record


def read_records(path: str | Path, schema: str | None = None) -> list[dict[str, Any]]:
    """Load one finished NDJSON stream, or raise :class:`ConfigError`.

    Strict where :func:`iter_archive` is lenient: a record :func:`screen`
    refuses — or, with ``schema`` given, one of any other schema — fails
    loudly, as do the malformed and torn lines :func:`iter_ndjson` rejects.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    for next_offset, record in iter_ndjson(path):
        label = screen(record)
        if label is None and schema not in (None, record["schema"]):
            label = f"schema {record['schema']!r}, expected {schema!r}"
        if label is not None:
            raise ConfigError(f"{path}:+{offset}: uninterpretable record ({label})")
        records.append(record)
        offset = next_offset
    return records


def match_record(
    record: dict[str, Any],
    schema: str | None = None,
    kind: str | None = None,
    since: float | None = None,
) -> bool:
    """The shared ``--schema/--kind/--since`` filter predicate.

    ``since`` is inclusive (a record stamped exactly at the bound passes)
    and excludes time-less records — a filter on time cannot vouch for a
    record that carries none.
    """
    if schema is not None and record.get("schema") != schema:
        return False
    if kind is not None and record.get("kind") != kind:
        return False
    if since is not None:
        t = record_time(record)
        if t is None or t < since:
            return False
    return True


@dataclass
class ArchiveScan:
    """Bookkeeping of one archive walk: what was read, skipped, unknown."""

    files_scanned: int = 0
    records_read: int = 0
    records_matched: int = 0
    #: records :func:`screen` refused, per label (mostly foreign schema tags)
    unknown_schemas: dict[str, int] = field(default_factory=dict)
    #: files skipped because their first line was not a JSON object
    files_skipped: list[str] = field(default_factory=list)


def _record_files(roots: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        root = Path(root)
        if root.is_dir():
            found = [
                p
                for suffix in RECORD_SUFFIXES
                for p in root.rglob(f"*{suffix}")
                if p.is_file()
            ]
            files.extend(sorted(set(found)))
        elif root.is_file():
            files.append(root)
        else:
            raise ConfigError(f"no such file or directory: {root}")
    return files


def iter_archive(
    roots: Iterable[str | Path],
    *,
    schema: str | None = None,
    kind: str | None = None,
    since: float | None = None,
    scan: ArchiveScan | None = None,
) -> Iterator[dict[str, Any]]:
    """Yield matching records from run-archive files, file by file.

    ``roots`` are files or directories (searched recursively for
    ``*.ndjson`` / ``*.jsonl``).  Records :func:`screen` refuses (unknown
    schema, foreign kind, not an object) are counted in
    ``scan.unknown_schemas`` and skipped — never yielded, even
    schema-filter-free, because a consumer cannot interpret them; a file
    whose very first line is not JSON at all (some foreign ``.jsonl``) is
    skipped whole.  Genuine mid-file corruption still raises, matching
    :func:`iter_ndjson`.
    """
    scan = scan if scan is not None else ArchiveScan()
    for path in _record_files(roots):
        try:
            stream = iter_ndjson(path)
            first = next(stream, None)
        except ConfigError:
            scan.files_skipped.append(str(path))
            continue
        scan.files_scanned += 1
        if first is None:
            continue  # empty file: scanned, nothing to yield
        for _offset, record in itertools.chain([first], stream):
            scan.records_read += 1
            label = screen(record)
            if label is not None:
                scan.unknown_schemas[label] = scan.unknown_schemas.get(label, 0) + 1
                continue
            if match_record(record, schema=schema, kind=kind, since=since):
                scan.records_matched += 1
                yield record
