"""Command-line consumer of the unified observability plane.

Usage::

    python -m repro.obs tail PATH|HOST:PORT [--schema S] [--kind K]
                        [--since T] [--follow] [--max N] [--strict]
    python -m repro.obs query PATH_OR_DIR... [--schema S] [--kind K]
                        [--since T] [--limit N] [--count]
    python -m repro.obs summary PATH_OR_DIR...
    python -m repro.obs schemas

``tail`` follows one live stream — an NDJSON file another process is
flushing (torn trailing lines are tolerated and resumed, mid-file
corruption fails loudly) or a :class:`~repro.obs.sinks.TailServer`
address (``HOST:PORT`` or a Unix-socket path) — printing matching records
one JSON object per line.  Without ``--follow`` a file tail stops at the
current end; with it, the reader polls for growth until ``--max`` records
arrived or interrupted.

``query`` filters archived run directories across all five schemas;
``summary`` prints per-schema/kind record counts; ``schemas`` lists the
schema table.  All filters share one predicate: ``--schema``/``--kind`` match
exactly, ``--since`` keeps records stamped at or after the bound (records
without a timestamp never pass a ``--since`` filter).
"""

from __future__ import annotations

import argparse
import json
import socket as socket_module
import sys
import time
from pathlib import Path
from typing import Any, Iterator

from repro.errors import ConfigError
from repro.obs.archive import ArchiveScan, iter_archive, iter_ndjson, match_record
from repro.obs.registry import _DESCRIPTIONS, SCHEMAS, screen
from repro.obs.sinks import parse_address

#: polling cadence of ``tail --follow`` on a file, seconds
FOLLOW_POLL_S = 0.1


def _filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schema", help="keep only this schema tag")
    parser.add_argument("--kind", help="keep only this record kind")
    parser.add_argument(
        "--since",
        type=float,
        help="keep records stamped at or after this virtual time (seconds); "
        "records without a timestamp are excluded",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tail, query and summarize the unified observability plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    tail = sub.add_parser("tail", help="follow a live NDJSON file or tail server")
    tail.add_argument("source", help="NDJSON path, HOST:PORT, or Unix-socket path")
    _filter_flags(tail)
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep polling a file for growth instead of stopping at EOF",
    )
    tail.add_argument(
        "--max",
        type=int,
        default=None,
        metavar="N",
        help="stop after printing N matching records",
    )
    tail.add_argument(
        "--strict",
        action="store_true",
        help="fail on records with an unregistered schema or kind instead "
        "of skipping and counting them",
    )

    query = sub.add_parser("query", help="filter archived run directories")
    query.add_argument("roots", nargs="+", help="record files or run directories")
    _filter_flags(query)
    query.add_argument(
        "--limit", type=int, default=None, metavar="N", help="print at most N records"
    )
    query.add_argument(
        "--count",
        action="store_true",
        help="print only the number of matching records",
    )

    summary = sub.add_parser("summary", help="per-schema/kind record counts")
    summary.add_argument("roots", nargs="+", help="record files or run directories")

    sub.add_parser("schemas", help="list the registered schemas and their kinds")
    return parser


def _emit(record: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record))
    sys.stdout.write("\n")
    sys.stdout.flush()


# -- tail ---------------------------------------------------------------------------


def _file_records(path: Path, follow: bool) -> Iterator[Any]:
    """Records of a growing NDJSON file; polls for more under ``follow``."""
    offset = 0
    while True:
        for offset, record in iter_ndjson(path, tail=True, start=offset):
            yield record
        if not follow:
            return
        time.sleep(FOLLOW_POLL_S)


def _socket_records(source: str) -> Iterator[Any]:
    """Records of a tail-server feed, until the server hangs up."""
    family, sockaddr = parse_address(source)
    with socket_module.socket(family, socket_module.SOCK_STREAM) as sock:
        try:
            sock.connect(sockaddr)
        except OSError as exc:
            raise ConfigError(f"cannot connect to {source}: {exc}") from exc
        with sock.makefile("rb") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
                    raise ConfigError(f"{source}: not valid JSON: {exc}") from exc


def _tail_main(args: argparse.Namespace) -> int:
    # A plain existing file is a file tail; anything else must parse as a
    # socket address (HOST:PORT, or the path of a live Unix socket).
    path = Path(args.source)
    if path.is_file():
        records = _file_records(path, args.follow)
    else:
        records = _socket_records(args.source)
    printed = 0
    skipped: dict[str, int] = {}
    try:
        for record in records:
            label = screen(record)
            if label is not None:
                if args.strict:
                    raise ConfigError(
                        f"{args.source}: uninterpretable record ({label}); "
                        "drop --strict to skip and count such records"
                    )
                skipped[label] = skipped.get(label, 0) + 1
                continue
            if match_record(
                record, schema=args.schema, kind=args.kind, since=args.since
            ):
                _emit(record)
                printed += 1
                if args.max is not None and printed >= args.max:
                    break
    except KeyboardInterrupt:
        pass
    finally:
        records.close()
    _report_skipped(skipped, "tail: ")
    return 0


# -- query / summary ----------------------------------------------------------------


def _query_main(args: argparse.Namespace) -> int:
    scan = ArchiveScan()
    printed = 0
    for record in iter_archive(
        args.roots,
        schema=args.schema,
        kind=args.kind,
        since=args.since,
        scan=scan,
    ):
        if not args.count:
            if args.limit is not None and printed >= args.limit:
                break
            _emit(record)
        printed += 1
    if args.count:
        print(printed)
    _report_scan(scan)
    return 0


def _summary_main(args: argparse.Namespace) -> int:
    from repro.util.tables import Table

    scan = ArchiveScan()
    counts: dict[tuple[str, str], int] = {}
    for record in iter_archive(args.roots, scan=scan):
        key = (record["schema"], record["kind"])
        counts[key] = counts.get(key, 0) + 1
    table = Table(
        ["schema", "kind", "records"],
        title=f"Observability archive ({scan.files_scanned} file(s), "
        f"{scan.records_read} record(s))",
    )
    for (schema, kind), n in sorted(counts.items()):
        table.add_row(schema, kind, n)
    print(table.render())
    _report_scan(scan)
    return 0


def _report_skipped(skipped: dict[str, int], prefix: str = "") -> None:
    for label, n in sorted(skipped.items()):
        print(
            f"[{prefix}skipped {n} record(s) of unknown schema or kind {label!r}]",
            file=sys.stderr,
        )


def _report_scan(scan: ArchiveScan) -> None:
    _report_skipped(scan.unknown_schemas)
    for path in scan.files_skipped:
        print(f"[skipped non-record file {path}]", file=sys.stderr)


def _schemas_main() -> int:
    from repro.util.tables import Table

    table = Table(["schema", "kinds", "description"], title="Registered schemas")
    for name in sorted(SCHEMAS):
        table.add_row(name, ", ".join(sorted(SCHEMAS[name])), _DESCRIPTIONS[name])
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tail":
            return _tail_main(args)
        if args.command == "query":
            return _query_main(args)
        if args.command == "summary":
            return _summary_main(args)
        return _schemas_main()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # | head
        return 0


if __name__ == "__main__":
    sys.exit(main())
