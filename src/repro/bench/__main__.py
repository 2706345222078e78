"""Command-line driver: regenerate any paper figure/table from a shell.

Usage::

    python -m repro.bench LANE [--scale small|paper] [--seed N] [--json ...]
    python -m repro.bench chaos [--chaos PLAN]
    python -m repro.bench all
    python -m repro.bench compare BASELINE.json CANDIDATE.json [--tolerance T]

``LANE`` is a figure (``fig14`` .. ``fig18``), an in-text table (``bi``,
``trace-sizes``, ``fs-comparison``) or an observation-plane lane (``chaos``,
``codec``, ``flow``, ``metrics``, ``obs``, ``selfperf``, ``steering``);
``--help`` lists what is registered.

The experiments are the lanes registered in :data:`repro.bench.lane.LANES`;
this module iterates the registry and knows none of them by name.  Every
experiment sub-command shares one argparse parent, so the common flags
(``--scale/--seed/--csv/--json/--telemetry/--profile/--outdir/
--baseline/--tolerance/--metric-tolerance``) are defined exactly once; a
lane's own flags (``chaos --chaos PLAN``) are declared with the lane and
live on its sub-command.

With ``--json`` each experiment additionally writes ``BENCH_<name>.json``
(table rows + metadata + a host-environment header); adding
``--telemetry`` runs the measurement pipeline itself instrumented, embeds
the self-telemetry summary in the JSON, and dumps
``BENCH_<name>.trace.json`` — a Chrome trace-event file loadable in
Perfetto or ``chrome://tracing``.  ``metrics --json`` also streams
``BENCH_metrics.ndjson``, the incremental NDJSON window/phase export;
``selfperf --json`` dumps the host profiler's Chrome trace and JSONL;
``steering --json`` dumps the adaptive run's decision log.
``--profile`` wraps the driver in ``cProfile``, prints a top-N hotspot
table and dumps ``BENCH_<name>.pstats`` for ``snakeviz``/``pstats``.

``compare`` diffs two such artefacts with direction-aware per-metric
tolerances, warns on host-environment mismatch, and exits non-zero on
regression — the CI gate.  Experiment runs can self-gate in one step with
``--baseline BENCH_ref.json``: the lane's declared per-column tolerances
apply (host-speed-dependent throughput columns), ``--metric-tolerance``
overrides them.

Exit codes: 0 — ran (and matched the baseline, if given); 1 — a lane's
own gate was violated (``FAIL <lane>: ...`` on stderr) or the baseline
comparison regressed; 2 — bad input (``error: ...`` on stderr).  Flag
values, the baseline file and a lane's own flags are checked before the
first experiment runs.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
from pathlib import Path

from repro.bench.lane import LANES
from repro.bench.compare import check_tolerances, compare_bench, compare_files, load_bench_json
from repro.errors import BenchGateError, ConfigError
from repro.telemetry.core import Telemetry
from repro.telemetry.hostprof import host_environment, host_now

#: functions shown in the --profile hotspot table
PROFILE_TOP_N = 15


def _metric_tolerance(pair: str) -> tuple[str, float]:
    column, sep, value = pair.partition("=")
    if not sep or not column:
        raise ConfigError(f"--metric-tolerance wants COLUMN=FLOAT, got {pair!r}")
    try:
        return column, float(value)
    except ValueError:
        raise ConfigError(f"--metric-tolerance {column!r}: {value!r} is not a float") from None


def _add_tolerance_flags(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help=f"allowed relative drift {what} (default 0.05)",
    )
    parser.add_argument(
        "--metric-tolerance",
        action="append",
        type=_metric_tolerance,
        default=[],
        metavar="COLUMN=FLOAT",
        help="per-column tolerance override; repeatable",
    )


def _common_parser() -> argparse.ArgumentParser:
    """The shared flag set every experiment sub-command inherits."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--scale",
        choices=("small", "paper"),
        default="small",
        help="parameter grid: reduced (default) or the paper's own",
    )
    common.add_argument("--seed", type=int, default=0, help="experiment seed")
    common.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an aligned table"
    )
    common.add_argument(
        "--json",
        action="store_true",
        help="also write BENCH_<name>.json with rows and metadata, and the "
        "lane's artefacts beside it",
    )
    common.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument the measurement pipeline itself; dumps a Chrome "
        "trace next to the JSON (implies --json)",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="run the experiment under cProfile: print a top-N hotspot "
        "table and dump BENCH_<name>.pstats into --outdir",
    )
    common.add_argument(
        "--outdir",
        default=".",
        help="directory for --json/--telemetry artefacts (default: cwd)",
    )
    common.add_argument(
        "--baseline",
        type=load_bench_json,
        metavar="BENCH_ref.json",
        help="after running, diff the fresh payload against this artefact "
        "and exit non-zero on regression (single experiment only)",
    )
    _add_tolerance_flags(common, "for --baseline")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    common = _common_parser()
    for name, lane in sorted(LANES.items()):
        experiment = sub.add_parser(
            name, parents=[common], help=f"run the {name} sweep"
        )
        for dest, (flag, options) in lane.flags.items():
            experiment.add_argument(flag, dest=dest, **options)
    sub.add_parser("all", parents=[common], help="run every experiment")
    compare = sub.add_parser(
        "compare",
        help="diff two BENCH_*.json artefacts; exit 1 on regression",
    )
    compare.add_argument("baseline", help="reference BENCH_*.json")
    compare.add_argument("candidate", help="freshly produced BENCH_*.json")
    _add_tolerance_flags(compare, "in the bad direction")
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the full diff (deltas, ratios, host-env warnings) as "
        "JSON on stdout instead of the text report",
    )
    return parser


def _compare_main(args: argparse.Namespace, per_metric: dict[str, float]) -> int:
    comparison = compare_files(
        args.baseline, args.candidate, tolerance=args.tolerance, per_metric=per_metric
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.render())
    return 0 if comparison.ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(list(sys.argv[1:] if argv is None else argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _main(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    per_metric = dict(args.metric_tolerance)
    check_tolerances(args.tolerance, per_metric)
    if args.experiment == "compare":
        return _compare_main(args, per_metric)
    if args.telemetry:
        args.json = True
    if args.baseline and args.experiment == "all":
        parser.error("--baseline gates a single experiment, not 'all'")

    outdir = Path(args.outdir)
    if args.json or args.profile:
        outdir.mkdir(parents=True, exist_ok=True)

    names = sorted(LANES) if args.experiment == "all" else [args.experiment]
    for name in names:
        lane = LANES[name]
        kwargs = {
            dest: getattr(args, dest)
            for dest in lane.flags
            if getattr(args, dest, None) is not None
        }
        telemetry = Telemetry() if args.telemetry and lane.telemetry else None
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        stem = name.replace("-", "_")
        profiler = cProfile.Profile() if args.profile else None
        t0 = host_now()
        if profiler is not None:
            profiler.enable()
        try:
            result = lane.run(scale=args.scale, seed=args.seed, **kwargs)
        except BenchGateError as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = host_now() - t0
        table = result.table()
        print(table.to_csv() if args.csv else table.render())
        print(f"[{name}: regenerated in {elapsed:.1f}s at scale={args.scale}]")
        hotspots = None
        if profiler is not None:
            hotspots = _report_profile(profiler, name, outdir)
        payload = {
            "experiment": name,
            "scale": args.scale,
            "seed": args.seed,
            "elapsed_s": elapsed,
            "host": host_environment(),
            "columns": table.columns,
            "rows": table.rows,
        }
        if args.json:
            if telemetry is not None:
                payload["telemetry"] = telemetry.summary()
                trace_path = outdir / f"BENCH_{stem}.trace.json"
                telemetry.write_chrome_trace(trace_path)
                print(f"[{name}: Chrome trace -> {trace_path}]")
            payload.update(result.extras)
            if hotspots is not None:
                payload["profile"] = hotspots
            json_path = outdir / f"BENCH_{stem}.json"
            json_path.write_text(json.dumps(payload, indent=2, default=str))
            print(f"[{name}: JSON -> {json_path}]")
            for filename, write in result.artifacts.items():
                write(outdir / filename)
        if args.baseline:
            comparison = compare_bench(
                args.baseline,
                payload,
                tolerance=args.tolerance,
                per_metric={**lane.tolerances, **per_metric},
            )
            print(comparison.render())
            if not comparison.ok:
                return 1
        print()
    return 0


def _report_profile(profiler: cProfile.Profile, name: str, outdir: Path) -> list[dict]:
    """Dump pstats, print the hotspot table, return top rows for the JSON."""
    stem = name.replace("-", "_")
    pstats_path = outdir / f"BENCH_{stem}.pstats"
    profiler.dump_stats(pstats_path)
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("cumulative")
    buf = io.StringIO()
    stats.stream = buf
    stats.print_stats(PROFILE_TOP_N)
    print(buf.getvalue().rstrip())
    print(f"[{name}: pstats -> {pstats_path}]")
    hotspots = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
    )[:PROFILE_TOP_N]:
        filename, lineno, funcname = func
        hotspots.append(
            {
                "function": f"{filename}:{lineno}({funcname})",
                "ncalls": nc,
                "tottime_s": tt,
                "cumtime_s": ct,
            }
        )
    return hotspots


if __name__ == "__main__":
    sys.exit(main())
