"""Command-line driver: regenerate any paper figure/table from a shell.

Usage::

    python -m repro.bench fig14 [--scale small|paper] [--seed N]
    python -m repro.bench fig15
    python -m repro.bench fig16
    python -m repro.bench fig17
    python -m repro.bench fig18
    python -m repro.bench bi
    python -m repro.bench trace-sizes
    python -m repro.bench fs-comparison
    python -m repro.bench chaos [--chaos PLAN]
    python -m repro.bench codec
    python -m repro.bench flow
    python -m repro.bench metrics
    python -m repro.bench obs
    python -m repro.bench selfperf
    python -m repro.bench steering
    python -m repro.bench all
    python -m repro.bench compare BASELINE.json CANDIDATE.json [--tolerance T]

Every experiment sub-command shares one argparse parent, so the common
flags (``--scale/--seed/--csv/--json/--telemetry/--profile/--outdir/
--baseline/--tolerance/--metric-tolerance``) are defined exactly once;
experiment-specific flags (``chaos --chaos PLAN``) live on their own
sub-command.

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
``--baseline BENCH_ref.json`` (plus ``--metric-tolerance`` overrides for
host-speed-dependent throughput columns).
"""

from __future__ import annotations

import argparse
import cProfile
import inspect
import io
import json
import pstats
import sys
from pathlib import Path

from repro.bench import (
    bi_bandwidth_table,
    chaos_resilience,
    codec_reduction,
    fig14_stream_throughput,
    flow_attribution,
    fig15_overhead,
    fig16_tool_comparison,
    fig17_topology,
    fig18_density,
    fs_comparison_table,
    metrics_timeline,
    obs_roundtrip,
    selfperf_sweep,
    steering_adaptation,
    trace_size_table,
)
from repro.bench.compare import compare_bench, compare_files, load_bench_json
from repro.errors import ConfigError
from repro.telemetry import Telemetry
from repro.telemetry.hostprof import host_environment, host_now

_DRIVERS = {
    "fig14": fig14_stream_throughput,
    "fig15": fig15_overhead,
    "fig16": fig16_tool_comparison,
    "fig17": fig17_topology,
    "fig18": fig18_density,
    "bi": bi_bandwidth_table,
    "trace-sizes": trace_size_table,
    "fs-comparison": fs_comparison_table,
    "chaos": chaos_resilience,
    "codec": codec_reduction,
    "flow": flow_attribution,
    "metrics": metrics_timeline,
    "obs": obs_roundtrip,
    "selfperf": selfperf_sweep,
    "steering": steering_adaptation,
}

#: functions shown in the --profile hotspot table
PROFILE_TOP_N = 15


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
        help="also write BENCH_<name>.json with rows and metadata",
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
        metavar="BENCH_ref.json",
        help="after running, diff the fresh payload against this artefact "
        "and exit non-zero on regression (single experiment only)",
    )
    common.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed relative drift for --baseline (default 0.05)",
    )
    common.add_argument(
        "--metric-tolerance",
        action="append",
        default=[],
        metavar="COLUMN=FLOAT",
        help="per-column tolerance override for --baseline; repeatable",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    common = _common_parser()
    for name in sorted(_DRIVERS) + ["all"]:
        experiment = sub.add_parser(
            name,
            parents=[common],
            help=f"run the {name} sweep" if name != "all" else "run every experiment",
        )
        if name == "chaos":
            experiment.add_argument(
                "--chaos",
                metavar="PLAN",
                help="fault plan: a canned name (crash1, degrade, corrupt, "
                "drop, stall, mixed) or a JSON plan file; default: sweep "
                "every canned plan",
            )
    compare = sub.add_parser(
        "compare",
        help="diff two BENCH_*.json artefacts; exit 1 on regression",
    )
    compare.add_argument("baseline", help="reference BENCH_*.json")
    compare.add_argument("candidate", help="freshly produced BENCH_*.json")
    compare.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="allowed relative drift in the bad direction (default 0.05)",
    )
    compare.add_argument(
        "--metric-tolerance",
        action="append",
        default=[],
        metavar="COLUMN=FLOAT",
        help="per-column tolerance override; repeatable",
    )
    compare.add_argument(
        "--json",
        action="store_true",
        help="emit the full diff (deltas, ratios, host-env warnings) as "
        "JSON on stdout instead of the text report",
    )
    return parser


def _parse_metric_tolerances(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        column, sep, value = pair.partition("=")
        if not sep or not column:
            raise ConfigError(
                f"--metric-tolerance wants COLUMN=FLOAT, got {pair!r}"
            )
        try:
            out[column] = float(value)
        except ValueError:
            raise ConfigError(
                f"--metric-tolerance {column!r}: {value!r} is not a float"
            ) from None
    return out


def _compare_main(args: argparse.Namespace) -> int:
    comparison = compare_files(
        args.baseline,
        args.candidate,
        tolerance=args.tolerance,
        per_metric=_parse_metric_tolerances(args.metric_tolerance),
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.render())
    return 0 if comparison.ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "compare":
        return _compare_main(args)
    if args.telemetry:
        args.json = True
    if args.baseline and args.experiment == "all":
        parser.error("--baseline gates a single experiment, not 'all'")

    outdir = Path(args.outdir)
    if args.json or args.profile:
        outdir.mkdir(parents=True, exist_ok=True)

    names = sorted(_DRIVERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        driver = _DRIVERS[name]
        telemetry = Telemetry() if args.telemetry else None
        kwargs = {}
        if name == "chaos" and getattr(args, "chaos", None):
            kwargs["plan"] = args.chaos
        # Lanes that keep artefacts beside their JSON declare ``outdir``.
        if args.json and "outdir" in inspect.signature(driver).parameters:
            kwargs["outdir"] = str(outdir)
        stem = name.replace("-", "_")
        profiler = cProfile.Profile() if args.profile else None
        t0 = host_now()
        if profiler is not None:
            profiler.enable()
        try:
            result = driver(
                scale=args.scale, seed=args.seed, telemetry=telemetry, **kwargs
            )
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
            if name == "selfperf":
                payload["hostprof"] = result.profile
                payload["overhead_ratio"] = result.overhead_ratio
            if name == "obs":
                payload["bus"] = result.bus
                payload["overhead_ratio"] = result.overhead_ratio
            if hotspots is not None:
                payload["profile"] = hotspots
            json_path = outdir / f"BENCH_{stem}.json"
            json_path.write_text(json.dumps(payload, indent=2, default=str))
            print(f"[{name}: JSON -> {json_path}]")
        if args.baseline:
            comparison = compare_bench(
                load_bench_json(args.baseline),
                payload,
                tolerance=args.tolerance,
                per_metric=_parse_metric_tolerances(args.metric_tolerance),
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
