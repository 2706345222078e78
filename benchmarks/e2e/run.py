"""The repo's host-time benchmark: five workloads, end to end and per layer.

Two ways in, one measuring loop.

Full run (what a person types; prints every metric, writes ``results.json``)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--workload NAME]
                                  [--out DIR] [--quick]

One contract run (what the benchmark driver calls; last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: closed loop, one client.  Every timed run is one fresh
single-threaded child interpreter (child.py), children run one at a time,
``PYTHONHASHSEED=0``.  Repetitions are rep-major round-robin over the
workloads so host drift spreads evenly.  End-to-end metrics come from
untraced children; per-layer metrics from one extra traced child.

Time metrics (``wall_s``, ``cpu_s``, ``content_mb_per_s``, ``setup_s``) are
scaled to a reference host speed that each child calibrates while it
measures (hostspeed.py says why); ``raw_*`` values are the unscaled seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 5


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to: measured a failure)."""


# -- children ---------------------------------------------------------------------------


def run_child(
    workload: str,
    seed: int,
    out_dir: Path,
    *,
    quick: bool,
    setup_only: bool = False,
    trace: bool = False,
) -> dict[str, Any]:
    tmp = tempfile.mkdtemp(prefix="tmp.", dir=out_dir)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--tmp", tmp,
    ]
    if quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace-out", str(out_dir / f"{workload}.trace.json")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the child puts this checkout's src/ first itself
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(time.time())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_runs(
    names: list[str],
    seed: int,
    out_dir: Path,
    *,
    quick: bool,
    repeats: int | None,
    seconds: float | None,
) -> dict[str, list[dict[str, Any]]]:
    """Untraced children, rep-major; stop after ``repeats`` rounds or when
    one more round would overrun ``seconds`` (always at least one round)."""
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    started = time.monotonic()
    rounds = 0
    while True:
        for name in names:
            runs[name].append(run_child(name, seed, out_dir, quick=quick))
        rounds += 1
        if repeats is not None:
            if rounds >= repeats:
                break
        else:
            elapsed = time.monotonic() - started
            if elapsed + elapsed / rounds > seconds:
                break
    return runs


def setup_samples(
    name: str, seed: int, out_dir: Path, runs: list[dict[str, Any]], *, quick: bool
) -> list[float]:
    """Set-up time of every child so far, topped up with set-up-only children."""
    samples = [run["setup_s"] for run in runs]
    while len(samples) < SETUP_SAMPLES:
        probe = run_child(name, seed, out_dir, quick=quick, setup_only=True)
        samples.append(probe["setup_s"])
    return samples


# -- correctness ----------------------------------------------------------------------


def load_golden(path: Path, quick: bool, seed: int) -> dict[str, Any] | None:
    with open(path) as fh:
        golden = json.load(fh)
    return golden["quick" if quick else "full"].get(str(seed))


def judge(
    workload: str, runs: list[dict[str, Any]], golden: dict[str, Any] | None
) -> tuple[int, list[str]]:
    """Count attempted checks over ``runs``; describe each failed one.

    A check fails on an exception, on a fingerprint that differs from the
    golden entry (seeds that have one) or from the first run of this very
    invocation (same seed, same inputs: any difference is nondeterminism).
    Invariants that hold for every seed (no bytes lost on a healthy stream,
    a lossless chain renders the identity chain's report, ...) are checked
    by the workloads themselves and arrive here as exceptions.
    """
    attempted = 0
    failures: list[str] = []
    expected = golden.get(workload) if golden is not None else None
    first = runs[0]
    for index, run in enumerate(runs):
        for check in run["attempted"]:
            attempted += 1
            where = f"{workload} run {index} {check}"
            outputs = run["checks"].get(check)
            if outputs is None:
                failures.append(f"{where}: raised\n{run['errors'].get(check, '')}")
            elif expected is not None and outputs != expected.get(check):
                failures.append(f"{where}: differs from golden: {diff(expected.get(check), outputs)}")
            elif outputs != first["checks"].get(check, outputs):
                failures.append(f"{where}: differs from run 0: {diff(first['checks'][check], outputs)}")
    return attempted, failures


def diff(expected: dict[str, Any] | None, got: dict[str, Any]) -> str:
    if expected is None:
        return "no golden entry for this check"
    keys = sorted(set(expected) | set(got))
    return ", ".join(
        f"{k}: {expected.get(k)!r} -> {got.get(k)!r}" for k in keys if expected.get(k) != got.get(k)
    )


# -- metrics ----------------------------------------------------------------------------


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(runs: list[dict[str, Any]], setups: list[float]) -> dict[str, float]:
    wall = statistics.median(run["wall_s"] for run in runs)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(run["cpu_s"] for run in runs),
        "content_mb_per_s": runs[0]["content_bytes"] / 1e6 / wall,
        "peak_rss_mb": max(run["peak_rss_kb"] for run in runs) / 1024.0,
        "setup_s": statistics.median(setups),
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    trace: dict[str, Any], untraced_wall_s: float, declared: list[dict[str, str]]
) -> dict[str, float]:
    """Exactly the declared per-layer metrics, from one traced child's summary.

    All times here are raw host seconds of that one child (a traced run
    carries no calibration bursts), so ``untraced_wall_s`` is raw too.  A
    per-chain codec metric reads 0 on a workload that never ran the chain;
    any other declared name this function does not compute is a bug here.
    """
    layers, counters, names = trace["layers"], trace["counters"], trace["names"]

    def self_s(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0)

    def counter(name: str) -> float:
        return counters.get(name, 0.0)

    m = {f"{layer}.self_s": s for layer, s in layers.items() if layer != "unattributed"}
    for name in (
        "simt.events", "simt.processes", "mpi.p2p_calls", "mpi.coll_calls",
        "network.transfers", "network.bytes", "vmpi.blocks_written", "vmpi.blocks_read",
        "vmpi.write_stall_vs", "vmpi.read_wait_vs", "vmpi.eagain_returns",
        "vmpi.packs_dropped", "instrument.records", "instrument.packs", "codec.bytes_in",
        "codec.bytes_wire", "codec.frames", "blackboard.entries", "blackboard.jobs",
        "blackboard.jobs_queued_hwm", "blackboard.lock_failures",
        "analysis.packs_ingested", "analysis.packs_rejected", "iosim.ops",
        "planes.null_calls", "planes.records_published", "planes.records_dropped",
        "planes.alerts", "planes.decisions", "planes.faults_injected",
    ):
        m[name] = counter(name)
    m["simt.us_per_event"] = ratio(layers["simt"] * 1e6, m["simt.events"])
    # blocks or packs delivered to their reader: the model's own efficiency
    m["simt.events_per_block"] = ratio(m["simt.events"], m["vmpi.blocks_read"])
    m["codec.encode_s"] = self_s("codec.CodecChain.encode")
    m["codec.decode_s"] = self_s("codec.CodecChain.decode")
    m["codec.frame_build_s"] = self_s("codec.frame.build_frame")
    m["codec.frame_parse_s"] = self_s("codec.frame.parse_frame")
    m["codec.encode_mb_per_s"] = ratio(m["codec.bytes_in"] / 1e6, m["codec.encode_s"])
    m["codec.decode_mb_per_s"] = ratio(counter("codec.bytes_decoded") / 1e6, m["codec.decode_s"])
    m["codec.ratio"] = ratio(m["codec.bytes_wire"], m["codec.bytes_in"])
    for slug, (enc_s, enc_bytes, dec_s, dec_bytes) in trace["per_chain"].items():
        m[f"codec.encode_s.{slug}"] = enc_s
        m[f"codec.decode_s.{slug}"] = dec_s
        m[f"codec.encode_mb_per_s.{slug}"] = ratio(enc_bytes / 1e6, enc_s)
        m[f"codec.decode_mb_per_s.{slug}"] = ratio(dec_bytes / 1e6, dec_s)
    m["analysis.report_s"] = self_s("analysis.AnalyzerEngine.build_report") + self_s(
        "analysis.ProfileReport.render"
    )
    m["planes.calls"] = trace["layer_calls"]["planes"]
    m["trace.wall_s"] = trace["wall_s"]
    m["trace.overhead_ratio"] = ratio(trace["wall_s"], untraced_wall_s)
    m["trace.unattributed_s"] = layers["unattributed"]
    m["trace.unattributed_share"] = ratio(layers["unattributed"], trace["wall_s"])
    m["trace.spans"] = trace["spans_seen"]
    out = {}
    for metric in declared:
        name = metric["name"]
        if name not in m and not re.fullmatch(r"codec\.(en|de)code_(s|mb_per_s)\..+", name):
            raise BenchmarkError(f"metric {name} is declared but was not measured")
        out[name] = m.get(name, 0.0)
    return out


# -- printing --------------------------------------------------------------------------


def print_metrics(name: str, values: dict[str, float], declared: list[dict[str, str]]) -> None:
    for metric in declared:
        print(f"  {name:<17} {metric['name']:<44} {values[metric['name']]:>16.6g} {metric['unit']}")


def print_layer_shares(name: str, layer_metrics: dict[str, float]) -> None:
    wall = layer_metrics["trace.wall_s"]
    shares = sorted(
        (
            (seconds / wall, name.removesuffix(".self_s"))
            for name, seconds in layer_metrics.items()
            if name.endswith(".self_s")
        ),
        reverse=True,
    )
    text = "  ".join(f"{layer} {share:.1%}" for share, layer in shares if share >= 0.0005)
    print(f"  {name:<17} layer shares of traced wall: {text}  "
          f"unattributed {layer_metrics['trace.unattributed_share']:.1%}")


# -- golden -----------------------------------------------------------------------------


def update_golden(path: Path, out_dir: Path, names: list[str]) -> int:
    try:
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"--update-golden: cannot run git to check src/: {exc}", file=sys.stderr)
        return 2
    if status.returncode != 0 or status.stdout.strip():
        print(
            "--update-golden refused: src/ has uncommitted changes or is not in a git "
            f"work tree\n{status.stdout}{status.stderr}",
            file=sys.stderr,
        )
        return 2
    golden: dict[str, Any] = {"full": {}, "quick": {}}
    for size, quick in (("quick", True), ("full", False)):
        for seed in (0, 1):
            entry = {}
            for name in names:
                run = run_child(name, seed, out_dir, quick=quick)
                if run["errors"]:
                    print(f"--update-golden: {name} seed {seed} failed:\n"
                          + "\n".join(run["errors"].values()), file=sys.stderr)
                    return 1
                entry[name] = run["checks"]
                print(f"golden {size} seed {seed} {name}: {len(run['checks'])} checks")
            golden[size][str(seed)] = entry
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="full run: rounds (default 5)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract run: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--out", default=str(HERE / "out"), help="results and trace files")
    parser.add_argument("--quick", action="store_true", help="~1/10 size, for the smoke test")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    all_names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in all_names:
        parser.error(f"unknown workload {args.workload!r}; choose from {all_names}")
    names = [args.workload] if args.workload else all_names
    contract = args.seconds is not None
    if contract and args.workload is None:
        parser.error("--seconds needs --workload")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.update_golden:
            return update_golden(Path(args.golden), out_dir, names)
        return measure(args, spec, names, out_dir, contract)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2


def measure_workload(
    name: str,
    runs: list[dict[str, Any]],
    golden: dict[str, Any] | None,
    args,
    out_dir: Path,
    spec: dict[str, Any],
    *,
    want_end_to_end: bool,
    want_per_layer: bool,
) -> dict[str, Any]:
    """Everything results.json holds about one workload."""
    record: dict[str, Any] = {}
    judged = list(runs)
    if want_end_to_end:
        setups = setup_samples(name, args.seed, out_dir, runs, quick=args.quick)
        record["end_to_end"] = end_to_end(runs, setups)
        record["runs"] = {
            "wall_s": [run["wall_s"] for run in runs],
            "cpu_s": [run["cpu_s"] for run in runs],
            "content_mb_per_s": [run["content_bytes"] / 1e6 / run["wall_s"] for run in runs],
            "peak_rss_mb": [run["peak_rss_kb"] / 1024.0 for run in runs],
            "setup_s": setups,
            "raw_wall_s": [run["raw_wall_s"] for run in runs],
            "raw_cpu_s": [run["raw_cpu_s"] for run in runs],
        }
    if want_per_layer:
        traced = run_child(name, args.seed, out_dir, quick=args.quick, trace=True)
        raw_wall = statistics.median(run["raw_wall_s"] for run in runs)
        record["per_layer"] = per_layer(traced["trace"], raw_wall, spec["per_layer"])
        judged.append(traced)  # tracing must not perturb the simulation
    attempted, failures = judge(name, judged, golden)
    record.update(
        attempted=attempted, failed=len(failures), failures=failures,
        fingerprint=runs[0]["checks"],
    )
    return record


def print_record(name: str, record: dict[str, Any], spec: dict[str, Any]) -> None:
    print(f"{name}: {record['attempted']} checks, {record['failed']} failed "
          f"(failed_share {record['failed'] / record['attempted']:.3f})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if "end_to_end" in record:
        print_metrics(name, record["end_to_end"], spec["end_to_end"])
        for metric, values in record["runs"].items():
            q1, q2, q3 = quartiles(values)
            print(f"  {name:<17} {metric:<18} median {q2:.6g}  quartiles "
                  f"{q1:.6g}..{q3:.6g}  n={len(values)}")
    if "per_layer" in record:
        print_metrics(name, record["per_layer"], spec["per_layer"])
        print_layer_shares(name, record["per_layer"])


def measure(args, spec: dict[str, Any], names: list[str], out_dir: Path, contract: bool) -> int:
    golden = load_golden(Path(args.golden), args.quick, args.seed)
    if golden is None:
        print(f"seed {args.seed} has no golden entry: outputs are checked against the "
              "workloads' own invariants and for run-to-run determinism only")
    load_start = os.getloadavg()
    print(f"host: nproc={os.cpu_count()} loadavg={load_start} PYTHONHASHSEED=0")
    want_end_to_end = not contract or args.trace == 0
    want_per_layer = not contract or args.trace == 1
    if contract:
        # per-layer metrics need one untraced run beside the traced one
        repeats, seconds = (None, args.seconds) if want_end_to_end else (1, None)
    else:
        repeats, seconds = args.repeats, None
    runs = timed_runs(
        names, args.seed, out_dir, quick=args.quick, repeats=repeats, seconds=seconds
    )
    results = {
        name: measure_workload(
            name, runs[name], golden, args, out_dir, spec,
            want_end_to_end=want_end_to_end, want_per_layer=want_per_layer,
        )
        for name in names
    }
    for name in names:
        print_record(name, results[name], spec)
    if contract:
        record = results[names[0]]
        declared, values = (
            (spec["end_to_end"], record["end_to_end"])
            if want_end_to_end
            else (spec["per_layer"], record["per_layer"])
        )
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
            },
        }))
    else:
        print(f"n={args.repeats} timed runs per workload: medians and quartiles only; "
              "no percentile above the median is supported by this sample")
        document = {
            "schema": "repro.e2e/1",
            "seed": args.seed,
            "repeats": args.repeats,
            "quick": args.quick,
            "pythonhashseed": "0",
            "host": runs[names[0]][0]["host"],
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "workloads": results,
        }
        path = out_dir / "results.json"
        with open(path, "w") as fh:
            json.dump(document, fh, indent=1)
        print(f"wrote {path}")
    return 1 if any(record["failed"] for record in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
