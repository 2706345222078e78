"""Compare two results.json files of run.py (A = parent/base, B = change).

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --pairs P1.json C1.json P2.json C2.json ...

For every workload x end-to-end metric: both medians and quartiles, the
ratio B/A (base A), and a verdict from the bound fixed in BENCHMARK.json:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound and by more than
                 A's own quartile distance (with ``--pairs``: and B wins at
                 least nine tenths of the pairs, ties counting for neither);
* ``unresolved`` the run-to-run spread (quartile distance over median, the
                 wider side) exceeds the bound, unless every run of one side
                 beats every run of the other;
* ``same``       otherwise.

Deterministic counts and fingerprints are compared exactly.  Exit status 1
on any ``worse`` or any rise in ``failed_share``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from run import quartiles  # sibling script: the directory of this file is sys.path[0]

ROOT = Path(__file__).resolve().parents[2]


def verdict(
    a: list[float], b: list[float], bound: float, better: str, pair_wins: float | None = None
) -> str:
    """The choosing-metrics rule for one workload x metric."""
    sign = 1.0 if better == "lower" else -1.0  # >0 after signing means "B is worse"
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    worse_by = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    b_always_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (b_always_better or b_always_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    clears_noise = abs(bm - am) > (a3 - a1)
    enough_wins = pair_wins is None or pair_wins >= 0.9
    if worse_by < -bound and clears_noise and enough_wins:
        return "better"
    return "same"


def is_deterministic(metric: dict[str, str]) -> bool:
    """Per-layer metrics that are exact counts of a deterministic simulation."""
    name = metric["name"]
    return (
        metric["unit"] in ("count", "B") or name.endswith("_vs") or name == "codec.ratio"
    )


def failed_share(record: dict[str, Any]) -> float:
    return record["failed"] / record["attempted"]


def compare(
    parents: list[dict[str, Any]], changes: list[dict[str, Any]], spec: dict[str, Any]
) -> int:
    """Print the table for one A/B pair, or for pooled pairs; return exit status."""
    paired = len(parents) > 1
    status = 0
    print(f"{'workload':<17} {'metric':<17} {'A median (q1..q3)':>30} "
          f"{'B median (q1..q3)':>30} {'B/A':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if any(workload not in doc["workloads"] for doc in parents + changes):
            print(f"{workload:<17} missing from one side, skipped")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if paired:
                # one value per run set: that set's median
                a = [statistics.median(d["workloads"][workload]["runs"][name]) for d in parents]
                b = [statistics.median(d["workloads"][workload]["runs"][name]) for d in changes]
                sign = 1.0 if metric["better"] == "lower" else -1.0
                wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
                result = verdict(a, b, metric["bound"], metric["better"], wins / len(a))
            else:
                a = parents[0]["workloads"][workload]["runs"][name]
                b = changes[0]["workloads"][workload]["runs"][name]
                result = verdict(a, b, metric["bound"], metric["better"])
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"{workload:<17} {name:<17} "
                  f"{f'{am:.5g} ({a1:.5g}..{a3:.5g}) n={len(a)}':>30} "
                  f"{f'{bm:.5g} ({b1:.5g}..{b3:.5g}) n={len(b)}':>30} "
                  f"{bm / am:>7.3f}  {result}"
                  + (f" ({wins}/{len(a)} pairs won)" if paired else ""))
            if result == "worse":
                status = 1
        share_a = max(failed_share(d["workloads"][workload]) for d in parents)
        share_b = max(failed_share(d["workloads"][workload]) for d in changes)
        rose = share_b > share_a
        print(f"{workload:<17} {'failed_share':<17} {share_a:>30.4f} {share_b:>30.4f} "
              f"{'':>7}  {'worse' if rose else 'same'}")
        if rose:
            status = 1
        compare_exact(workload, parents[0], changes[0], spec)
    return status


def compare_exact(workload: str, a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> None:
    """Fingerprints and deterministic per-layer counts of the first A and B."""
    rec_a, rec_b = a["workloads"][workload], b["workloads"][workload]
    same = rec_a["fingerprint"] == rec_b["fingerprint"]
    print(f"{workload:<17} fingerprint        {'identical' if same else 'DIFFERS'}")
    if "per_layer" in rec_a and "per_layer" in rec_b:
        changed = [
            (m["name"], rec_a["per_layer"].get(m["name"]), rec_b["per_layer"].get(m["name"]))
            for m in spec["per_layer"]
            if is_deterministic(m)
            and rec_a["per_layer"].get(m["name"]) != rec_b["per_layer"].get(m["name"])
        ]
        total = sum(1 for m in spec["per_layer"] if is_deterministic(m))
        print(f"{workload:<17} deterministic counts: {total - len(changed)} identical, "
              f"{len(changed)} changed")
        for name, va, vb in changed:
            print(f"{'':<17}   {name}: {va} -> {vb}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="A.json B.json, or with --pairs P1 C1 P2 C2 ...")
    parser.add_argument("--pairs", action="store_true",
                        help="files are interleaved parent/change run sets")
    args = parser.parse_args(argv)
    if len(args.files) % 2 or (not args.pairs and len(args.files) != 2):
        parser.error("give A.json B.json, or --pairs with an even number of files")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    docs = [json.loads(Path(path).read_text()) for path in args.files]
    return compare(docs[0::2], docs[1::2], spec)


if __name__ == "__main__":
    sys.exit(main())
