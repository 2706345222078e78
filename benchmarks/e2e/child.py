"""One timed run of one workload, in a fresh interpreter (started by run.py).

Prints one JSON object on its last stdout line.  ``setup_s`` runs from the
moment the parent launched this process (``--t0``, epoch seconds) to the
moment the workload's inputs are ready; the timed region starts right after
and ends once every operation's result has been consumed.  Hashing the
outputs into fingerprints happens after the region.

Untraced runs report times scaled to the reference host speed next to the
raw ones (see hostspeed.py); a traced run reports raw times only, because
calibration bursts would be booked to whichever layer they interrupted.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def fingerprint(value: Any) -> Any:
    """Reports and wire bytes become SHA-256 digests; numbers stay as they are."""
    if isinstance(value, str):
        return "sha256:" + hashlib.sha256(value.encode()).hexdigest()
    if isinstance(value, (bytes, bytearray, memoryview)):
        return "sha256:" + hashlib.sha256(value).hexdigest()
    if isinstance(value, list):
        digest = hashlib.sha256()
        for part in value:
            digest.update(part)
        return "sha256:" + digest.hexdigest()
    return value


def load_tracer_module():
    """Load trace.py by path: the bare name belongs to a stdlib module."""
    spec = importlib.util.spec_from_file_location("e2e_trace", HERE / "trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"child: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from hostspeed import HostSpeed
    from repro.telemetry.hostprof import host_environment

    ops = workloads.WORKLOADS[args.workload](args.seed, args.quick, args.tmp)
    raw_setup_s = time.time() - args.t0
    host = HostSpeed()
    out: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", ""),
        "raw_setup_s": raw_setup_s,
        "setup_s": raw_setup_s * host.speed_now(),
        "host": host_environment(),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out is not None:
        tracer = load_tracer_module().LayerTracer()
        tracer.install()
    checks: dict[str, dict[str, Any]] = {}
    errors: dict[str, str] = {}
    content_bytes = 0
    try:
        if tracer is not None:
            tracer.start()
        else:
            host.start()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.set_run(index)
            try:
                nbytes, results = op.run()
            except Exception:
                text = traceback.format_exc()
                for check in op.checks:
                    errors[check] = text
                continue
            content_bytes += nbytes
            checks.update(results)
        if tracer is not None:
            tracer.stop()
            out["raw_wall_s"] = tracer.wall_s
        else:
            out.update(host.stop())
    finally:
        if tracer is not None:
            tracer.uninstall()

    for check, outputs in checks.items():
        checks[check] = {key: fingerprint(value) for key, value in outputs.items()}
    out.update(
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        content_bytes=content_bytes,
        attempted=[check for op in ops for check in op.checks],
        checks=checks,
        errors=errors,
    )
    if tracer is not None:
        summary = tracer.summary()
        summary["per_chain"] = {
            workloads.chain_slug(spec): totals for spec, totals in summary["per_chain"].items()
        }
        out["trace"] = summary
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.chrome_trace(args.workload), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
