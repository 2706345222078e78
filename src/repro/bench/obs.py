"""Obs bench: gate the unified observability bus against its own cost.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) with every observation plane enabled — health
monitor, POP metrics, steering, provenance — twice: once without the bus
(hub-off) and once with the bus publishing to a file sink plus an in-memory
ring (hub-on).  The lane self-gates before it reports anything:

* **bit-identity** — the hub-on run's simulation fingerprint (walltimes,
  event/pack counts, analyzer byte totals) must equal the hub-off run's:
  the bus observes, it never perturbs;
* **count self-consistency** — the bus's per-schema record counts must
  match each plane's own totals (telemetry records, monitor alerts,
  steering decisions, the metrics engine's windows + phases + summary);
* **host overhead** — paired hub-off/hub-on runs, best-of-N minimum pair
  ratio below ``overhead_budget`` (default 5%), the same
  noise-robust gate the selfperf lane uses.

Any gate failure raises :class:`~repro.errors.BenchGateError`, so *running
the lane is the test*.  The result carries the hub-on run's unified
stream as the ``BENCH_obs.ndjson`` artifact (written under ``--json``) —
the CI artefact a release can be audited from with
``python -m repro.obs query``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from repro.bench.harness import (
    assert_unperturbed,
    coupled_session,
    fingerprint,
    paired_overhead,
    reference_kernel,
)
from repro.bench.lane import Column, LaneResult, lane
from repro.errors import BenchGateError
from repro.network.machine import MachineSpec, TERA100
from repro.obs.registry import (
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
)
from repro.telemetry import hostprof
from repro.telemetry.core import Telemetry
from repro.telemetry.export import jsonl_records
from repro.telemetry.popmetrics import PopConfig

#: name of the unified NDJSON artefact kept under ``--json``
ARTIFACT_NAME = "BENCH_obs.ndjson"

#: a point is ``(schema, kinds, bus records, plane records)``
COLUMNS = (
    Column("schema", lambda p: p[0]),
    Column("kinds", lambda p: p[1]),
    Column("bus_records", lambda p: p[2]),
    Column("plane_records", lambda p: p[3]),
)


def _run_once(scale: str, machine: MachineSpec, seed: int, unified: Path | None):
    """One fully observed coupled run; the bus (writing ``unified``) is on
    or off (None), and that is the only difference."""
    session, name, _ = coupled_session(
        reference_kernel(scale), machine, seed, Telemetry(), ratio=4.0, cost=None
    )
    session.enable_monitor()
    session.enable_pop_metrics(PopConfig(window=0.5))
    session.enable_steering()
    session.enable_provenance()
    if unified is not None:
        session.enable_observability(str(unified))
    t0 = hostprof.host_now()
    run = session.run()
    wall = hostprof.host_now() - t0
    return session, run, fingerprint(run, name), wall


def _schema_total(bus_summary: dict[str, Any], schema: str) -> int:
    return sum(bus_summary["schemas"].get(schema, {}).values())


@lane("obs", columns=COLUMNS, telemetry=False)
def obs_roundtrip(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    overhead_budget: float = 0.05,
    repeats: int = 8,
) -> LaneResult:
    """Round-trip every plane through the bus; self-gate identity and cost.

    The lane takes no ``telemetry``: its paired runs each need a fresh
    per-run :class:`Telemetry` so hub-on and hub-off observe identical,
    independent pipelines.
    """
    result = LaneResult(
        f"Observability bus round-trip ({machine.name}, scale={scale}, seed={seed})",
        COLUMNS,
    )
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmp:
        unified = Path(tmp) / "unified.ndjson"

        # -- gate 1: bit-identity, hub off vs on -------------------------------
        _, _, ref_fp, _ = _run_once(scale, machine, seed, None)
        session, run, fp, _ = _run_once(scale, machine, seed, unified)
        kept = unified.read_bytes()  # the overhead pairs below rewrite the file
        assert_unperturbed("observability bus", ref_fp, fp)

        # -- gate 2: per-plane count self-consistency --------------------------
        summary = run.obs
        pop = session.pop_metrics
        if summary is None or summary["rejected"]:
            raise BenchGateError(f"bus rejected records: {summary}")
        plane_totals = {
            TELEMETRY_SCHEMA: len(jsonl_records(session.telemetry)),
            # every sealed window and phase, plus the one run summary
            METRICS_SCHEMA: len(pop.windows) + len(pop.phases) + 1,
            HEALTH_SCHEMA: len(session.monitor.alerts),
            STEERING_SCHEMA: len(session.steering.decisions),
        }
        for schema, expected in sorted(plane_totals.items()):
            got = _schema_total(summary, schema)
            if got != expected:
                raise BenchGateError(
                    f"bus count for {schema} is {got}, but the plane "
                    f"recorded {expected}"
                )
            result.points.append(
                (schema, len(summary["schemas"].get(schema, {})), got, expected)
            )
        result.extras["bus"] = summary

        # -- gate 3: host overhead, best-of-N paired runs ----------------------
        # The hot-path refactor roughly halved the base wall time, so the
        # same absolute jitter is now a larger relative swing — eight pairs
        # (was five) keep the minimum a reliable noise floor.
        result.extras["overhead_ratio"] = paired_overhead(
            "observability bus",
            lambda: _run_once(scale, machine, seed, None)[3],
            lambda: _run_once(scale, machine, seed, unified)[3],
            repeats,
            overhead_budget,
        )
    result.artifacts[ARTIFACT_NAME] = lambda path: path.write_bytes(kept)
    return result
