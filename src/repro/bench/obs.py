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

Any gate failure raises :class:`~repro.errors.ConfigError`, so *running
the lane is the test*.  ``outdir`` (set by ``--json``) keeps the
hub-on run's unified stream as ``BENCH_obs.ndjson`` — the CI artefact a
release can be audited from with ``python -m repro.obs query``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.network.machine import MachineSpec, TERA100
from repro.obs.registry import (
    HEALTH_SCHEMA,
    METRICS_SCHEMA,
    STEERING_SCHEMA,
    TELEMETRY_SCHEMA,
)
from repro.telemetry import Telemetry, hostprof
from repro.telemetry.export import jsonl_records
from repro.telemetry.popmetrics import PopConfig
from repro.util.tables import Table

#: name of the unified NDJSON artefact kept under ``--json``
ARTIFACT_NAME = "BENCH_obs.ndjson"


def _workload(scale: str) -> SP:
    if scale == "paper":
        return SP(64, "C", iterations=3)
    if scale == "small":
        return SP(16, "C", iterations=3)
    raise ConfigError(f"unknown scale {scale!r}")


@dataclass
class ObsResult:
    """Per-schema round-trip accounting of one gated bus run."""

    machine: str
    scale: str
    seed: int
    host: dict[str, Any]
    overhead_budget: float
    overhead_ratio: float | None = None
    #: ``ObservabilityBus.summary()`` of the gating hub-on run
    bus: dict[str, Any] | None = None
    #: ``(schema, kinds, records, plane_records)`` per published schema
    points: list[tuple[str, int, int, int]] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            ["schema", "kinds", "bus_records", "plane_records"],
            title=(
                f"Observability bus round-trip ({self.machine}, "
                f"scale={self.scale}, seed={self.seed})"
            ),
        )
        for schema, kinds, records, plane in self.points:
            t.add_row(schema, kinds, records, plane)
        return t


def _run_once(scale: str, machine: MachineSpec, seed: int, unified: Path | None):
    """One fully observed coupled run; the bus (writing ``unified``) is on
    or off (None), and that is the only difference."""
    session = CouplingSession(machine=machine, seed=seed, telemetry=Telemetry())
    name = session.add_application(_workload(scale))
    session.set_analyzer(ratio=4.0)
    session.enable_monitor()
    session.enable_pop_metrics(PopConfig(window=0.5))
    session.enable_steering()
    session.enable_provenance()
    if unified is not None:
        session.enable_observability(str(unified))
    t0 = hostprof.host_now()
    run = session.run()
    wall = hostprof.host_now() - t0
    return session, run, run.app(name), wall


def _fingerprint(app, stats) -> tuple:
    """The simulation outputs that must not move when the bus is on."""
    return (
        app.walltime, app.events, app.packs,
        stats["packs"], stats["bytes"], stats["bytes_wire"],
    )


def _schema_total(bus_summary: dict[str, Any], schema: str) -> int:
    return sum(bus_summary["schemas"].get(schema, {}).values())


def obs_roundtrip(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    overhead_budget: float = 0.05,
    repeats: int = 8,
    outdir: str | None = None,
) -> ObsResult:
    """Round-trip every plane through the bus; self-gate identity and cost.

    ``telemetry`` (the driver's ``--telemetry`` flag) is accepted for
    driver uniformity but unused: the lane's paired runs each need a fresh
    per-run :class:`Telemetry` so hub-on and hub-off observe identical,
    independent pipelines.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    result = ObsResult(
        machine=machine.name, scale=scale, seed=seed,
        host=hostprof.host_environment(), overhead_budget=overhead_budget,
    )
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmp:
        unified = Path(tmp) / "unified.ndjson"

        # -- gate 1: bit-identity, hub off vs on -------------------------------
        _, ref_run, ref_app, _ = _run_once(scale, machine, seed, None)
        session, run, app, _ = _run_once(scale, machine, seed, unified)
        kept = unified.read_bytes()  # the overhead pairs below rewrite the file
        ref_fp = _fingerprint(ref_app, ref_run.analyzer_stats)
        fp = _fingerprint(app, run.analyzer_stats)
        if fp != ref_fp:
            raise ConfigError(
                f"observability bus perturbed the simulation: {ref_fp} -> {fp}"
            )

        # -- gate 2: per-plane count self-consistency --------------------------
        summary = run.obs
        pop = session.pop_metrics
        if summary is None or summary["rejected"]:
            raise ConfigError(f"bus rejected records: {summary}")
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
                raise ConfigError(
                    f"bus count for {schema} is {got}, but the plane "
                    f"recorded {expected}"
                )
            result.points.append(
                (schema, len(summary["schemas"].get(schema, {})), got, expected)
            )
        result.bus = summary

        # -- gate 3: host overhead, best-of-N paired runs ----------------------
        # Same rationale as the selfperf lane: ~second-long runs swing with
        # scheduler noise, so each hub-off run is paired with an adjacent
        # hub-on run and the gate takes the minimum pair ratio.  The
        # hot-path refactor roughly halved the base wall time, so the same
        # absolute jitter is now a larger relative swing — eight pairs
        # (was five) keep the minimum a reliable noise floor.
        ratios = []
        for i in range(repeats):
            off_s = _run_once(scale, machine, seed, None)[3]
            on_s = _run_once(scale, machine, seed, unified)[3]
            ratios.append(on_s / off_s - 1.0)
        result.overhead_ratio = min(ratios)
        if result.overhead_ratio > overhead_budget:
            raise ConfigError(
                f"observability bus overhead {result.overhead_ratio:+.2%} "
                f"exceeds the {overhead_budget:.0%} budget (pair ratios: "
                + ", ".join(f"{r:+.2%}" for r in ratios) + ")"
            )

        if outdir is not None:
            Path(outdir).mkdir(parents=True, exist_ok=True)
            (Path(outdir) / ARTIFACT_NAME).write_bytes(kept)
    return result
