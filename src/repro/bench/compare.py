"""Bench regression gate: diff two ``BENCH_*.json`` artefacts.

``python -m repro.bench <exp> --json`` writes the experiment's table rows
plus metadata.  This module compares a *candidate* artefact against a
committed *baseline* with per-metric relative tolerances, so CI can fail a
change that silently degrades stream throughput or inflates overhead.

Direction matters: a throughput column going **up** is fine at any
magnitude, overhead going **down** is fine; only movement in the bad
direction (or any movement at all for direction-less parameter columns)
beyond the tolerance counts as a regression.  Column direction is inferred
from its name (see :func:`metric_direction`); callers can tighten or loosen
individual columns through ``per_metric``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigError
from repro.obs.registry import SCHEMAS

#: column-name fragments implying "bigger is better"
_HIGHER_BETTER = (
    "throughput", "gbps", "mbps", "bandwidth", "bi_", "rate", "speedup", "per_s",
)
#: column-name fragments implying "smaller is better"
_LOWER_BETTER = (
    "overhead", "walltime", "time", "stall", "volume", "size", "bytes",
    "elapsed", "latency", "slowdown", "allocs",
)

#: columns never compared (host-dependent wall-clock noise)
DEFAULT_SKIP = ("elapsed_s",)


def metric_direction(column: str) -> str:
    """Classify a column: ``"higher"`` / ``"lower"`` is better, or ``"either"``.

    ``"either"`` columns (parameters like writer counts, ratios) must stay
    within tolerance in *both* directions — drift means the experiment grid
    itself changed, which a regression gate should flag loudly.
    """
    name = column.lower()
    for frag in _HIGHER_BETTER:
        if frag in name:
            return "higher"
    for frag in _LOWER_BETTER:
        if frag in name:
            return "lower"
    return "either"


def load_bench_json(path: str | Path) -> dict[str, Any]:
    """Read one ``BENCH_*.json`` artefact, validating the minimal shape."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"bench artefact not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bench artefact {path} is not valid JSON: {exc}") from None
    for key in ("experiment", "columns", "rows"):
        if key not in payload:
            raise ConfigError(f"bench artefact {path} misses required key {key!r}")
    return payload


def _as_float(cell: Any) -> float | None:
    """Numeric view of a table cell, None for genuinely textual cells."""
    if isinstance(cell, bool):
        return float(cell)
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(str(cell).strip())
    except ValueError:
        return None


@dataclass(frozen=True)
class MetricDelta:
    """One (row, column) comparison outcome."""

    row: int
    row_label: str
    column: str
    direction: str  # "higher" | "lower" | "either"
    baseline: Any
    candidate: Any
    rel_delta: float  # signed (candidate - baseline) / |baseline|
    tolerance: float
    status: str  # "ok" | "improved" | "regressed"

    @property
    def ratio(self) -> float | None:
        """Candidate-over-baseline ratio — the speedup/slowdown factor.

        ``None`` for textual cells and zero baselines, where a ratio is
        meaningless; direction is *not* folded in, so a 2.0 on a
        higher-better column is a 2x speedup while on a lower-better
        column it is a 2x slowdown.
        """
        b_num, c_num = _as_float(self.baseline), _as_float(self.candidate)
        if b_num is None or c_num is None or b_num == 0.0:
            return None
        return c_num / b_num

    def describe(self) -> str:
        arrow = {"ok": "=", "improved": "+", "regressed": "!"}[self.status]
        ratio = self.ratio
        times = f", x{ratio:.2f}" if ratio is not None else ""
        return (
            f"[{arrow}] row {self.row} ({self.row_label}) {self.column}: "
            f"{self.baseline} -> {self.candidate} "
            f"({self.rel_delta:+.2%}{times}, tol {self.tolerance:.2%}, "
            f"{self.direction}-better)"
        )


@dataclass
class BenchComparison:
    """The full diff of candidate against baseline."""

    experiment: str
    deltas: list[MetricDelta] = field(default_factory=list)
    structural: list[str] = field(default_factory=list)  # shape mismatches
    #: informational only (host-environment drift); never flips :attr:`ok`
    warnings: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "regressed"]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.structural

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable diff for ``bench compare --json``.

        Carries everything ``render()`` prints — including the host-env
        mismatch ``warnings`` — plus every cell's ratio, so dashboards
        can chart speedups without re-deriving them.
        """
        return {
            "experiment": self.experiment,
            "ok": self.ok,
            "structural": list(self.structural),
            "warnings": list(self.warnings),
            "cells_compared": len(self.deltas),
            "improved": len(self.improvements),
            "regressed": len(self.regressions),
            "deltas": [
                {
                    "row": d.row,
                    "row_label": d.row_label,
                    "column": d.column,
                    "direction": d.direction,
                    "baseline": d.baseline,
                    "candidate": d.candidate,
                    "rel_delta": d.rel_delta,
                    "ratio": d.ratio,
                    "tolerance": d.tolerance,
                    "status": d.status,
                }
                for d in self.deltas
            ],
        }

    def render(self) -> str:
        lines = [f"bench compare: {self.experiment}"]
        for msg in self.structural:
            lines.append(f"  [!] structural: {msg}")
        for msg in self.warnings:
            lines.append(f"  [~] warning: {msg}")
        shown = [d for d in self.deltas if d.status != "ok"]
        for delta in shown:
            lines.append("  " + delta.describe())
        compared = len(self.deltas)
        lines.append(
            f"  {compared} cells compared, {len(self.improvements)} improved, "
            f"{len(self.regressions)} regressed, {len(self.structural)} structural"
        )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def _environment_warnings(
    baseline: dict[str, Any], candidate: dict[str, Any]
) -> list[str]:
    """Host-fingerprint drift between artefacts (informational only).

    Wall-clock-derived columns (throughputs, elapsed times) are only
    apples-to-apples on the same interpreter/platform/CPU budget, so any
    mismatch in the ``host`` headers (stamped by ``--json`` runs since the
    hostprof plane landed) is surfaced — but a slower runner is not a code
    regression, so warnings never fail the gate.  Artefacts predating the
    header compare silently.
    """
    b_host, c_host = baseline.get("host"), candidate.get("host")
    if not isinstance(b_host, dict) or not isinstance(c_host, dict):
        return []
    warnings = []
    for key in sorted(set(b_host) | set(c_host)):
        b_val, c_val = b_host.get(key), c_host.get(key)
        if b_val != c_val:
            warnings.append(
                f"host environment differs: {key} {b_val!r} -> {c_val!r} "
                "(wall-clock metrics may not be comparable)"
            )
    return warnings


def _schema_warnings(baseline: dict[str, Any]) -> list[str]:
    """Baseline records stamped with schema tags the registry no longer knows.

    A baseline artefact may embed observability records (the obs lane's
    per-schema counts, hostprof summaries, ...).  If one carries a
    ``schema`` tag that has since been dropped or bumped, the comparison
    is likely stale rather than regressed — warn, never fail, and let the
    owner re-record the baseline.  Only version-shaped tags
    (``family/version``) are considered; other ``"schema"`` keys are not
    record tags.
    """
    unknown: set[str] = set()

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            tag = node.get("schema")
            if isinstance(tag, str) and "/" in tag and tag not in SCHEMAS:
                unknown.add(tag)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(baseline)
    return [
        f"baseline carries schema tag {tag!r} unknown to the current "
        "registry (stale baseline? re-record it)"
        for tag in sorted(unknown)
    ]


def check_tolerances(tolerance: float, per_metric: dict[str, float]) -> None:
    """Reject negative tolerances (callers with a long run ahead check first)."""
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
    for col, tol in per_metric.items():
        if tol < 0:
            raise ConfigError(f"per-metric tolerance for {col!r} must be >= 0")


def _check_rows(payload: dict[str, Any], side: str) -> None:
    """Raise :class:`ConfigError` unless ``rows`` is a list of rows, each a
    list with one cell per column."""
    rows, width = payload["rows"], len(payload["columns"])
    if not isinstance(rows, list):
        raise ConfigError(f"{side} rows must be a list, got {type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ConfigError(f"{side} row {i} is not a list of {width} cells: {row!r}")


def compare_bench(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    tolerance: float = 0.05,
    per_metric: dict[str, float] | None = None,
) -> BenchComparison:
    """Diff two bench payloads; regressions are direction-aware.

    ``tolerance`` is the default allowed relative drift in the *bad*
    direction; ``per_metric`` overrides it per column name.  Rows are
    matched positionally (the experiment grids are deterministic), and any
    shape mismatch — different experiment, missing columns, differing row
    counts — is a structural failure regardless of tolerances.  A row that
    does not match its payload's columns is malformed input: ConfigError.
    A non-finite candidate cell against a finite baseline regresses.
    """
    per_metric = dict(per_metric or {})
    check_tolerances(tolerance, per_metric)
    _check_rows(baseline, "baseline")
    _check_rows(candidate, "candidate")

    cmp = BenchComparison(experiment=str(candidate.get("experiment", "?")))
    if baseline.get("experiment") != candidate.get("experiment"):
        cmp.structural.append(
            f"experiment mismatch: baseline {baseline.get('experiment')!r} "
            f"vs candidate {candidate.get('experiment')!r}"
        )
        return cmp
    cmp.warnings.extend(_environment_warnings(baseline, candidate))
    cmp.warnings.extend(_schema_warnings(baseline))

    b_cols, c_cols = list(baseline["columns"]), list(candidate["columns"])
    missing = [c for c in b_cols if c not in c_cols]
    extra = [c for c in c_cols if c not in b_cols]
    if missing:
        cmp.structural.append(f"candidate lost columns: {missing}")
    if extra:
        cmp.structural.append(f"candidate grew columns: {extra}")

    b_rows, c_rows = baseline["rows"], candidate["rows"]
    if len(b_rows) != len(c_rows):
        cmp.structural.append(
            f"row count changed: {len(b_rows)} -> {len(c_rows)}"
        )
    shared = [c for c in b_cols if c in c_cols and c not in DEFAULT_SKIP]

    for i in range(min(len(b_rows), len(c_rows))):
        b_row = dict(zip(b_cols, b_rows[i]))
        c_row = dict(zip(c_cols, c_rows[i]))
        # Label the row with its leading textual/parameter cells for humans.
        label = ",".join(str(b_row[c]) for c in shared[:3]) or f"#{i}"
        for col in shared:
            b_val, c_val = b_row[col], c_row[col]
            b_num, c_num = _as_float(b_val), _as_float(c_val)
            direction = metric_direction(col)
            tol = per_metric.get(col, tolerance)
            if b_num is None or c_num is None:
                # Textual cell (tool names, labels): identity comparison.
                status = "ok" if str(b_val) == str(c_val) else "regressed"
                cmp.deltas.append(MetricDelta(
                    row=i, row_label=label, column=col, direction="either",
                    baseline=b_val, candidate=c_val, rel_delta=0.0,
                    tolerance=0.0, status=status,
                ))
                continue
            if b_num == 0.0:
                rel = 0.0 if c_num == 0.0 else float("inf")
            else:
                rel = (c_num - b_num) / abs(b_num)
            if not math.isfinite(c_num) and math.isfinite(b_num):
                bad, good = True, False
            elif direction == "higher":
                bad, good = rel < -tol, rel > tol
            elif direction == "lower":
                bad, good = rel > tol, rel < -tol
            else:
                bad, good = abs(rel) > tol, False
            status = "regressed" if bad else ("improved" if good else "ok")
            cmp.deltas.append(MetricDelta(
                row=i, row_label=label, column=col, direction=direction,
                baseline=b_val, candidate=c_val, rel_delta=rel,
                tolerance=tol, status=status,
            ))
    return cmp


def compare_files(
    baseline_path: str | Path,
    candidate_path: str | Path,
    tolerance: float = 0.05,
    per_metric: dict[str, float] | None = None,
) -> BenchComparison:
    """File-level convenience wrapper around :func:`compare_bench`."""
    return compare_bench(
        load_bench_json(baseline_path),
        load_bench_json(candidate_path),
        tolerance=tolerance,
        per_metric=per_metric,
    )
