"""Metrics bench: time-resolved POP efficiency over the coupled workload.

Runs the fig14-style coupled workload (an instrumented SP kernel streaming
into the analyzer partition) once per writer/reader ratio with the online
:class:`~repro.telemetry.popmetrics.PopMetricsEngine` attached, and
reports the windowed POP metrics per configuration: parallel efficiency,
load balance, communication efficiency, serialization efficiency and the
instrumentation share, plus the window/phase counts the change-point
detector produced.  One row per ratio, so ``BENCH_metrics.json`` *is* the
efficiency-versus-analyzer-sizing document.

Internal consistency is asserted on every row before it is emitted:

* the POP identity must hold: ``PE = LB x CommE`` (to 1e-9);
* the windowed accounting must telescope — metrics recombined from the
  per-phase per-rank sums must match the engine's end-of-run metrics to
  1e-6;
* the engine must actually have windowed the run (``windows > 0``,
  ``phases >= 1``);

and the first configuration is run twice — metrics on and off — asserting
bit-identical application walltime and event counts (the observer bar).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.bench.harness import (
    assert_unperturbed,
    coupled_session,
    fingerprint,
    reference_kernel,
)
from repro.bench.lane import Column, LaneResult, lane
from repro.errors import BenchGateError
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import (
    PopConfig,
    SUM_KEYS,
    metrics_from_sums,
)

#: writer/reader ratios swept (paper Figure 14's axis)
RATIOS = (4.0, 2.0, 1.0)

#: metric window in virtual seconds (≈ 100 windows over the small workload)
WINDOW_S = 0.01

#: telescoping tolerance of the acceptance gate
TELESCOPE_TOL = 1e-6

#: the first configuration's window/phase stream, kept under ``--json`` —
#: the artifact CI uploads for the visual-analytics frontend
ARTIFACT_NAME = "BENCH_metrics.ndjson"


@dataclass(slots=True)
class MetricsPoint:
    """One analyzer ratio on the coupled workload."""

    ratio: float
    readers: int
    windows: int
    phases: int
    pe: float
    load_balance: float
    comm_eff: float
    ser_eff: float
    instr_share: float
    walltime_s: float


COLUMNS = (
    Column("ratio", fmt="g"),
    Column("readers"),
    Column("windows"),
    Column("phases"),
    Column("pe", fmt=".6f"),
    Column("load_balance", fmt=".6f"),
    Column("comm_eff", fmt=".6f"),
    Column("ser_eff", fmt=".6f"),
    Column("instr_share", fmt=".6f"),
    Column("walltime_s", fmt=".6f"),
)


def recombine_phases(summary: dict) -> dict[str, float]:
    """End-of-run metrics recomputed from the per-phase per-rank sums.

    This is the telescoping check in one place: phases partition the run,
    their per-rank second sums are additive, so recombining them must
    reproduce the engine's own end-of-run metrics exactly.
    """
    combined: dict[str, dict[str, float]] = {}
    for phase in summary["phases"]:
        for rank_key, sums in phase["ranks"].items():
            entry = combined.setdefault(rank_key, {key: 0.0 for key in SUM_KEYS})
            for key in SUM_KEYS:
                entry[key] += sums[key]
    return metrics_from_sums(combined)


def _gate(summary: dict, label: str) -> None:
    if summary["windows"] <= 0 or not summary["phases"]:
        raise BenchGateError(f"{label}: engine closed no windows/phases")
    eor = summary["end_of_run"]
    identity = eor["load_balance"] * eor["communication_efficiency"]
    if abs(identity - eor["parallel_efficiency"]) > 1e-9:
        raise BenchGateError(
            f"{label}: POP identity broken: LB*CommE={identity} "
            f"!= PE={eor['parallel_efficiency']}"
        )
    recombined = recombine_phases(summary)
    for key, value in recombined.items():
        if abs(value - eor[key]) > TELESCOPE_TOL:
            raise BenchGateError(
                f"{label}: telescoping broken on {key}: "
                f"phases give {value}, end of run {eor[key]}"
            )


@lane("metrics", columns=COLUMNS)
def metrics_timeline(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    ratios: tuple[float, ...] = RATIOS,
) -> LaneResult:
    """Sweep analyzer ratios with the online POP-metrics engine attached.

    The first configuration streams its window/phase records as they
    close; the result carries that stream as the ``BENCH_metrics.ndjson``
    artifact.
    """
    kernel = reference_kernel(scale)
    result = LaneResult(
        f"Time-resolved POP efficiency ({machine.name}, scale={scale})", COLUMNS
    )
    with tempfile.TemporaryDirectory(prefix="bench_metrics_") as tmp:
        for index, ratio in enumerate(ratios):
            session, name, readers = coupled_session(
                kernel, machine, seed,
                telemetry if telemetry is not None else Telemetry(), ratio=ratio,
            )
            stream = Path(tmp) / ARTIFACT_NAME if index == 0 else None
            session.enable_pop_metrics(PopConfig(window=WINDOW_S), stream=stream)
            run = session.run()
            summary = run.efficiency
            _gate(summary, f"ratio {ratio:g}")
            if index == 0:
                kept = stream.read_bytes()
                result.artifacts[ARTIFACT_NAME] = lambda path: path.write_bytes(kept)
                # The observer bar: the same configuration without the
                # engine must produce bit-identical results.
                plain, plain_name, _ = coupled_session(
                    kernel, machine, seed, Telemetry(), ratio=ratio
                )
                assert_unperturbed(
                    "metrics engine",
                    fingerprint(plain.run(), plain_name),
                    fingerprint(run, name),
                )
            eor = summary["end_of_run"]
            result.points.append(
                MetricsPoint(
                    ratio=ratio,
                    readers=readers,
                    windows=summary["windows"],
                    phases=len(summary["phases"]),
                    pe=eor["parallel_efficiency"],
                    load_balance=eor["load_balance"],
                    comm_eff=eor["communication_efficiency"],
                    ser_eff=eor["serialization_efficiency"],
                    instr_share=eor["instrumentation_share"],
                    walltime_s=run.app(name).walltime,
                )
            )
    return result
