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

from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.nas import SP
from repro.core.session import CouplingSession
from repro.errors import ConfigError
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry import Telemetry
from repro.telemetry.popmetrics import (
    PopConfig,
    SUM_KEYS,
    metrics_from_sums,
)
from repro.util.tables import Table

#: writer/reader ratios swept (paper Figure 14's axis)
RATIOS = (4.0, 2.0, 1.0)

#: metric window in virtual seconds (≈ 100 windows over the small workload)
WINDOW_S = 0.01

#: telescoping tolerance of the acceptance gate
TELESCOPE_TOL = 1e-6


@dataclass
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


@dataclass
class MetricsResult:
    """POP-efficiency sweep over analyzer sizing."""

    machine: str
    scale: str
    seed: int
    points: list[MetricsPoint] = field(default_factory=list)

    def table(self) -> Table:
        t = Table(
            [
                "ratio", "readers", "windows", "phases", "pe",
                "load_balance", "comm_eff", "ser_eff", "instr_share",
                "walltime_s",
            ],
            title=f"Time-resolved POP efficiency ({self.machine}, scale={self.scale})",
        )
        for p in self.points:
            t.add_row(
                f"{p.ratio:g}", p.readers, p.windows, p.phases,
                f"{p.pe:.6f}", f"{p.load_balance:.6f}", f"{p.comm_eff:.6f}",
                f"{p.ser_eff:.6f}", f"{p.instr_share:.6f}",
                f"{p.walltime_s:.6f}",
            )
        return t


def _workload(scale: str):
    if scale == "paper":
        return SP(64, "C", iterations=3)
    if scale == "small":
        return SP(16, "C", iterations=3)
    raise ConfigError(f"unknown scale {scale!r}")


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
        raise ConfigError(f"{label}: engine closed no windows/phases")
    eor = summary["end_of_run"]
    identity = eor["load_balance"] * eor["communication_efficiency"]
    if abs(identity - eor["parallel_efficiency"]) > 1e-9:
        raise ConfigError(
            f"{label}: POP identity broken: LB*CommE={identity} "
            f"!= PE={eor['parallel_efficiency']}"
        )
    recombined = recombine_phases(summary)
    for key, value in recombined.items():
        if abs(value - eor[key]) > TELESCOPE_TOL:
            raise ConfigError(
                f"{label}: telescoping broken on {key}: "
                f"phases give {value}, end of run {eor[key]}"
            )


def metrics_timeline(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    ratios: tuple[float, ...] = RATIOS,
    outdir: str | None = None,
) -> MetricsResult:
    """Sweep analyzer ratios with the online POP-metrics engine attached.

    ``outdir`` (set by ``--json``) streams the first configuration's
    window/phase records to ``BENCH_metrics.ndjson`` in that directory —
    the artifact CI uploads for the visual-analytics frontend.
    """
    kernel = _workload(scale)
    result = MetricsResult(machine=machine.name, scale=scale, seed=seed)
    # Small packs so every writer streams continuously (as in the codec
    # bench): backpressure and analyzer load must be visible per window.
    cost = InstrumentationCost(block_size=4096, na_buffers=2)
    reference = None
    for index, ratio in enumerate(ratios):
        session = CouplingSession(
            machine=machine,
            seed=seed,
            instrumentation=cost,
            telemetry=telemetry if telemetry is not None else Telemetry(),
        )
        name = session.add_application(kernel)
        readers = session.set_analyzer(ratio=ratio)
        stream_path = None
        if index == 0 and outdir is not None:
            stream_path = str(Path(outdir) / "BENCH_metrics.ndjson")
        session.enable_pop_metrics(PopConfig(window=WINDOW_S), stream=stream_path)
        run = session.run()
        app = run.app(name)
        summary = run.efficiency
        label = f"ratio {ratio:g}"
        _gate(summary, label)
        if index == 0:
            reference = (app.walltime, app.events)
            # The observer bar: the same configuration without the engine
            # must produce bit-identical results.
            plain = CouplingSession(
                machine=machine, seed=seed, instrumentation=cost,
                telemetry=Telemetry(),
            )
            plain_name = plain.add_application(kernel)
            plain.set_analyzer(ratio=ratio)
            plain_run = plain.run()
            plain_app = plain_run.app(plain_name)
            if (plain_app.walltime, plain_app.events) != reference:
                raise ConfigError(
                    f"{label}: metrics engine perturbed the run: "
                    f"{plain_app.walltime} != {reference[0]}"
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
                walltime_s=app.walltime,
            )
        )
    return result
