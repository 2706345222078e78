"""Flow analysis: latency waterfalls, stage attribution, watermarks.

Consumes the :class:`~repro.telemetry.provenance.FlowRegistry` built during
a run and reduces it to the three views that make an online pipeline
debuggable (Kesavan et al.; Haldar):

* **per-stage latency attribution** — count/mean/p50/p95/max per pipeline
  stage, globally and per writer; because stages telescope, per-flow stage
  sums equal end-to-end latency exactly;
* **pipeline watermarks** — per producer stream, how far the analyzer has
  caught up with what was sealed (lag of the last fully-analyzed pack);
* **critical path** — the slowest completed flow, decomposed by stage, i.e.
  the one pack whose journey bounds end-to-end pipeline freshness.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.telemetry.provenance import STAGES, FlowRecord
from repro.util.stats import nearest_rank

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.provenance import FlowRegistry


def stage_samples(
    records: Iterable[FlowRecord],
) -> dict[str, list[float]]:
    """Per-stage latency samples over every flow that reached the stage."""
    out: dict[str, list[float]] = {stage: [] for stage in STAGES}
    for record in records:
        for stage, dur in record.stages().items():
            out[stage].append(dur)
    return out


def _stats(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    n = len(ordered)
    total = sum(ordered)
    return {
        "count": n,
        "total_s": total,
        "mean_s": total / n if n else 0.0,
        "p50_s": nearest_rank(ordered, 50),
        "p95_s": nearest_rank(ordered, 95),
        "max_s": ordered[-1] if n else 0.0,
    }


def stage_stats(records: Iterable[FlowRecord]) -> dict[str, dict[str, float]]:
    """Reduce :func:`stage_samples` to summary statistics per stage."""
    return {stage: _stats(samples) for stage, samples in stage_samples(records).items()}


def end_to_end_stats(records: Iterable[FlowRecord]) -> dict[str, float]:
    """Summary statistics of completed flows' seal-to-done latency."""
    return _stats([r.end_to_end_s for r in records if r.complete])


def waterfall(record: FlowRecord) -> list[tuple[str, float, float]]:
    """One flow as ``(stage, start time, duration)`` segments, in order."""
    out: list[tuple[str, float, float]] = []
    t = record.t_seal
    for stage, dur in record.stages().items():
        out.append((stage, t, dur))
        t += dur
    return out


def critical_path(records: Iterable[FlowRecord]) -> dict[str, Any] | None:
    """The slowest completed flow, decomposed by stage.

    Returns ``None`` when no flow completed.  ``share`` maps each stage to
    its fraction of the flow's end-to-end latency — the answer to "where
    does the worst pack's time go".
    """
    completed = [r for r in records if r.complete]
    if not completed:
        return None
    worst = max(completed, key=lambda r: (r.end_to_end_s, r.flow_id))
    total = worst.end_to_end_s
    stages = worst.stages()
    return {
        "flow_id": worst.flow_id,
        "origin_global": worst.origin_global,
        "consumer_global": worst.consumer_global,
        "total_s": total,
        "stages_s": stages,
        "share": {
            stage: (dur / total if total > 0 else 0.0) for stage, dur in stages.items()
        },
    }


def watermarks(records: Iterable[FlowRecord]) -> dict[str, dict[str, Any]]:
    """Per producer stream: how far analysis lags behind production.

    The *watermark* of a stream is the seal time of the latest pack the
    analyzer fully consumed; ``lag_s`` is that pack's own seal-to-done
    latency (the pipeline's freshness at the watermark) and ``max_lag_s``
    the worst over the stream's completed flows.  ``in_flight`` counts
    flows sealed but neither completed nor accounted as lost.
    """
    per_stream: dict[tuple[int, int], dict[str, Any]] = {}
    for record in records:
        key = (record.app_id, record.origin_rank)
        entry = per_stream.setdefault(
            key,
            {
                "sealed": 0,
                "completed": 0,
                "dropped": 0,
                "in_flight": 0,
                "watermark_t": None,
                "lag_s": None,
                "max_lag_s": 0.0,
            },
        )
        entry["sealed"] += 1
        if record.complete:
            entry["completed"] += 1
            lag = record.end_to_end_s
            entry["max_lag_s"] = max(entry["max_lag_s"], lag)
            if entry["watermark_t"] is None or record.t_seal > entry["watermark_t"]:
                entry["watermark_t"] = record.t_seal
                entry["lag_s"] = lag
        elif record.dropped is not None:
            entry["dropped"] += 1
        else:
            entry["in_flight"] += 1
    return {f"app{app}/rank{rank}": entry for (app, rank), entry in sorted(per_stream.items())}


def loss_counts(records: Iterable[FlowRecord]) -> dict[str, int]:
    """Dropped flows bucketed by loss label (empty in healthy runs)."""
    out: dict[str, int] = {}
    for record in records:
        if record.dropped is not None:
            out[record.dropped] = out.get(record.dropped, 0) + 1
    return out


def summarize_flows(registry: "FlowRegistry") -> dict[str, Any]:
    """The full flow summary (``SessionResult.flows``, report, bench JSON)."""
    records = list(registry.records())
    completed = [r for r in records if r.complete]
    return {
        "sample_rate": registry.sample_rate,
        "flows_traced": len(records),
        "flows_completed": len(completed),
        "flows_dropped": sum(1 for r in records if r.dropped is not None),
        "losses": loss_counts(records),
        "retry_delay_s": sum(r.retry_delay_s for r in records),
        "stages": stage_stats(records),
        "end_to_end": end_to_end_stats(records),
        "watermarks": watermarks(records),
        "critical_path": critical_path(records),
    }
