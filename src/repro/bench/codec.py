"""Codec bench: wire-volume reduction versus codec CPU, chain by chain.

Runs the fig14-style coupled workload (an instrumented SP kernel
streaming into the analyzer partition) once per reduction chain and
reports what each stage composition buys: physical wire bytes versus
modelled content bytes, the per-pack compression ratio, the virtual CPU
charged for encoding and decoding, and the end-to-end slowdown against
the identity chain.  One table row per chain, so ``BENCH_codec.json``
*is* the reduction trade-off document.

Internal consistency is asserted on every row before it is emitted:

* no pack may be rejected (every descriptor must round-trip);
* lossless chains must deliver exactly the identity chain's event count;
* the session's reduction accounting must telescope — writer-side wire
  bytes equal analyzer-side wire bytes ingested;
* compressing chains must actually compress (``ratio < 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import coupled_session, reference_kernel
from repro.bench.lane import Column, LaneResult, lane
from repro.errors import BenchGateError
from repro.network.machine import MachineSpec, TERA100
from repro.telemetry.core import Telemetry

#: chain sweep: identity baseline, then increasingly composed reductions
CHAINS = ("", "delta", "delta+dict", "delta+dict+zlib")


@dataclass(slots=True)
class CodecPoint:
    """One reduction chain on one coupled-workload configuration."""

    chain: str
    events: int
    packs: int
    bytes_content: int
    bytes_wire: int
    #: physical wire bytes per modelled content byte (< 1 compresses)
    ratio: float
    encode_cpu_s: float
    decode_cpu_s: float
    app_walltime_s: float
    #: app walltime relative to the identity chain (1.0 = free)
    slowdown: float


COLUMNS = (
    Column("chain", lambda p: p.chain or "identity"),
    Column("events"),
    Column("packs"),
    Column("content_kb", "bytes_content", ".2f", 1 / 1024),
    Column("wire_kb", "bytes_wire", ".2f", 1 / 1024),
    Column("ratio", fmt=".4f"),
    Column("encode_us", "encode_cpu_s", ".2f", 1e6),
    Column("decode_us", "decode_cpu_s", ".2f", 1e6),
    Column("walltime_s", "app_walltime_s", ".6f"),
    Column("slowdown", fmt=".6f"),
)


@lane("codec", columns=COLUMNS)
def codec_reduction(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    chains: tuple[str, ...] = CHAINS,
) -> LaneResult:
    """Sweep reduction chains over the coupled workload.

    The identity chain runs first and anchors the slowdown column; each
    subsequent chain is gated on the consistency invariants listed in the
    module docstring before its row is recorded.
    """
    kernel = reference_kernel(scale)
    result = LaneResult(f"Event reduction sweep ({machine.name}, scale={scale})", COLUMNS)
    base_walltime = None
    base_events = None
    for chain in chains:
        session, name, _ = coupled_session(kernel, machine, seed, telemetry, ratio=4.0)
        if chain:
            session.set_reduction(chain)
        run = session.run()
        app = run.app(name)
        stats = run.analyzer_stats
        if stats["packs_rejected"] != 0:
            raise BenchGateError(
                f"chain {chain!r}: {stats['packs_rejected']} packs rejected "
                f"({stats['rejects_by_cause']})"
            )
        if chain:
            red = run.reduction
            bytes_content, bytes_wire = red["bytes_content"], red["bytes_wire"]
            ratio = red["ratio"]
            encode_cpu, decode_cpu = red["encode_cpu_s"], red["decode_cpu_s"]
            if bytes_wire != stats["bytes_wire"]:
                raise BenchGateError(
                    f"chain {chain!r}: writer wire bytes {bytes_wire} != "
                    f"analyzer wire bytes {stats['bytes_wire']}"
                )
            if ratio >= 1.0:
                raise BenchGateError(
                    f"chain {chain!r} expands the stream: ratio {ratio:.4f}"
                )
        else:
            # Aggregated over every analyzer rank: modelled content bytes
            # ingested and the physical frame bytes that carried them.
            bytes_content = stats["bytes"]
            bytes_wire = stats["bytes_wire"]
            ratio = bytes_wire / bytes_content if bytes_content else 0.0
            encode_cpu = decode_cpu = 0.0
        if base_events is None:
            base_events = app.events
        elif app.events != base_events:
            raise BenchGateError(
                f"chain {chain!r} lost events: {app.events} != {base_events}"
            )
        if base_walltime is None:
            base_walltime = app.walltime
        result.points.append(
            CodecPoint(
                chain=chain,
                events=app.events,
                packs=app.packs,
                bytes_content=bytes_content,
                bytes_wire=bytes_wire,
                ratio=ratio,
                encode_cpu_s=encode_cpu,
                decode_cpu_s=decode_cpu,
                app_walltime_s=app.walltime,
                slowdown=app.walltime / base_walltime if base_walltime else 0.0,
            )
        )
    return result
