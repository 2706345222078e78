"""Self-performance bench: what the *simulator itself* costs, attributed.

Every other bench lane reports virtual-time results — what the simulated
system would do.  This lane turns the host-time observability plane
(:mod:`repro.telemetry.hostprof`) on itself and reports what the
pure-Python simulator spends per wall-clock second, hot path by hot path.
The profiler books *exclusive* time (DESIGN §11), so each rate is per
second spent in that layer alone and the artefact's timers sum to its
``elapsed_s``:

* ``kernel_events_per_s`` — simulated events dispatched per host second
  of the dispatch loop itself (``Kernel.run`` minus the layers it resumes);
* ``stream_mb_per_s`` — modelled bytes moved through ``VMPIStream``
  ``write``/``_on_block``/``read`` per host second their frames run
  (virtual-time waits are not charged; the send a write drives is);
* ``codec_mb_per_s`` — content bytes through the codec chain encode and
  decode per host second (0 on the identity row: no chain runs);
* ``frame_mb_per_s`` — frame bytes through EVF2 parse and emit per host
  second;
* ``analysis_packs_per_s`` — packs through ``AnalyzerEngine.ingest`` (CRC
  verdict, blackboard dispatch, unpack, every module's ``update``) per host
  second.

One row per reduction chain, so ``BENCH_selfperf.json`` doubles as the
hotspot-attribution document: which layer bounds a figure sweep, and how
each chain shifts the balance.  Next to the throughputs each row carries
five ``*_allocs`` columns — timing-free tracemalloc probes counting the
allocation blocks each hot lane pins per fixed unit of work (pending
events, packed records, parsed frames, ingested packs) — so an alloc-per-event
regression is caught even on a noisy runner.  Deterministic columns (events, packs)
gate tight in CI; throughput columns gate with generous per-metric
tolerances because CI runners are slower than dev boxes — the *ratio*
gates below are the real self-checks:

* **bit-identity** — the profiler is observation-only: a run with the
  profiler active must produce exactly the virtual walltime, event count
  and pack count of an unprofiled run;
* **overhead** — best-of-N wall time with the profiler on must stay
  within ``overhead_budget`` (default 5%) of best-of-N with it off.

Both gates raise :class:`~repro.errors.BenchGateError` on violation, so a
plain ``python -m repro.bench selfperf`` run is itself the test.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import repro.analysis as _analysis_pkg
import repro.codec.frame as _frame_mod
import repro.codec.stages as _stages_mod
import repro.instrument.interceptor as _interceptor_mod
import repro.instrument.packer as _packer_mod
import repro.simt.kernel as _kernel_mod
import repro.simt.primitives as _primitives_mod
import repro.simt.process as _process_mod
import repro.vmpi.stream as _stream_mod
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
from repro.telemetry import Telemetry, hostprof
from repro.telemetry.hostprof import HostProfiler, host_now

#: chain sweep: identity baseline plus the two composed reductions the
#: codec lane shows at the extremes of the CPU/volume trade-off
CHAINS = ("", "delta+dict", "delta+dict+zlib")

#: timers summed into the stream copy-path throughput
_STREAM_TIMERS = ("stream.write", "stream.transit", "stream.read")
#: timers summed into the codec-chain throughput
_CODEC_TIMERS = ("codec.encode", "codec.decode")
#: timers summed into the EVF2 framing throughput
_FRAME_TIMERS = ("frame.parse", "frame.emit")

#: source files attributed to each hot-path lane by the allocation probes
_ALLOC_LANES = {
    "kernel_allocs": (
        _kernel_mod.__file__, _process_mod.__file__, _primitives_mod.__file__,
    ),
    "stream_allocs": (
        _stream_mod.__file__, _packer_mod.__file__, _interceptor_mod.__file__,
    ),
    "codec_allocs": (_stages_mod.__file__,),
    "frame_allocs": (_frame_mod.__file__,),
    "analysis_allocs": tuple(
        str(path) for path in sorted(Path(_analysis_pkg.__file__).parent.glob("*.py"))
    ),
}


@dataclass(slots=True)
class SelfPerfPoint:
    """Host-side throughput of one profiled coupled-workload run."""

    chain: str
    events: int
    packs: int
    kernel_events_per_s: float
    stream_mb_per_s: float
    codec_mb_per_s: float
    frame_mb_per_s: float
    analysis_packs_per_s: float
    #: per-lane allocation blocks retained by the deterministic probes
    #: (see _lane_alloc_counts); no timing involved, so they gate tight
    kernel_allocs: int
    stream_allocs: int
    codec_allocs: int
    frame_allocs: int
    analysis_allocs: int
    #: host wall seconds for the profiled run (never gated: pure noise)
    elapsed_s: float


COLUMNS = (
    Column("chain", lambda p: p.chain or "identity"),
    Column("events"),
    Column("packs"),
    Column("kernel_events_per_s", fmt=".0f"),
    Column("stream_mb_per_s", fmt=".3f"),
    Column("codec_mb_per_s", fmt=".3f"),
    Column("frame_mb_per_s", fmt=".3f"),
    Column("analysis_packs_per_s", fmt=".0f"),
    Column("kernel_allocs"),
    Column("stream_allocs"),
    Column("codec_allocs"),
    Column("frame_allocs"),
    Column("analysis_allocs"),
    Column("elapsed_s", fmt=".4f"),
)

#: ``--baseline`` headroom for the columns that are not virtual-time exact.
#: Deterministic columns (chain, events, packs) gate at the default 5%;
#: host-speed throughput columns get 90% because CI runners are slower than
#: the baseline host — the real self-checks (bit-identity, <5% profiler
#: overhead *ratio*) run inside the driver.  Allocation counts are
#: timing-free but shift with the interpreter's small-object internals: 50%.
TOLERANCES = {c.name: 0.9 for c in COLUMNS if c.name.endswith("_per_s")} | {
    c.name: 0.5 for c in COLUMNS if c.name.endswith("_allocs")
}


def _run_once(
    chain: str,
    scale: str,
    machine: MachineSpec,
    seed: int,
    telemetry: Telemetry | None = None,
    profiler: HostProfiler | None = None,
):
    """One coupled run; returns ``(simulation fingerprint, wall_s)``."""
    session, name, _ = coupled_session(reference_kernel(scale), machine, seed, telemetry, ratio=4.0)
    if chain:
        session.set_reduction(chain)
    t0 = host_now()
    if profiler is not None:
        with hostprof.profiled(profiler), profiler.span(
            "selfperf.run", chain=chain or "identity", scale=scale
        ):
            run = session.run()
    else:
        run = session.run()
    wall = host_now() - t0
    return fingerprint(run, name), wall


def _throughput(profiler: HostProfiler, names: tuple[str, ...]) -> float:
    """Aggregate MB/s across a group of timers (0 when none fired)."""
    total_s = sum(profiler.timers[n].total_s for n in names)
    nbytes = sum(profiler.timers[n].nbytes for n in names)
    return nbytes / total_s / 1e6 if total_s > 0 else 0.0


# -- allocation probes ------------------------------------------------------------
#
# Throughput columns are host-speed-dependent and gate loosely; the alloc
# columns are their timing-free complement.  Each probe drives a fixed
# working set through one hot layer and *holds it live* across the closing
# tracemalloc snapshot, so the count is the number of allocation blocks
# the layer pins per unit of work — exactly the figure the slotted-event /
# preallocated-buffer / zero-copy work drives down, and deterministic for
# a given interpreter.

_PROBE_EVENTS = 256  # pending events held by the kernel probe
_PROBE_RECORDS = 64  # records packed by the stream probe
_PROBE_FRAMES = 32  # frames parsed and held by the frame probe
_PROBE_PACKS = 8  # packs ingested by the analysis probe


def _probe_kernel(hold: list) -> None:
    kernel = _kernel_mod.Kernel()
    for i in range(_PROBE_EVENTS):
        kernel.timeout(float(i))
    hold.append(kernel)


def _probe_stream(chain: str, hold: list) -> None:
    from repro.codec.stages import build_chain
    from repro.mpi.pmpi import CallRecord

    builder = _packer_mod.EventPackBuilder(
        app_id=0,
        rank=0,
        capacity_bytes=16 + 40 * _PROBE_RECORDS,
        chain=build_chain(chain) if chain else None,
    )
    record = CallRecord("MPI_Send", 0.0, 1e-6, 0, 0, 4, 1, 7, 1024)
    for _ in range(_PROBE_RECORDS):
        builder.add(record)
    hold.append(builder)


def _probe_codec(chain: str, hold: list) -> None:
    if not chain:
        return  # identity: no chain runs, no stage allocations
    from repro.codec.stages import build_chain

    encoder = build_chain(chain)
    records = bytes(40 * _PROBE_RECORDS)
    hold.append(encoder.encode(records, now=0.0))


def _probe_frame(hold: list) -> None:
    blob = _frame_mod.build_frame(
        0, 0, _PROBE_RECORDS, bytes(40 * _PROBE_RECORDS), codec="delta"
    )
    hold.append([_frame_mod.parse_frame(blob) for _ in range(_PROBE_FRAMES)])
    hold.append(blob)


def _probe_analysis(hold: list) -> None:
    import numpy as np

    from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
    from repro.instrument.events import CALL_IDS, EVENT_DTYPE

    # One fixed pack, ingested repeatedly: after the first, the module states
    # have every cell they will ever have, so the count is the engine's
    # standing state plus whatever a steady-state ingest leaves behind.
    events = np.zeros(_PROBE_RECORDS, dtype=EVENT_DTYPE)
    calls = ("MPI_Isend", "MPI_Irecv", "MPI_Waitall", "MPI_Allreduce")
    slot = np.arange(_PROBE_RECORDS) % 4
    events["call"] = np.array([CALL_IDS[name] for name in calls])[slot]
    events["peer"] = np.array([1, 2, 3, -1])[slot]
    events["nbytes"] = 1024
    events["t_start"] = np.arange(_PROBE_RECORDS) * 1e-4
    events["t_end"] = events["t_start"] + 2.5e-5
    blob = _frame_mod.build_frame(0, 0, _PROBE_RECORDS, events.tobytes())
    engine = AnalyzerEngine([("probe", 4)], AnalysisConfig())
    for _ in range(_PROBE_PACKS):
        engine.ingest(blob)
    hold.append(engine)


def _alloc_blocks(files: tuple[str, ...], fn) -> int:
    """Live allocation blocks attributable to ``files`` after ``fn(hold)``."""
    # Untracked warm-up pass: first-call caches (struct tables, codec
    # registries, interned codec specs) allocate once per process and
    # would otherwise show up only in cold runs, making the counts
    # depend on what ran before the probe.
    warm: list = []
    fn(warm)
    warm.clear()
    hold: list = []
    gc.collect()
    tracemalloc.start(1)
    try:
        fn(hold)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(True, fname) for fname in files]
    )
    count = sum(stat.count for stat in snapshot.statistics("filename"))
    hold.clear()
    return count


def _lane_alloc_counts(chain: str) -> dict[str, int]:
    """Tracemalloc block deltas of the five hot-path lanes for one chain."""
    return {
        "kernel_allocs": _alloc_blocks(_ALLOC_LANES["kernel_allocs"], _probe_kernel),
        "stream_allocs": _alloc_blocks(
            _ALLOC_LANES["stream_allocs"], lambda hold: _probe_stream(chain, hold)
        ),
        "codec_allocs": _alloc_blocks(
            _ALLOC_LANES["codec_allocs"], lambda hold: _probe_codec(chain, hold)
        ),
        "frame_allocs": _alloc_blocks(_ALLOC_LANES["frame_allocs"], _probe_frame),
        "analysis_allocs": _alloc_blocks(
            _ALLOC_LANES["analysis_allocs"], _probe_analysis
        ),
    }


@lane("selfperf", columns=COLUMNS, tolerances=TOLERANCES)
def selfperf_sweep(
    scale: str = "small",
    machine: MachineSpec = TERA100,
    seed: int = 0,
    telemetry: Telemetry | None = None,
    chains: tuple[str, ...] = CHAINS,
    overhead_budget: float = 0.05,
    repeats: int = 5,
) -> LaneResult:
    """Profile the simulator across reduction chains; self-gate the profiler.

    The identity chain anchors both gates: its unprofiled run provides the
    bit-identity reference and the overhead baseline.  The result's
    artifacts are the last profiled run as
    ``BENCH_selfperf.hostprof.trace.json`` (Chrome trace) and
    ``BENCH_selfperf.hostprof.jsonl``.
    """
    run_once = partial(_run_once, scale=scale, machine=machine, seed=seed, telemetry=telemetry)

    # -- gate 1: bit-identity, profiler off vs on ------------------------------
    assert_unperturbed(
        "host profiler",
        run_once(chains[0])[0],
        run_once(chains[0], profiler=HostProfiler())[0],
    )

    # -- gate 2: overhead ratio, best-of-N paired runs -------------------------
    overhead_ratio = paired_overhead(
        "host profiler",
        lambda: run_once(chains[0])[1],
        lambda: run_once(chains[0], profiler=HostProfiler())[1],
        repeats,
        overhead_budget,
    )
    result = LaneResult(
        f"Simulator self-performance ({machine.name}, scale={scale}, "
        f"profiler overhead {overhead_ratio:+.2%} of {overhead_budget:.0%} budget)",
        COLUMNS,
    )

    # -- the sweep: one profiled run per chain ---------------------------------
    for chain in chains:
        profiler = HostProfiler()
        outputs = run_once(chain, profiler=profiler)[0]
        dispatch = profiler.timers["kernel.dispatch"]
        if dispatch.items <= 0:
            raise BenchGateError(
                f"chain {chain!r}: kernel dispatch timer never fired "
                "(hostprof wiring broken?)"
            )
        result.points.append(
            SelfPerfPoint(
                chain=chain,
                events=outputs["events"],
                packs=outputs["packs"],
                kernel_events_per_s=dispatch.items_per_s,
                stream_mb_per_s=_throughput(profiler, _STREAM_TIMERS),
                codec_mb_per_s=_throughput(profiler, _CODEC_TIMERS),
                frame_mb_per_s=_throughput(profiler, _FRAME_TIMERS),
                analysis_packs_per_s=profiler.timers["analysis.ingest"].items_per_s,
                **_lane_alloc_counts(chain),
                elapsed_s=profiler.elapsed_s,
            )
        )

    # the last profiled run, for trace export / inspection
    result.extras = {"hostprof": profiler.summary(), "overhead_ratio": overhead_ratio}
    result.artifacts = {
        "BENCH_selfperf.hostprof.trace.json": profiler.write_chrome_trace,
        "BENCH_selfperf.hostprof.jsonl": profiler.write_jsonl,
    }
    return result
