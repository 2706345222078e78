"""Causal flow tracing: end-to-end provenance of event packs.

A *flow* is the life of one event pack, from the moment the instrumentation
seals it on an application rank to the moment the analyzer's blackboard
pipeline has fully consumed it.  Each flow is stamped with virtual-time
timestamps at every hop of the streaming pipeline:

==========  ============================================================
hop stamp   meaning
==========  ============================================================
t_seal      pack sealed by the interceptor's builder (flush begins)
t_enqueue   ``VMPIStream.write`` entered (pack offered to the transport)
t_send      output buffer acquired and copied; send posted
t_arrive    block landed in the reader's receive buffer
t_read      analyzer's ``read`` returned the block to the application
t_dispatch  analyzer loop dispatched the pack toward the blackboard
t_done      blackboard pipeline drained for this pack (all KS ran)
==========  ============================================================

Consecutive stamps define the per-stage latencies (:data:`STAGES`):
``seal`` (flush bookkeeping before the write), ``stall`` (output-buffer
backpressure, including bounded-retry backoff), ``transit`` (network),
``dwell`` (receive-buffer residence until the analyzer consumed it),
``dispatch`` (read return to blackboard hand-off) and ``analyze`` (modelled
analysis CPU plus the inline KS pipeline).  Because the stages telescope,
their per-flow sum equals the end-to-end latency exactly — stage
attributions always account for all of a flow's time.

The :class:`FlowRegistry` is the one context object threaded through
instrument, transport, engine and reporting (``World.flows``).  All stamps
are virtual kernel seconds, so two same-seed runs produce identical flow
records; with no registry attached every call site reduces to a single
``is None`` check and runs are bit-identical to a provenance-free build.

Sampling (``sample_rate``) bounds tracing overhead: the decision is drawn
from a per-writer RNG derived from the experiment seed
(:func:`repro.util.rng.derive_rng`), so the sampled subset is itself
deterministic and disjoint flow-id spaces per writer are preserved.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import ConfigError
from repro.util.rng import derive_rng

#: Stage names, in pipeline order.  Each stage is the latency between two
#: consecutive hop stamps (see the module docstring).
STAGE_SEAL = "seal"
STAGE_STALL = "stall"
STAGE_TRANSIT = "transit"
STAGE_DWELL = "dwell"
STAGE_DISPATCH = "dispatch"
STAGE_ANALYZE = "analyze"

STAGES = (
    STAGE_SEAL,
    STAGE_STALL,
    STAGE_TRANSIT,
    STAGE_DWELL,
    STAGE_DISPATCH,
    STAGE_ANALYZE,
)

#: hop-stamp attribute feeding each stage: stage i = _STAMPS[i+1] - _STAMPS[i]
_STAMPS = (
    "t_seal",
    "t_enqueue",
    "t_send",
    "t_arrive",
    "t_read",
    "t_dispatch",
    "t_done",
)

#: Loss labels a flow can terminate with instead of completing.
DROP_TAMPER = "tamper"  # injected transport fault swallowed the pack
DROP_OVERFLOW = "overflow"  # drop-newest/drop-oldest reclaimed it
DROP_CRASH = "crash"  # every reader endpoint was dead
DROP_REJECT = "reject"  # checksum rejection at the analyzer
DROP_STRANDED = "stranded"  # arrived but never consumed before close

_SEQ_BITS = 24
_RANK_BITS = 24


def make_flow_id(app_id: int, rank: int, seq: int) -> int:
    """Pack (application, writer rank, per-writer sequence) into a u64.

    Writers own disjoint id spaces by construction — interleaved writers
    can never collide, and a flow id alone names its origin.
    """
    return (
        (app_id & 0xFFFF) << (_RANK_BITS + _SEQ_BITS)
        | (rank & (2**_RANK_BITS - 1)) << _SEQ_BITS
        | (seq & (2**_SEQ_BITS - 1))
    )


def split_flow_id(flow_id: int) -> tuple[int, int, int]:
    """Inverse of :func:`make_flow_id`: ``(app_id, rank, seq)``."""
    return (
        flow_id >> (_RANK_BITS + _SEQ_BITS) & 0xFFFF,
        flow_id >> _SEQ_BITS & (2**_RANK_BITS - 1),
        flow_id & (2**_SEQ_BITS - 1),
    )


class FlowRecord:
    """One pack's provenance: origin, hop stamps, and outcome."""

    __slots__ = (
        "flow_id",
        "app_id",
        "origin_rank",
        "origin_global",
        "consumer_global",
        "t_seal",
        "t_enqueue",
        "t_send",
        "t_arrive",
        "t_read",
        "t_dispatch",
        "t_done",
        "retry_delay_s",
        "dropped",
    )

    def __init__(
        self, flow_id: int, app_id: int, origin_rank: int, origin_global: int, t_seal: float
    ):
        self.flow_id = flow_id
        self.app_id = app_id
        self.origin_rank = origin_rank
        self.origin_global = origin_global
        self.consumer_global: int | None = None
        self.t_seal = t_seal
        self.t_enqueue: float | None = None
        self.t_send: float | None = None
        self.t_arrive: float | None = None
        self.t_read: float | None = None
        self.t_dispatch: float | None = None
        self.t_done: float | None = None
        #: portion of the stall stage spent in bounded-retry backoff
        self.retry_delay_s = 0.0
        #: loss label (``DROP_*``) when the flow terminated early
        self.dropped: str | None = None

    @property
    def complete(self) -> bool:
        return self.t_done is not None and self.dropped is None

    @property
    def end_to_end_s(self) -> float | None:
        if self.t_done is None:
            return None
        return self.t_done - self.t_seal

    def stages(self) -> dict[str, float]:
        """Per-stage latencies over the hops this flow actually reached."""
        out: dict[str, float] = {}
        prev = self.t_seal
        for stage, stamp in zip(STAGES, _STAMPS[1:]):
            t = getattr(self, stamp)
            if t is None or prev is None:
                break
            out[stage] = t - prev
            prev = t
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "flow_id": self.flow_id,
            "app_id": self.app_id,
            "origin_rank": self.origin_rank,
            "origin_global": self.origin_global,
            "consumer_global": self.consumer_global,
            "stamps": {name: getattr(self, name) for name in _STAMPS},
            "retry_delay_s": self.retry_delay_s,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.dropped or ("done" if self.complete else "in-flight")
        return f"<FlowRecord {self.flow_id:#x} {state}>"


class FlowRegistry:
    """The shared flow-tracing context, one per simulated session.

    Hot-path contract: every ``on_*`` stamp is O(1) dict work and tolerates
    unknown flow ids (unsampled packs look like any other payload), so call
    sites never have to distinguish sampled from unsampled traffic.
    """

    def __init__(self, seed: int = 0, sample_rate: float = 1.0):
        if not (0.0 <= sample_rate <= 1.0):
            raise ConfigError(f"flow sample_rate must be in [0, 1], got {sample_rate}")
        self.seed = seed
        self.sample_rate = sample_rate
        self.flows: dict[int, FlowRecord] = {}
        #: packs sealed per writer, sampled or not (the flow-id sequence)
        self.sealed: dict[tuple[int, int], int] = {}
        self._samplers: dict[tuple[int, int], Any] = {}

    # -- producer side -----------------------------------------------------------

    def begin(
        self, app_id: int, rank: int, global_rank: int, t: float
    ) -> FlowRecord | None:
        """Register one sealed pack; None when sampling skipped it.

        The per-writer sequence number advances for *every* sealed pack so
        flow ids stay stable under any sample rate.
        """
        key = (app_id, rank)
        seq = self.sealed.get(key, 0)
        self.sealed[key] = seq + 1
        if self.sample_rate < 1.0:
            sampler = self._samplers.get(key)
            if sampler is None:
                sampler = self._samplers[key] = derive_rng(
                    self.seed, "flow", app_id, rank
                )
            if sampler.random() >= self.sample_rate:
                return None
        record = FlowRecord(
            flow_id=make_flow_id(app_id, rank, seq),
            app_id=app_id,
            origin_rank=rank,
            origin_global=global_rank,
            t_seal=t,
        )
        self.flows[record.flow_id] = record
        return record

    # -- hop stamping ------------------------------------------------------------

    def on_enqueue(self, flow_id: int, t: float) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_enqueue = t

    def on_send(self, flow_id: int, t: float, retry_delay_s: float = 0.0) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_send = t
            record.retry_delay_s += retry_delay_s

    def on_arrive(self, flow_id: int, t: float) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_arrive = t

    def on_read(self, flow_id: int, t: float, consumer_global: int | None = None) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_read = t
            if consumer_global is not None:
                record.consumer_global = consumer_global

    def on_dispatch(self, flow_id: int, t: float) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_dispatch = t

    def on_done(self, flow_id: int, t: float) -> None:
        record = self.flows.get(flow_id)
        if record is not None:
            record.t_done = t

    def on_drop(self, flow_id: int, reason: str, t: float) -> None:
        """Terminate a flow early (pack lost before full analysis)."""
        record = self.flows.get(flow_id)
        if record is not None and record.dropped is None:
            record.dropped = reason

    # -- views -------------------------------------------------------------------

    def get(self, flow_id: int) -> FlowRecord | None:
        return self.flows.get(flow_id)

    def completed(self) -> list[FlowRecord]:
        return [f for f in self.flows.values() if f.complete]

    def records(self) -> Iterable[FlowRecord]:
        return self.flows.values()

    def __len__(self) -> int:
        return len(self.flows)

    def summary(self) -> dict[str, Any]:
        """Stage attribution, watermarks and critical path as plain dicts."""
        from repro.telemetry.flow import summarize_flows

        return summarize_flows(self)
