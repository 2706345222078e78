"""The streaming instrumentation interceptor (the paper's preloaded library).

Attached to a rank's PMPI stack before its program starts, it:

1. intercepts ``MPI_Init`` — maps the application partition to the analyzer
   partition (``VMPI_Map``) and opens a write-mode ``VMPI_Stream``;
2. records every subsequent MPI call as a 40-byte event, charging the
   capture cost to the application's timeline; when the current pack
   reaches the block budget it is flushed through the stream — *this write
   blocks when all asynchronous buffers are full*, which is exactly how
   analyzer/network backpressure becomes application overhead;
3. intercepts ``MPI_Finalize`` — flushes the tail pack, hands the pack
   builder's record buffer back, and closes the stream, so the analyzer
   sees EOF and can reduce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codec.frame import PackProvenance
from repro.codec.stages import build_chain
from repro.errors import InstrumentationError, ReproError
from repro.instrument.events import EVENT_RECORD_SIZE
from repro.instrument.overhead import InstrumentationCost
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord, Interceptor
from repro.vmpi.mapping import MapPolicy, ROUND_ROBIN, VMPIMap, map_partitions
from repro.vmpi.stream import BALANCE_ROUND_ROBIN, VMPIStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import ProgramAPI, RankContext


class StreamingInstrumentation(Interceptor):
    """Per-rank online instrumentation state machine."""

    def __init__(
        self,
        mpi: "ProgramAPI",
        analyzer_partition: str = "Analyzer",
        cost: InstrumentationCost | None = None,
        policy: MapPolicy = ROUND_ROBIN,
        channel: int | None = None,
    ):
        self.mpi = mpi
        self.analyzer_partition = analyzer_partition
        self.cost = cost or InstrumentationCost()
        self.policy = policy
        partition = mpi.partition
        # All applications share one stream channel: flows are separated on
        # the analyzer side by the pack header's app id (the multi-level
        # blackboard dispatch key), not by transport channel.
        self.channel = 0 if channel is None else channel
        # Cap the real pack size so the modelled volume (with per-call
        # context) still fits one stream block.
        real_capacity = max(4096, int(self.cost.block_size / self.cost.volume_multiplier))
        self.chain = build_chain(self.cost.reduction) if self.cost.reduction else None
        self.builder = EventPackBuilder(
            app_id=partition.index,
            rank=mpi.rank,
            capacity_bytes=real_capacity,
            chain=self.chain,
        )
        self.vmap = VMPIMap()
        self.stream = VMPIStream(
            block_size=self.cost.block_size,
            balance=BALANCE_ROUND_ROBIN,
            na_buffers=self.cost.na_buffers,
            channel=self.channel,
            write_timeout=self.cost.write_timeout,
            max_retries=self.cost.max_retries,
            overflow=self.cost.overflow,
        )
        self.events_captured = 0
        self.bytes_streamed_modeled = 0
        self.packs_flushed = 0
        self.packs_dropped = 0
        self.codec_cpu_s = 0.0  # virtual CPU spent encoding (chain only)
        # Per-rank time decomposition for the online POP-metrics engine:
        # virtual seconds inside MPI calls proper (PMPI record durations),
        # virtual seconds this layer added on top (capture CPU, codec,
        # flushes, stream backpressure), and the rank's active interval.
        self.mpi_time_s = 0.0
        self.overhead_s = 0.0
        self.t_active_start: float | None = None
        self.t_active_end: float | None = None
        self._open = False
        # CPU accounting is batched: per-event costs accrue as a debt that
        # is charged to the timeline in quanta, keeping the discrete-event
        # count proportional to packs rather than events (identical totals).
        self._cpu_debt = 0.0
        self._per_event_cpu = self.cost.per_event_cpu  # hot-path cache
        self._cpu_quantum = max(self._per_event_cpu * 16, 8e-6)

    # -- PMPI hooks ---------------------------------------------------------------

    def on_exit(self, ctx: "RankContext", record: CallRecord):
        if record.name == "MPI_Init":
            return self._setup_and_record(record)
        if record.name == "MPI_Finalize":
            return self._teardown(record)
        if not self._open:
            raise InstrumentationError(
                f"MPI call {record.name} before MPI_Init on rank {ctx.global_rank}"
            )
        return self._capture(record)

    # -- online steering ----------------------------------------------------------

    def set_reduction(self, spec: str | None) -> str:
        """Switch the reduction chain applied to packs sealed from now on.

        Records already buffered are untouched — the chain applies at seal
        time — and every pack carries its own EVF2 codec descriptor, so the
        analyzer decodes pre- and post-switch packs alike without any
        out-of-band coordination.  Returns the normalized chain spec.
        """
        try:
            chain = build_chain(spec or "")
        except ReproError as exc:
            raise InstrumentationError(
                f"invalid reduction chain {spec!r}: {exc}"
            ) from exc
        self.chain = chain if chain.stages else None
        self.builder.chain = self.chain
        return chain.spec

    # -- stages -------------------------------------------------------------------

    def _setup_and_record(self, record: CallRecord):
        """Generator: VMPI mapping + stream opening inside MPI_Init."""
        mpi = self.mpi
        self.t_active_start = record.t_start
        analyzer = mpi.partition_by_name(self.analyzer_partition)
        if analyzer is None:
            raise InstrumentationError(
                f"no analyzer partition named {self.analyzer_partition!r}"
            )
        kernel = mpi.ctx.kernel
        t_setup = kernel.now
        yield from map_partitions(mpi, self.vmap, analyzer, policy=self.policy)
        if not self.vmap.entries:
            raise InstrumentationError(
                f"rank {mpi.ctx.global_rank}: empty analyzer mapping"
            )
        yield from self.stream.open_map(mpi, self.vmap, "w")
        self.overhead_s += kernel.now - t_setup
        self._open = True
        work = self._capture(record)
        if isinstance(work, (int, float)):
            yield float(work)
        elif work is not None:
            yield from work

    def _capture(self, record: CallRecord):
        """Capture one event; returns a generator only when work is due.

        Returning ``None`` on the fast path (no flush, debt below quantum)
        lets the PMPI layer skip generator dispatch entirely.
        """
        self.events_captured += 1
        self.mpi_time_s += record.t_end - record.t_start
        self._cpu_debt += self._per_event_cpu
        full = self.builder.add(record)
        if full:
            return self._charge_and_flush()
        if self._cpu_debt >= self._cpu_quantum:
            debt, self._cpu_debt = self._cpu_debt, 0.0
            # The caller charges this as a timeout; book it as overhead here,
            # at the single point where the debt escapes.
            self.overhead_s += debt
            return debt
        return None

    def _charge_and_flush(self, last: bool = False):
        """Generator: settle the CPU debt, then flush the current pack.

        Everything awaited in here — the batched capture CPU, codec
        encode time, the flush charge, and the stream write with its
        backpressure stall — is instrumentation-induced, so the whole
        elapsed virtual interval lands in :attr:`overhead_s`.
        """
        kernel = self.mpi.ctx.kernel
        t_enter = kernel.now
        debt, self._cpu_debt = self._cpu_debt, 0.0
        if debt > 0:
            yield debt
        yield from self._flush(last)
        self.overhead_s += kernel.now - t_enter

    def _flush(self, last: bool = False):
        """Generator: seal, charge and write the current pack; ``last`` (the
        ``MPI_Finalize`` flush) closes the builder once its frame is built."""
        if self.builder.count == 0:
            if last:
                self.builder.close()
            return
        kernel = self.mpi.ctx.kernel
        # Provenance: register the flow at seal time; the stamp travels
        # in the frame's provenance section so the analyzer side recovers
        # the flow id from the wire bytes.  Like the CRC section it is
        # exempt from all byte accounting; with no registry attached (the
        # default) this is one branch and the pack bytes are unchanged.
        provenance = None
        flows = self.mpi.ctx.world.flows
        if flows is not None:
            record = flows.begin(
                app_id=self.builder.app_id,
                rank=self.builder.rank,
                global_rank=self.mpi.ctx.global_rank,
                t=kernel.now,
            )
            if record is not None:
                provenance = PackProvenance(
                    flow_id=record.flow_id,
                    app_id=record.app_id,
                    rank=record.origin_rank,
                    t_seal=record.t_seal,
                )
        raw_bytes = self.builder.count * EVENT_RECORD_SIZE
        sealed_content = self.builder.bytes_content
        blob = self.builder.emit(now=kernel.now, provenance=provenance)
        if last:
            # Released before the write below waits out any backpressure.
            self.builder.close()
        # Framing, checksum and provenance sections ride outside the
        # modelled volume budget: charge the content (header + kept
        # records) the builder has just booked — the sealed bytes are not
        # read back — scaled by the chain's measured compression when a
        # reduction is active.  The identity chain takes neither branch,
        # keeping those runs bit-identical to the unreduced pipeline.
        modeled = self.cost.modeled_bytes(self.builder.bytes_content - sealed_content)
        if self.chain is not None:
            encode_cpu = (
                self.cost.codec_per_byte_cpu * raw_bytes * self.chain.cost_weight
            )
            if encode_cpu > 0:
                yield float(encode_cpu)
            self.codec_cpu_s += encode_cpu
            telemetry = self.mpi.ctx.world.telemetry
            if telemetry.enabled:
                telemetry.histogram("codec.encode_s").observe(encode_cpu)
            enc = self.builder.last_encode
            if enc is not None and enc.raw_bytes > 0:
                ratio = len(enc.payload) / enc.raw_bytes
                if telemetry.enabled:
                    telemetry.histogram("codec.pack_ratio").observe(ratio)
                modeled = max(1, int(modeled * ratio))
        modeled = min(modeled, self.stream.block_size)
        if self.cost.pack_flush_cpu > 0:
            yield float(self.cost.pack_flush_cpu)
        written = yield from self.stream.write(nbytes=modeled, payload=blob)
        if written == 0:
            # Overflow policy (or an injected fault) discarded the pack.
            self.packs_dropped += 1
            return
        self.bytes_streamed_modeled += modeled
        self.packs_flushed += 1

    def _teardown(self, record: CallRecord):
        """Generator: capture the finalize event, flush the tail, close."""
        kernel = self.mpi.ctx.kernel
        tail = self._capture(record)
        if isinstance(tail, (int, float)):
            yield float(tail)
        elif tail is not None:
            yield from tail
        yield from self._charge_and_flush(last=True)
        t_close = kernel.now
        yield from self.stream.close()
        self.overhead_s += kernel.now - t_close
        self.t_active_end = kernel.now
        self._open = False
