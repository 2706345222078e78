"""VMPI_Stream: persistent asynchronous data channels (paper Sec. III-A, Fig. 9).

Behavioural contract from the paper:

* UNIX-pipe-like interface: ``write`` is non-blocking *until all
  asynchronous buffers are full*, preserving an adaptation window between
  producer and consumer.
* The read endpoint keeps ``NA`` receive buffers **per incoming stream** so
  a buffer is always available for matched reception (no unexpected
  messages); the write endpoint shares ``NA`` output buffers across all its
  endpoints to bound memory (blocks are ~1 MB for instrumentation).
* A stream may connect one writer to several readers (and vice versa); a
  load-balancing policy — none / random / round-robin — picks the endpoint
  of each block.
* Non-blocking reads return :data:`EAGAIN`; once every connected writer has
  closed and all data is drained, reads return EOF (0), mirroring the
  paper's read loop (Figure 12).

Backpressure is physical, not simulated-by-fiat: blocks above the eager
threshold use rendezvous sends, which only complete once the reader has a
receive buffer posted — a slow reader therefore stalls the writer exactly
when writer slots and reader buffers are exhausted.

Failure tolerance (this layer's extensions, all pay-for-what-you-use):

* ``write_timeout`` arms a bounded retry loop around output-buffer
  acquisition: each expiry counts a timeout, retries back off exponentially
  (each wait twice the last), and after ``max_retries`` the ``overflow`` policy
  decides — keep blocking (:data:`OVERFLOW_BLOCK`), discard the new block
  (:data:`OVERFLOW_DROP_NEWEST`), or reclaim the oldest still-unmatched
  in-flight block (:data:`OVERFLOW_DROP_OLDEST`).  With ``write_timeout``
  left at ``None`` (the default) the acquisition path is byte-identical to
  the non-tolerant stream.
* ``fail_endpoint`` / ``adopt_endpoint`` / ``adopt_peer`` support analyzer
  failover: a writer detaches a crashed reader (reclaiming in-flight
  buffers) and attaches a survivor; the survivor's read endpoint adopts the
  orphaned writer, posting fresh NA buffers and expecting its close marker.
* A ``set_tamper`` hook lets fault injection corrupt or drop blocks at the
  transport boundary; every drop path is accounted in :meth:`stats`.

A pack's bytes are asked each question once per side (DESIGN 9): the content
size by ``_wire_bytes`` (a header read, in ``write`` and ``_consume``) and,
only with a ``FlowRegistry`` attached, the flow id by ``_flow_of`` (``write``
and ``_on_block``), after which it rides in the ``_InFlight`` record and the
ready-queue entry; every loss path closes its flow through ``_end_flow``.

Host time is measured from outside — an active host profiler wraps ``write``,
``read`` and ``_on_block`` (its ``ENTRY_POINTS`` table names them) and reads
blocks and bytes off their results — so this module carries no such probe.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.codec.frame import frame_content_size, peek_provenance
from repro.errors import CommunicatorError, PackFormatError, StreamClosedError, VMPIError
from repro.mpi.status import Status
from repro.mpi.world import ProgramAPI
from repro.simt.primitives import SimEvent
from repro.simt.resources import Resource
from repro.telemetry.core import NULL_TELEMETRY, rank_pid
from repro.util.rng import derive_rng
from repro.vmpi.mapping import VMPIMap

#: Return value of a non-blocking read with no data available.
EAGAIN = -11
#: Return value of a read once all remote endpoints closed (paper: 0).
EOF = 0

BALANCE_NONE = "none"
BALANCE_RANDOM = "random"
BALANCE_ROUND_ROBIN = "round_robin"

_VALID_POLICIES = (BALANCE_NONE, BALANCE_RANDOM, BALANCE_ROUND_ROBIN)

#: Overflow policies applied when a timed write exhausts its retries.
OVERFLOW_BLOCK = "block"
OVERFLOW_DROP_NEWEST = "drop-newest"
OVERFLOW_DROP_OLDEST = "drop-oldest"

_VALID_OVERFLOW = (OVERFLOW_BLOCK, OVERFLOW_DROP_NEWEST, OVERFLOW_DROP_OLDEST)

#: growth of the bounded-retry wait per attempt: ``write_timeout * 2**attempt``
_BACKOFF_FACTOR = 2.0

_TAG_STREAM_BASE = 800_000

#: payload marker of a close message
_CLOSE = "__vmpi_stream_close__"
#: payload tombstone of a block reclaimed by OVERFLOW_DROP_OLDEST — the
#: reader consumes the buffer but discards the (now meaningless) block.
_DROPPED = "__vmpi_stream_dropped__"


class _InFlight:
    """One committed output buffer, until its send completes.

    ``live`` means the buffer still holds a slot; fault handling (endpoint
    crash, drop-oldest reclaim) clears it so :meth:`sent` knows the slot was
    already taken care of.  ``flow_id`` names the provenance flow riding in
    the buffer (None when tracing is off or unsampled) so reclaim and
    crash-loss paths can terminate the flow record.
    """

    __slots__ = ("stream", "dest", "nbytes", "env", "live", "flow_id")

    def __init__(self, stream: "VMPIStream", dest: int, nbytes: int, flow_id: int | None):
        self.stream = stream
        self.dest = dest
        self.nbytes = nbytes
        self.env = None  # Envelope, set once _raw_isend returns
        self.live = True
        self.flow_id = flow_id

    def sent(self, _event: SimEvent) -> None:
        """Completion callback of the block's send: free the slot it still holds."""
        stream = self.stream
        if self.live:
            self.live = False
            stream._slots.release()
        try:
            stream._inflight.remove(self)
        except ValueError:
            pass  # already reclaimed by fail_endpoint()


class VMPIStream:
    """One endpoint of a persistent asynchronous stream."""

    __slots__ = (
        # configuration and open state
        "block_size", "balance", "na", "channel", "write_timeout", "max_retries", "overflow",
        "mode", "_open_mode", "endpoints",
        # always-on accounting (see stats())
        "blocks_written", "blocks_read", "bytes_written", "bytes_read", "bytes_wire_written",
        "bytes_wire_read", "_ratio_sum", "_ratio_packs", "eagain_returns", "write_stall_s",
        "read_wait_s", "write_copy_s", "read_copy_s", "read_dwell_s", "dropped_dwell_s",
        "write_buffers_hwm", "read_buffers_hwm",
        # failure-tolerance accounting
        "write_retries", "write_timeouts", "blocks_dropped", "bytes_dropped", "injected_drops",
        "injected_corruptions", "blocks_lost_to_crash", "bytes_lost_to_crash",
        "endpoints_failed", "peers_adopted", "endpoints_retargeted",
        "blocks_discarded_at_close", "bytes_discarded_at_close", "stale_blocks_discarded",
        # writer, provenance and reader state
        "_tel", "_pid", "_slots", "_rr_next", "_rng", "_inflight", "_tamper", "_retired_peers",
        "_flows", "_last_retry_delay", "_ready", "_wake", "_closes_pending", "_stall_until",
        "_mpi", "_closed",
        # resolved at open
        "_comm", "_tag", "_kernel", "_bw", "_o_recv", "_mailbox", "_arrived", "_wmet", "_rmet",
    )

    def __init__(
        self,
        block_size: int = 1024 * 1024,
        balance: str = BALANCE_ROUND_ROBIN,
        na_buffers: int = 3,
        channel: int = 0,
        write_timeout: float | None = None,
        max_retries: int = 3,
        overflow: str = OVERFLOW_BLOCK,
    ):
        if block_size <= 0:
            raise VMPIError(f"block_size must be > 0, got {block_size}")
        if balance not in _VALID_POLICIES:
            raise VMPIError(f"unknown balance policy {balance!r}")
        if na_buffers < 1:
            raise VMPIError(f"na_buffers must be >= 1, got {na_buffers}")
        if not (0 <= channel < 10_000):
            raise VMPIError(f"channel must be in [0, 10000), got {channel}")
        if write_timeout is not None and write_timeout <= 0:
            raise VMPIError(f"write_timeout must be > 0, got {write_timeout}")
        if max_retries < 0:
            raise VMPIError(f"max_retries must be >= 0, got {max_retries}")
        if overflow not in _VALID_OVERFLOW:
            raise VMPIError(f"unknown overflow policy {overflow!r}")
        self.block_size = block_size
        self.balance = balance
        self.na = na_buffers
        self.channel = channel
        self.write_timeout = write_timeout
        self.max_retries = max_retries
        self.overflow = overflow
        self.mode: str | None = None
        # ``mode`` while the stream is open, None before open() and after
        # close(): the per-block guard is one compare (see _require).
        self._open_mode: str | None = None
        self.endpoints: list[int] = []  # peer global ranks
        self.blocks_written = 0
        self.blocks_read = 0
        self.bytes_written = 0
        self.bytes_read = 0
        # Physical frame bytes (wire) next to the modelled content bytes
        # above; equal shapes of traffic diverge once a reduction chain
        # shrinks payloads.  Only bytes-like payloads count (synthetic
        # stream programs write payload=None).
        self.bytes_wire_written = 0
        self.bytes_wire_read = 0
        self._ratio_sum = 0.0  # per-pack wire/content compression ratios
        self._ratio_packs = 0
        # Lightweight always-on introspection (see stats()).
        self.eagain_returns = 0
        self.write_stall_s = 0.0
        self.read_wait_s = 0.0
        # Intra-node buffer copy time charged on each side: the transfer
        # cost the metrics engine separates from stall/wait time.
        self.write_copy_s = 0.0
        self.read_copy_s = 0.0
        # Receive-buffer residence: total dwell of consumed blocks, and of
        # blocks that arrived but were discarded (drop-oldest tombstones,
        # close-time strays) — dropped data keeps its latency accounting.
        self.read_dwell_s = 0.0
        self.dropped_dwell_s = 0.0
        self.write_buffers_hwm = 0
        self.read_buffers_hwm = 0
        # Failure-tolerance accounting (all zero in healthy runs).
        self.write_retries = 0
        self.write_timeouts = 0
        self.blocks_dropped = 0
        self.bytes_dropped = 0
        self.injected_drops = 0
        self.injected_corruptions = 0
        self.blocks_lost_to_crash = 0
        self.bytes_lost_to_crash = 0
        self.endpoints_failed = 0
        self.peers_adopted = 0
        self.endpoints_retargeted = 0
        self.blocks_discarded_at_close = 0
        self.bytes_discarded_at_close = 0
        self.stale_blocks_discarded = 0
        self._tel = NULL_TELEMETRY
        self._pid = 0
        # writer state
        self._slots: Resource | None = None
        self._rr_next = 0
        self._rng = None
        self._inflight: list[_InFlight] = []
        self._tamper: Callable[["VMPIStream", int, Any], tuple[str | None, Any]] | None = None
        # Readers this writer stopped targeting (steering remap) but still
        # owes a close marker to — their EOF protocol counts this writer.
        self._retired_peers: set[int] = set()
        # provenance state (None unless the world carries a FlowRegistry)
        self._flows = None
        self._last_retry_delay = 0.0
        # reader state: (status, arrival time, flow id or None) entries
        self._ready: deque[tuple[Status, float, int | None]] | None = None
        self._wake: SimEvent | None = None
        self._closes_pending = 0
        self._stall_until: float | None = None
        self._mpi: ProgramAPI | None = None
        self._closed = False
        # Resolved once at open(), read by every block and re-post instead of
        # re-deriving them from the rank's objects (DESIGN 14): the
        # communicator, the tag, the kernel, the intra-node bandwidth, the
        # receive overhead, the rank's mailbox and the one bound _on_block;
        # plus lazily-created telemetry instrument handles so the per-block
        # accounting never repeats the name->metric registry lookups.
        self._comm = None
        self._tag = 0
        self._kernel = None
        self._bw = 0.0
        self._o_recv = 0.0
        self._mailbox = None
        self._arrived: Callable[[SimEvent], None] | None = None
        self._wmet: tuple | None = None
        self._rmet: tuple | None = None

    # -- opening ---------------------------------------------------------------------

    def open_map(self, mpi: ProgramAPI, vmap: VMPIMap, mode: str):
        """Generator: connect to every peer of a ``VMPI_Map``."""
        yield from self.open_ranks(mpi, list(vmap.entries), mode)

    def open_ranks(self, mpi: ProgramAPI, peers: list[int], mode: str):
        """Generator: connect to explicit peer global ranks."""
        if self.mode is not None:
            raise VMPIError("stream already open")
        if mode not in ("r", "w"):
            raise VMPIError(f"mode must be 'r' or 'w', got {mode!r}")
        if not peers:
            raise VMPIError("stream needs at least one endpoint")
        if len(set(peers)) != len(peers):
            raise VMPIError("duplicate endpoints in stream")
        self.mode = self._open_mode = mode
        self.endpoints = list(peers)
        ctx = mpi.ctx
        world = ctx.world
        self._mpi = mpi
        self._comm = comm = mpi.comm_universe
        self._tag = self.tag
        self._tel = ctx.telemetry
        self._pid = rank_pid(ctx.global_rank)
        self._flows = world.flows
        self._kernel = kernel = ctx.kernel
        self._bw = world.machine.intra_node_bandwidth
        if mode == "w":
            self._slots = Resource(kernel, capacity=self.na, name="vmpi.wbuf")
        else:
            self._o_recv = world.cost.o_recv
            self._mailbox = ctx.mailbox
            self._arrived = self._on_block
            self._ready = deque()
            self._closes_pending = len(peers)
            # NA receive buffers per incoming stream: pre-post NA receives
            # from every writer so reception never hits an unexpected path.
            for peer in peers:
                peer_rank = comm.group.rank_of_global[peer]
                for _ in range(self.na):
                    self._post_recv(peer_rank)
        world.streams.append((ctx.global_rank, self))
        if world.faults is not None:
            world.faults.on_stream_open(ctx.global_rank, self)
        yield 0.0

    @property
    def tag(self) -> int:
        return _TAG_STREAM_BASE + self.channel

    # -- writer side ---------------------------------------------------------------------

    def write(self, nbytes: int | None = None, payload: Any = None):
        """Generator: write one block; returns the block size written.

        Blocks only when all ``NA`` shared output buffers are in flight
        (i.e. unmatched by any reader) — the paper's adaptation window.
        With ``write_timeout`` set, the wait for a buffer is bounded: after
        ``max_retries`` exponentially backed-off retries the configured
        ``overflow`` policy applies; a dropped block returns 0.
        """
        if self._open_mode != "w":
            self._require("w", "write")
        nbytes = self.block_size if nbytes is None else int(nbytes)
        if not (0 < nbytes <= self.block_size):
            raise VMPIError(f"write of {nbytes} outside (0, {self.block_size}]")
        kernel = self._kernel
        tel = self._tel
        # Provenance: recover the flow id from the pack's own provenance
        # section and stamp the enqueue hop.  Peeking precedes tampering so
        # injected drops are attributed to their flow.
        flow_id = self._flow_of(payload) if self._flows is not None else None
        if flow_id is not None:
            self._flows.on_enqueue(flow_id, kernel.now)
        # Fault-injection hook: corrupt or swallow blocks at the transport
        # boundary.  None (the default) costs a single attribute check.
        if self._tamper is not None:
            action, payload = self._tamper(self, nbytes, payload)
            if action == "drop":
                self.injected_drops += 1
                self._end_flow(flow_id, "tamper")
                return 0
            if action == "corrupt":
                self.injected_corruptions += 1
        span = (
            tel.span("stream.write", pid=self._pid, cat="stream", args={"nbytes": nbytes})
            if tel.enabled
            else None
        )
        t_acquire = kernel.now
        self._last_retry_delay = 0.0
        slot_ev = self._slots.acquire()
        if not slot_ev.triggered:
            if self.write_timeout is None:
                yield slot_ev
            else:
                dropped = yield from self._acquire_with_retry(slot_ev, nbytes)
                if dropped:
                    self._end_flow(flow_id, "overflow")
                    if span is not None:
                        span.end(dropped=True)
                    return 0
        # Time spent waiting for a free output buffer: the rendezvous-driven
        # backpressure stall of a slow reader.
        stall = kernel.now - t_acquire
        self.write_stall_s += stall
        if self._slots.in_use > self.write_buffers_hwm:
            self.write_buffers_hwm = self._slots.in_use
        # Copy into the asynchronous output buffer.
        copy_time = nbytes / self._bw
        if copy_time > 0:
            self.write_copy_s += copy_time
            yield copy_time
        if not self.endpoints:
            # Every reader crashed with no failover target: the block has
            # nowhere to go.  Account it as crash loss and keep running.
            self._slots.release()
            self.blocks_lost_to_crash += 1
            self.bytes_lost_to_crash += nbytes
            self._end_flow(flow_id, "crash")
            if tel.enabled:
                tel.counter("stream.blocks_lost_to_crash").inc()
                span.end(lost=True)
            return 0
        if flow_id is not None:
            # The send hop: buffer acquired and copied, transit begins.  The
            # stall stage absorbed any bounded-retry backoff; attribute it.
            self._flows.on_send(flow_id, kernel.now, self._last_retry_delay)
        dest = self._pick_endpoint()
        # Register the in-flight record *before* the send: fail_endpoint()
        # must see a buffer committed to a crashed peer even while this
        # process is suspended inside the send's CPU charge.
        rec = _InFlight(self, dest, nbytes, flow_id)
        self._inflight.append(rec)
        req = yield from self._comm._raw_isend(dest, nbytes, self._tag, payload)
        rec.env = req.envelope
        req.event.add_callback(rec.sent)
        self.blocks_written += 1
        self.bytes_written += nbytes
        if isinstance(payload, (bytes, bytearray, memoryview)):
            self.bytes_wire_written += self._wire_bytes(payload)
        if tel.enabled:
            mets = self._wmet
            if mets is None:
                mets = self._wmet = (
                    tel.counter("stream.blocks_written"),
                    tel.counter("stream.bytes_written"),
                    tel.histogram("stream.write_stall_s"),
                    tel.gauge("stream.write_buffers_in_flight", pid=self._pid),
                )
            mets[0].inc()
            mets[1].inc(nbytes)
            mets[2].observe(stall)
            mets[3].set(self._slots.in_use)
            span.end(stall_s=stall)
        return nbytes

    def _acquire_with_retry(self, slot_ev: SimEvent, nbytes: int):
        """Generator: bounded, backed-off wait for ``slot_ev``.

        Returns True when the block must be dropped (drop-newest exhausted),
        False once a slot is held — via grant, reclaim, or blocking fallback.
        """
        kernel = self._kernel
        tel = self._tel
        t_enter = kernel.now
        attempt = 0
        while True:
            wait = self.write_timeout * (_BACKOFF_FACTOR ** attempt)
            yield kernel.any_of([slot_ev, kernel.timeout(wait)])
            if slot_ev.triggered:
                if attempt > 0:
                    self._last_retry_delay = kernel.now - t_enter
                return False
            self.write_timeouts += 1
            if tel.enabled:
                tel.counter("stream.write_timeouts").inc()
            if attempt >= self.max_retries:
                break
            attempt += 1
            self.write_retries += 1
            if tel.enabled:
                tel.counter("stream.write_retries").inc()
        # Retries exhausted; cancel() returning False means the queued
        # acquire was granted concurrently — then we already hold a slot.
        if self.overflow == OVERFLOW_BLOCK:
            yield slot_ev
            self._last_retry_delay = kernel.now - t_enter
            return False
        if self.overflow == OVERFLOW_DROP_NEWEST:
            if self._slots.cancel(slot_ev):
                self._count_drop(nbytes)
                return True
            self._last_retry_delay = kernel.now - t_enter
            return False
        # OVERFLOW_DROP_OLDEST: reclaim the slot of the oldest block no
        # reader has matched yet; its payload is tombstoned so the reader
        # discards it on arrival.
        if self._slots.cancel(slot_ev):
            if not self._steal_oldest():
                # Everything in flight is already matched (arriving soon);
                # nothing to reclaim — fall back to blocking.
                retry_ev = self._slots.acquire()
                if not retry_ev.triggered:
                    yield retry_ev
        self._last_retry_delay = kernel.now - t_enter
        return False

    def _steal_oldest(self) -> bool:
        """Tombstone the oldest unmatched in-flight block; inherit its slot."""
        for rec in self._inflight:
            if rec.live and rec.env is not None and not rec.env.matched:
                rec.live = False
                rec.env.payload = _DROPPED
                self._count_drop(rec.nbytes)
                self._end_flow(rec.flow_id, "overflow")
                return True
        return False

    def _count_drop(self, nbytes: int) -> None:
        self.blocks_dropped += 1
        self.bytes_dropped += nbytes
        if self._tel.enabled:
            self._tel.counter("stream.blocks_dropped").inc()
            self._tel.counter("stream.bytes_dropped").inc(nbytes)

    def _pick_endpoint(self) -> int:
        if len(self.endpoints) == 1 or self.balance == BALANCE_NONE:
            return self.endpoints[0]
        if self.balance == BALANCE_RANDOM:
            if self._rng is None:  # derived on the first draw: no other policy draws
                ctx = self._mpi.ctx
                self._rng = derive_rng(ctx.world.seed, "stream", ctx.global_rank, self.channel)
            return self._rng.choice(self.endpoints)
        dest = self.endpoints[self._rr_next % len(self.endpoints)]
        self._rr_next += 1
        return dest

    # -- failover (driven by fault handling, not by applications) ------------------------

    def fail_endpoint(self, peer: int) -> bool:
        """Detach a crashed reader; reclaim buffers committed to it.

        Blocks already in flight toward the dead peer are written off as
        crash loss and their slots released, so a writer blocked on
        backpressure from the dead reader resumes immediately.  Returns
        True if the peer was connected.
        """
        if self.mode != "w":
            raise VMPIError("fail_endpoint() on a non-writer stream")
        if peer not in self.endpoints:
            return False
        self.endpoints.remove(peer)
        self.endpoints_failed += 1
        for rec in list(self._inflight):
            if rec.dest == peer and rec.live:
                rec.live = False
                self._slots.release()
                self.blocks_lost_to_crash += 1
                self.bytes_lost_to_crash += rec.nbytes
                self._end_flow(rec.flow_id, "crash")
                self._inflight.remove(rec)
        if self._tel.enabled:
            self._tel.counter("stream.endpoints_failed").inc()
        return True

    def adopt_endpoint(self, peer: int) -> None:
        """Attach a surviving reader as a new write destination."""
        if self.mode != "w":
            raise VMPIError("adopt_endpoint() on a non-writer stream")
        if peer in self.endpoints:
            return
        self.endpoints.append(peer)
        self.peers_adopted += 1

    def retarget_endpoint(self, old: int, new: int) -> bool:
        """Steering-driven writer remap: stop sending to ``old``, send to ``new``.

        Unlike :meth:`fail_endpoint` the old reader is alive: blocks already
        in flight toward it stay valid and are consumed normally, and the
        old peer is remembered so :meth:`close` still delivers its close
        marker — the reader-side EOF protocol survives any number of
        remaps, including ping-pong back to a previously retired reader.
        The adopting reader must take over with :meth:`adopt_peer`.
        Returns False when there is nothing to do (``old`` not currently
        targeted, ``old == new``, or the stream already closed).
        """
        if self.mode != "w":
            raise VMPIError("retarget_endpoint() on a non-writer stream")
        if self._closed or old == new or old not in self.endpoints:
            return False
        self.endpoints.remove(old)
        self._retired_peers.add(old)
        if new not in self.endpoints:
            self.endpoints.append(new)
            self.peers_adopted += 1
        self._retired_peers.discard(new)
        self.endpoints_retargeted += 1
        if self._tel.enabled:
            self._tel.counter("stream.endpoints_retargeted").inc()
        return True

    def adopt_peer(self, writer_global: int) -> None:
        """Reader side of failover: accept an orphaned writer.

        Posts the writer's NA receive buffers and expects one more close
        marker, exactly as if the writer had been connected at open time.
        """
        if self.mode != "r":
            raise VMPIError("adopt_peer() on a non-reader stream")
        if writer_global in self.endpoints:
            return
        self.endpoints.append(writer_global)
        self.peers_adopted += 1
        self._closes_pending += 1
        peer_rank = self._comm.group.rank_of_global[writer_global]
        for _ in range(self.na):
            self._post_recv(peer_rank)

    def set_tamper(
        self, fn: Callable[["VMPIStream", int, Any], tuple[str | None, Any]] | None
    ) -> None:
        """Install a transport-fault hook on the write path.

        ``fn(stream, nbytes, payload)`` returns ``(action, payload)`` with
        action ``"drop"`` (swallow the block), ``"corrupt"`` (send the
        returned payload instead) or ``None`` (pass through).
        """
        if self.mode != "w":
            raise VMPIError("set_tamper() on a non-writer stream")
        self._tamper = fn

    def stall_until(self, t: float) -> None:
        """Inject a one-shot stall: the next read does not start before ``t``."""
        if self.mode != "r":
            raise VMPIError("stall_until() on a non-reader stream")
        self._stall_until = t

    # -- reader side ----------------------------------------------------------------------

    def _post_recv(self, peer_rank: int) -> None:
        """Post one receive buffer for the writer at communicator rank ``peer_rank``."""
        self._mailbox.post(self._comm.id, peer_rank, self._tag, self._o_recv).add_callback(
            self._arrived
        )

    def _on_block(self, ev: SimEvent) -> None:
        status: Status = ev.value
        now = self._kernel.now
        # The reader side's one look at the stamp: the flow id rides in the
        # ready-queue entry, so read() and close() do not ask again.
        flow_id = self._flow_of(status.payload) if self._flows is not None else None
        self._ready.append((status, now, flow_id))
        if flow_id is not None:
            self._flows.on_arrive(flow_id, now)
        if len(self._ready) > self.read_buffers_hwm:
            self.read_buffers_hwm = len(self._ready)
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
            self._wake = None

    def read(self, nonblock: bool = False):
        """Generator: read one block.

        Returns ``(nbytes, payload)``; ``(EOF, None)`` once all writers have
        closed and data is drained; ``(EAGAIN, None)`` if ``nonblock`` and no
        block is available (paper: try the next endpoint, avoid circular
        waits).
        """
        if self._open_mode != "r":
            self._require("r", "read")
        kernel = self._kernel
        tel = self._tel
        if self._stall_until is not None:
            # Injected slow-analyzer fault: freeze this consumer until the
            # stall deadline, then resume normally.
            delay = self._stall_until - kernel.now
            self._stall_until = None
            if delay > 0:
                yield delay
        span = (
            tel.span("stream.read", pid=self._pid, cat="stream") if tel.enabled else None
        )
        while True:
            while self._ready:
                status, t_arrive, flow_id = self._ready.popleft()
                result = self._consume(status, t_arrive)
                if result is not None:
                    # Charge the copy out of the reception buffer.
                    copy_time = result[0] / self._bw
                    if copy_time > 0:
                        self.read_copy_s += copy_time
                        yield copy_time
                    if flow_id is not None:
                        self._flows.on_read(flow_id, kernel.now, self._mpi.ctx.global_rank)
                    if tel.enabled:
                        mets = self._rmet
                        if mets is None:
                            mets = self._rmet = (
                                tel.counter("stream.blocks_read"),
                                tel.counter("stream.bytes_read"),
                                tel.gauge("stream.read_buffers_ready", pid=self._pid),
                            )
                        mets[0].inc()
                        mets[1].inc(result[0])
                        mets[2].set(len(self._ready))
                        span.end(nbytes=result[0])
                    return result
            if self._closes_pending == 0:
                if span is not None:
                    span.end(eof=True)
                return (EOF, None)
            if nonblock:
                self.eagain_returns += 1
                if tel.enabled:
                    tel.counter("stream.eagain_returns").inc()
                    span.end(eagain=True)
                yield 0.0
                return (EAGAIN, None)
            t_wait = kernel.now
            self._wake = SimEvent(kernel, name="stream.wake")
            yield self._wake
            self.read_wait_s += kernel.now - t_wait
            if tel.enabled:
                tel.histogram("stream.read_wait_s").observe(kernel.now - t_wait)

    def _consume(self, status: Status, t_arrive: float) -> tuple[int, Any] | None:
        """Handle one arrived message; None for protocol (close) markers.

        ``t_arrive`` is the block's receive-buffer entry time: its dwell is
        accounted whether the block is consumed (``read_dwell_s``) or turns
        out to be a drop-oldest tombstone (``dropped_dwell_s``) — dropped
        data never vanishes from the latency books.
        """
        source = status.source
        if not 0 <= source < self._comm.size:
            comm = self._comm
            raise CommunicatorError(
                f"rank {source} outside communicator {comm.label} of size {comm.size}"
            )
        if status.payload is _CLOSE:
            self._closes_pending -= 1
            return None
        # Re-post the consumed buffer for this peer to keep NA outstanding:
        # the status carries its communicator rank, which is what a post takes.
        self._post_recv(source)
        if status.payload is _DROPPED:
            # Block reclaimed by the writer's drop-oldest policy after it
            # was committed: consume the buffer, discard the tombstone.
            self._discard(status, t_arrive, None)
            return None
        self.blocks_read += 1
        self.bytes_read += status.nbytes
        if isinstance(status.payload, (bytes, bytearray, memoryview)):
            self.bytes_wire_read += self._wire_bytes(status.payload)
        self.read_dwell_s += self._kernel.now - t_arrive
        return (status.nbytes, status.payload)

    def _discard(self, status: Status, t_arrive: float, flow_id: int | None) -> None:
        """Book a received block the application will never see: a drop-oldest
        tombstone (met by :meth:`_consume` or still queued at :meth:`close`)
        or a real block stranded in the queue at close.  Both keep their
        receive-buffer dwell."""
        self.dropped_dwell_s += self._kernel.now - t_arrive
        if status.payload is _DROPPED:
            self.stale_blocks_discarded += 1
            if self._tel.enabled:
                self._tel.counter("stream.stale_blocks_discarded").inc()
            return
        self.blocks_discarded_at_close += 1
        self.bytes_discarded_at_close += status.nbytes
        self._end_flow(flow_id, "stranded")

    def _flow_of(self, payload: Any) -> int | None:
        """Flow id stamped into ``payload`` (callers ask only while tracing); None
        for an unsampled pack and for a protocol marker or synthetic block."""
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            return None
        prov = peek_provenance(payload)
        return None if prov is None else prov.flow_id

    def _end_flow(self, flow_id: int | None, loss: str) -> None:
        """Close a traced flow with its loss label (no-op for an untraced block)."""
        if flow_id is not None:
            self._flows.on_drop(flow_id, loss, self._kernel.now)

    def _wire_bytes(self, payload: bytes | bytearray | memoryview) -> int:
        """Physical bytes of a bytes-like payload, folding a frame's
        wire/content ratio into ``pack_ratio``."""
        wire = len(payload)
        try:
            content = frame_content_size(payload)
        except PackFormatError:
            return wire  # not a frame: wire bytes, but no ratio
        self._ratio_sum += wire / content  # content >= the 16-byte logical header
        self._ratio_packs += 1
        return wire

    # -- shutdown -----------------------------------------------------------------------------

    def close(self):
        """Generator: close the stream.

        Writers drain their output buffers and notify every endpoint
        (readers then see EOF); readers account any blocks that arrived but
        were never read.  Closing an already-closed stream is a no-op, so
        failure-path cleanup can run unconditionally.
        """
        if self.mode is None:
            raise StreamClosedError("close() on unopened stream")
        if self._closed:
            yield 0.0
            return
        self._closed = True
        self._open_mode = None
        if self.mode == "w":
            # Drain: wait until every output buffer is free again, so close
            # cannot overtake pending data (FIFO per (src, tag) guarantees
            # the close marker arrives last).
            for _ in range(self.na):
                yield self._slots.acquire()
            for _ in range(self.na):
                self._slots.release()
            # Current endpoints plus readers retired by retarget_endpoint():
            # each connected-at-any-point reader expects exactly one close.
            close_peers = list(self.endpoints)
            close_peers += [p for p in sorted(self._retired_peers) if p not in close_peers]
            for peer in close_peers:
                yield from self._comm._raw_isend(peer, 1, self._tag, _CLOSE)
        else:
            # Anything still queued was received but never consumed by the
            # application — count it (and its accumulated buffer dwell) so
            # shutdown data loss is visible.
            while self._ready:
                status, t_arrive, flow_id = self._ready.popleft()
                if status.payload is _CLOSE:
                    self._closes_pending -= 1
                else:
                    self._discard(status, t_arrive, flow_id)
            yield 0.0

    # -- introspection ------------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Lightweight endpoint introspection, available with telemetry off.

        Byte-counter naming contract: every ``*_bytes`` / ``bytes_*``
        counter except the ``bytes_wire_*`` pair — ``bytes_written``,
        ``bytes_read``, ``bytes_dropped``, ``bytes_lost_to_crash``,
        ``bytes_discarded_at_close`` — measures **modelled content bytes**
        (the ``nbytes`` argument of :meth:`write`: logical header + event
        records, scaled by the cost model), which is the quantity all
        simulated timing uses.  ``bytes_wire_written`` / ``bytes_wire_read``
        measure the **physical frame bytes** of bytes-like payloads
        (framing, CRC, provenance, codec output; ``payload=None`` writers
        contribute zero), and ``pack_ratio`` is the mean per-pack
        wire/content compression ratio of the frames that passed through —
        above 1.0 for unreduced packs (framing overhead), well below 1.0
        once a reduction chain is active.

        ``write_buffers_in_flight`` counts output buffers not yet matched by
        a reader (the paper's adaptation window in use);
        ``read_buffers_ready`` counts received blocks waiting to be consumed;
        ``write_stall_s`` is the accumulated backpressure stall,
        ``read_wait_s`` the accumulated blocking-read wait and
        ``eagain_returns`` the number of empty non-blocking reads.
        ``write_copy_s`` / ``read_copy_s`` total the intra-node buffer copy
        time charged on each side (pure transfer, no waiting).
        ``read_dwell_s`` totals the receive-buffer residence of consumed
        blocks; ``dropped_dwell_s`` the residence of blocks that were
        received but discarded (drop-oldest tombstones and close-time
        strays), so dropped data keeps consistent per-hop dwell
        accounting.  The ``*_hwm`` keys are buffer-occupancy high-water marks,
        so saturation (hwm pinned at ``NA``) is visible without telemetry.

        The failure-tolerance keys (retries, timeouts, drop and crash-loss
        accounting, failover counters) are all zero in healthy runs.
        """
        return {
            "mode": self.mode,
            "endpoints": len(self.endpoints),
            "overflow": self.overflow,
            "blocks_written": self.blocks_written,
            "bytes_written": self.bytes_written,
            "blocks_read": self.blocks_read,
            "bytes_read": self.bytes_read,
            "bytes_wire_written": self.bytes_wire_written,
            "bytes_wire_read": self.bytes_wire_read,
            "pack_ratio": (
                self._ratio_sum / self._ratio_packs if self._ratio_packs else 0.0
            ),
            "eagain_returns": self.eagain_returns,
            "write_stall_s": self.write_stall_s,
            "read_wait_s": self.read_wait_s,
            "write_copy_s": self.write_copy_s,
            "read_copy_s": self.read_copy_s,
            "read_dwell_s": self.read_dwell_s,
            "dropped_dwell_s": self.dropped_dwell_s,
            "write_buffers_in_flight": self._slots.in_use if self._slots else 0,
            "read_buffers_ready": len(self._ready) if self._ready else 0,
            "write_buffers_hwm": self.write_buffers_hwm,
            "read_buffers_hwm": self.read_buffers_hwm,
            "write_retries": self.write_retries,
            "write_timeouts": self.write_timeouts,
            "blocks_dropped": self.blocks_dropped,
            "bytes_dropped": self.bytes_dropped,
            "injected_drops": self.injected_drops,
            "injected_corruptions": self.injected_corruptions,
            "blocks_lost_to_crash": self.blocks_lost_to_crash,
            "bytes_lost_to_crash": self.bytes_lost_to_crash,
            "endpoints_failed": self.endpoints_failed,
            "peers_adopted": self.peers_adopted,
            "endpoints_retargeted": self.endpoints_retargeted,
            "blocks_discarded_at_close": self.blocks_discarded_at_close,
            "bytes_discarded_at_close": self.bytes_discarded_at_close,
            "stale_blocks_discarded": self.stale_blocks_discarded,
            "closed": self._closed,
        }

    # -- helpers ----------------------------------------------------------------------------

    def _require(self, mode: str, op: str) -> None:
        """Raise the error for ``op`` on a stream not open in ``mode``; callers
        reach it only when ``_open_mode != mode``."""
        if self.mode is None:
            raise StreamClosedError(f"{op}() on unopened stream")
        if self._closed:
            raise StreamClosedError(f"{op}() on closed stream")
        if self.mode != mode:
            raise VMPIError(f"{op}() on a {self.mode!r}-mode stream")
