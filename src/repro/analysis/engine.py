"""The analyzer engine: blackboard wiring + the analyzer program.

Each analyzer rank runs :func:`analyzer_program`: it maps itself to every
application partition (``VMPI_Map``), opens a read-mode stream, and feeds
every received event pack to its :class:`AnalyzerEngine` — a multi-level
blackboard with the Figure-4 pipeline instantiated per application level.
Analysis CPU cost is charged to the analyzer's simulated timeline, which is
what creates backpressure towards the instrumented applications when the
analyzer partition is undersized.

A pack's bytes are walked once on this side: the read loop's
``parse_frame(verify=False)`` yields the flow stamp, the codec descriptor
and the frame (or the error) that :meth:`AnalyzerEngine.ingest` turns into
the checksum verdict, the reject cause and the unpacker's input.

At EOF the per-rank partial states and ingest tallies are gathered on the
root and merged into one :class:`~repro.analysis.report.ProfileReport` —
the paper's "dedicated report with full details of each program's
behaviour, briefly after execution ends".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.codec.frame import CONTENT_HEADER_SIZE, parse_frame
from repro.codec.stages import build_chain, decode_chain
from repro.errors import ConfigError, PackFormatError, ReproError, UnknownCodecError
from repro.analysis.alerts import AlertMonitor
from repro.analysis.batch import EventBatch
from repro.analysis.density import DensityMaps
from repro.analysis.latesender import LateSenderAnalysis
from repro.analysis.otf2proxy import OTF2Proxy
from repro.analysis.profiler import MPIProfile
from repro.analysis.report import ApplicationReport, ProfileReport
from repro.analysis.topology import CommMatrix
from repro.analysis.waitstate import WaitState
from repro.blackboard.multilevel import MultiLevelBlackboard
from repro.instrument.packer import decode_pack, decode_pack_frame
from repro.mpi.datatypes import ANY_SOURCE
from repro.telemetry import NULL_TELEMETRY, Telemetry, rank_pid
from repro.telemetry.hostprof import host_now
from repro.vmpi.mapping import ROUND_ROBIN, VMPIMap, map_partitions
from repro.vmpi.stream import BALANCE_ROUND_ROBIN, EOF, VMPIStream

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.world import ProgramAPI

_MODULE_CLASSES = {
    "profile": MPIProfile,
    "topology": CommMatrix,
    "density": DensityMaps,
    "waitstate": WaitState,
    # Extension modules (the paper's Section VI work-in-progress items);
    # not enabled by default — add them to AnalysisConfig.modules.
    "otf2proxy": OTF2Proxy,
    "alerts": AlertMonitor,
    "latesender": LateSenderAnalysis,
}

#: CPU seconds per raw record byte per unit stage cost weight spent
#: inverting a frame's codec chain; zero is charged for identity frames.
CODEC_PER_BYTE_CPU = 0.6e-9


@dataclass(frozen=True)
class AnalysisConfig:
    """Analyzer-side knobs: CPU cost model and enabled modules."""

    per_byte_cpu: float = 0.8e-9  # ~1.25 GB/s single-core analysis rate
    per_pack_cpu: float = 8.0e-6
    modules: tuple[str, ...] = ("profile", "topology", "density", "waitstate")
    block_size: int = 1024 * 1024
    na_buffers: int = 3
    #: When set, only frames whose codec descriptor is in this tuple are
    #: analyzed; anything else is rejected as a descriptor mismatch.
    #: ``None`` (the default) accepts every chain this build can decode.
    accept_codecs: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.per_byte_cpu < 0 or self.per_pack_cpu < 0:
            raise ConfigError("analysis CPU costs must be >= 0")
        unknown = set(self.modules) - set(_MODULE_CLASSES)
        if unknown:
            raise ConfigError(f"unknown analysis modules: {sorted(unknown)}")
        if not self.modules:
            raise ConfigError("at least one analysis module is required")
        if self.accept_codecs is not None:
            for spec in self.accept_codecs:
                try:
                    build_chain(spec)
                except ReproError as exc:
                    raise ConfigError(
                        f"accept_codecs entry {spec!r} is not decodable: {exc}"
                    ) from exc

    def cpu_cost(self, modeled_bytes: int) -> float:
        return self.per_pack_cpu + self.per_byte_cpu * modeled_bytes


class AnalyzerEngine:
    """Per-analyzer-rank multi-level blackboard with the analysis pipeline."""

    def __init__(
        self,
        apps: list[tuple[str, int]],
        config: AnalysisConfig,
        seed: int = 0,
        telemetry: Telemetry | None = None,
        track_pid: int = 0,
    ):
        if not apps:
            raise ConfigError("analyzer engine needs at least one application")
        self.apps = list(apps)
        self._app_sizes = [size for _name, size in apps]  # by app id
        self.config = config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.ml = MultiLevelBlackboard(
            levels=[name for name, _size in apps],
            seed=seed,
            telemetry=self.telemetry,
            track_pid=track_pid,
        )
        # level -> module name -> mergeable state
        self.states: dict[str, dict[str, Any]] = {}
        for name, size in apps:
            level_states = {
                mod: _MODULE_CLASSES[mod](name, size) for mod in config.modules
            }
            self.states[name] = level_states
            self._wire_level(name, size, level_states)
        self.packs_ingested = 0
        self.bytes_ingested = 0  # modelled content bytes
        self.bytes_wire_ingested = 0  # physical frame bytes
        self.packs_rejected = 0
        self.rejects_by_cause: dict[str, int] = {}
        self.events_sampled_out = 0  # writer-side drops declared on frames
        self.codecs_seen: dict[str, int] = {}  # descriptor -> packs
        self.decode_cpu_s = 0.0  # virtual CPU charged for chain decode
        # Dogfooding channel (see enable_health_ingest): counts of monitor
        # alerts that travelled through this blackboard as data entries.
        self.health_counts: dict[str, int] = {}
        self.health_entries: list[Any] = []

    def enable_health_ingest(self, monitor) -> None:
        """Let the blackboard analyze the health monitor's own alert stream.

        Registers a ``health_alert`` data type on a monitor-private level
        and a knowledge source that aggregates alert counts by kind, then
        binds the monitor's publish path to ``board.submit`` — the paper's
        knowledge-source engine consuming the measurement pipeline's own
        telemetry-derived events.
        """
        board = self.ml.board
        type_id = board.register_type("health_alert", level="@health-monitor")

        def watch(_board, entries):
            for entry in entries:
                alert = entry.payload
                self.health_counts[alert.kind] = self.health_counts.get(alert.kind, 0) + 1
                self.health_entries.append(alert)

        board.register_ks("KS_HealthWatch", [type_id], watch)

        def publish(alert) -> None:
            # Alerts fire between kernel events, never mid-ingest, so the
            # inline drain below cannot interleave with pack processing.
            board.submit(type_id, alert, size=96)
            board.run_until_idle()

        monitor.bind_blackboard(publish)

    def _wire_level(self, level: str, app_size: int, level_states: dict[str, Any]) -> None:
        board = self.ml.board
        tel = self.telemetry
        pack_id = self.ml.type_id("event_pack", level)
        events_id = self.ml.type_id("mpi_events", level)
        decoded = None  # the packs_decoded counter, looked up on first use

        def unpack(b, entries):
            nonlocal decoded
            for entry in entries:
                # The ingest path threads the parsed frame along as entry
                # meta, so a pack's wire bytes are walked exactly once;
                # direct submitters without a rider fall back to a parse.
                frame = entry.meta
                if frame is not None:
                    header, events = decode_pack_frame(frame)
                else:
                    header, events = decode_pack(entry.payload)
                if tel.enabled:
                    if decoded is None:
                        decoded = tel.counter("analysis.packs_decoded")
                    decoded.inc()
                # One batch per pack: every module KS below reads the shared
                # (lazily derived) columns instead of re-deriving its own.
                batch = EventBatch(events)
                # A send to a rank outside the application would fail the
                # topology module mid-fan-out; the pack is rejected before
                # any module sees it.
                if batch.send_peer_max >= app_size:
                    self._reject("PeerOutOfRange")
                    continue
                b.submit(events_id, (header.rank, batch), size=events.nbytes)

        board.register_ks(f"KS_Unpacker[{level}]", [pack_id], unpack)

        for mod_name, state in level_states.items():
            def make_op(st, mod):
                cpu_s = None  # the module's CPU counter, looked up on first use

                def op(_b, entries):
                    nonlocal cpu_s
                    t0 = host_now() if tel.enabled else 0.0
                    for entry in entries:
                        rank, events = entry.payload
                        st.update(rank, events)
                    if tel.enabled:
                        if cpu_s is None:
                            cpu_s = tel.counter(f"analysis.cpu_s.{mod}")
                        cpu_s.inc(host_now() - t0)
                return op

            board.register_ks(
                f"KS_{mod_name}[{level}]", [events_id], make_op(state, mod_name)
            )

    # -- ingestion --------------------------------------------------------------------

    def ingest(self, pack_bytes: bytes, frame=None) -> bool:
        """Feed one pack and drain the pipeline inline (deterministic).

        The frame is verified first — structure, CRC, a decodable codec
        descriptor, and (when ``accept_codecs`` is set) an *accepted*
        descriptor — then its header must name an application of this
        engine and a rank inside it, and (in the unpacker, before any
        module sees the events) every send must name a rank inside it.
        A failing pack is rejected and counted by cause, and no module
        state moves — the analysis pipeline keeps running on whatever
        arrives intact.  Returns False on rejection.

        ``frame`` may carry the outcome of ``parse_frame(pack_bytes,
        verify=False)`` a caller already holds — the frame, or the error it
        raised — so neither the checksum verdict nor the reject cause costs
        a second walk of the wire bytes.
        """
        try:
            if frame is None:
                frame = parse_frame(pack_bytes)
            elif isinstance(frame, PackFormatError):
                raise frame
            else:
                frame.check_crc()
            spec = frame.codec
            decode_chain(spec)
            accept = self.config.accept_codecs
            if accept is not None and spec not in accept:
                raise UnknownCodecError(
                    f"codec descriptor {spec or 'identity'!r} not in "
                    f"accept_codecs {list(accept)}"
                )
        except PackFormatError as exc:
            self._reject(type(exc).__name__)
            return False
        sizes = self._app_sizes
        if frame.app_id >= len(sizes):
            self._reject("AppIdOutOfRange")
            return False
        if frame.rank >= sizes[frame.app_id]:
            self._reject("RankOutOfRange")
            return False
        # Size the entry by pack content only: framing, CRC, codec output
        # and provenance sections ride outside the blackboard's byte
        # accounting, so storage stats are identical with and without
        # reduction or provenance enabled.
        content = frame.content_size
        rejected = self.packs_rejected
        self.ml.submit_pack(pack_bytes, size=content, meta=frame)
        self.ml.board.run_until_idle()
        if self.packs_rejected != rejected:  # the unpacker turned it away
            return False
        self.packs_ingested += 1
        self.bytes_ingested += content
        self.bytes_wire_ingested += len(pack_bytes)
        self.events_sampled_out += frame.events_dropped
        spec = spec or "identity"
        self.codecs_seen[spec] = self.codecs_seen.get(spec, 0) + 1
        return True

    def _reject(self, cause: str) -> None:
        """Count one rejected pack under ``cause``."""
        self.packs_rejected += 1
        self.rejects_by_cause[cause] = self.rejects_by_cause.get(cause, 0) + 1
        if self.telemetry.enabled:
            self.telemetry.counter("analysis.packs_rejected").inc()
            self.telemetry.counter(f"analysis.packs_rejected.{cause}").inc()

    # -- reduction --------------------------------------------------------------------

    def merge_states(self, other: dict[str, dict[str, Any]]) -> None:
        """Fold another analyzer rank's partial states into ours."""
        for level, mods in other.items():
            mine = self.states.get(level)
            if mine is None:
                raise ConfigError(f"merge of unknown level {level!r}")
            for mod_name, state in mods.items():
                mine[mod_name].merge(state)

    def build_report(self) -> ProfileReport:
        chapters = []
        for name, size in self.apps:
            mods = self.states[name]
            chapters.append(
                ApplicationReport(
                    app=name,
                    app_size=size,
                    profile=mods.get("profile"),
                    topology=mods.get("topology"),
                    density=mods.get("density"),
                    waitstate=mods.get("waitstate"),
                    alerts=mods.get("alerts"),
                    otf2proxy=mods.get("otf2proxy"),
                    latesender=mods.get("latesender"),
                )
            )
        return ProfileReport(chapters=chapters)


def _tally(engine: AnalyzerEngine) -> dict[str, Any]:
    """One rank's ingest counters under their ``analyzer_stats`` names."""
    return {
        "packs": engine.packs_ingested,
        "bytes": engine.bytes_ingested,
        "bytes_wire": engine.bytes_wire_ingested,
        "events_sampled_out": engine.events_sampled_out,
        "decode_cpu_s": engine.decode_cpu_s,
        "packs_rejected": engine.packs_rejected,
        "rejects_by_cause": dict(engine.rejects_by_cause),
        "codecs_seen": dict(engine.codecs_seen),
    }


def _merge_tally(total: dict[str, Any], part: dict[str, Any]) -> None:
    """Fold another rank's tally in: numbers add, per-key counts add per key."""
    for key, value in part.items():
        if isinstance(value, dict):
            counts = total[key]
            for name, n in value.items():
                counts[name] = counts.get(name, 0) + n
        else:
            total[key] += value


# Reserved tag for the degraded point-to-point gather (outside the stream
# and mapping tag spaces at 800k/700k).
_TAG_DEGRADED_GATHER = 950_000


def _degraded_gather(mpi: "ProgramAPI", nbytes: int, payload: Any, dead_local):
    """Generator: gather to analyzer root 0, skipping dead ranks.

    The collective gather would block forever on a crashed participant;
    this point-to-point fallback has the root expect exactly one message
    per *surviving* non-root rank.  Slots of dead ranks stay None.
    """
    comm = mpi.comm_world
    if comm.rank != 0:
        yield from comm._raw_isend(
            0, nbytes=nbytes, tag=_TAG_DEGRADED_GATHER, payload=payload
        )
        return None
    out: list[Any] = [None] * comm.size
    out[0] = payload
    expected = [r for r in range(1, comm.size) if r not in dead_local]
    for _ in expected:
        status = yield mpi.ctx.mailbox.post(
            comm.id, ANY_SOURCE, _TAG_DEGRADED_GATHER, mpi.ctx.world.cost.o_recv
        )
        out[status.source] = status.payload
    return out


def _latesender_exchange(mpi: "ProgramAPI", engine: AnalyzerEngine):
    """Generator: one all-to-all redistributing late-sender shards."""
    comm = mpi.comm_world
    nshards = comm.size
    # Build my row: packets[dest] = {level: packet-for-dest}
    row: list[dict[str, dict]] = [{} for _ in range(nshards)]
    payload_tuples = 0
    for level, mods in engine.states.items():
        state: LateSenderAnalysis = mods["latesender"]
        packets = state.shard(nshards)
        state.reset_local()
        for dest, packet in enumerate(packets):
            row[dest][level] = packet
            payload_tuples += len(packet["sends"]) + len(packet["recvs"])
    nbytes = max(64, 24 * payload_tuples // max(1, nshards))
    received = yield from comm.alltoall(nbytes=nbytes, payload=row)
    for per_level in received:
        if per_level is None:
            continue
        for level, packet in per_level.items():
            engine.states[level]["latesender"].absorb(packet)
    for mods in engine.states.values():
        mods["latesender"].finalize()


def analyzer_program(
    mpi: "ProgramAPI",
    config: AnalysisConfig | None = None,
    sink: dict | None = None,
    monitor=None,
):
    """Generator: the analyzer partition's main (paper Figure 12).

    ``sink`` (a plain dict) receives, on the analyzer root:
    ``report`` (:class:`ProfileReport`) and ``analyzer_stats``.
    """
    config = config or AnalysisConfig()
    yield from mpi.init()
    world = mpi.ctx.world
    my_partition = mpi.partition
    app_partitions = [p for p in world.partitions if p.index != my_partition.index]
    if not app_partitions:
        raise ConfigError("analyzer launched without application partitions")

    # Map each application partition (additive map, paper Figure 12).
    vmap = VMPIMap()
    for p in app_partitions:
        yield from map_partitions(mpi, vmap, p, policy=ROUND_ROBIN)

    stream = VMPIStream(
        block_size=config.block_size,
        balance=BALANCE_ROUND_ROBIN,
        na_buffers=config.na_buffers,
        channel=0,
    )
    yield from stream.open_map(mpi, vmap, "r")

    tel = mpi.ctx.telemetry
    pid = rank_pid(mpi.ctx.global_rank)
    engine = AnalyzerEngine(
        apps=[(p.name, p.size) for p in app_partitions],
        config=config,
        seed=world.seed + mpi.rank,
        telemetry=tel,
        track_pid=pid,
    )
    if monitor is not None and mpi.rank == 0:
        # The analyzer root's blackboard consumes the health monitor's
        # alert stream as data entries (dogfooding the architecture).
        engine.enable_health_ingest(monitor)

    flows = world.flows
    steering = world.steering
    while True:
        nbytes, payload = yield from stream.read()
        if nbytes == EOF:
            break
        span = (
            tel.span("analysis.block", pid=pid, cat="analysis", args={"nbytes": nbytes})
            if tel.enabled
            else None
        )
        # The pack's only format walk: the flow stamp and the codec descriptor
        # are read off the frame, and the frame (or the error that names the
        # reject cause) rides to ingest below, on to the unpacker source.
        frame = prov = None
        spec = ""
        try:
            frame = parse_frame(payload, verify=False)
            if flows is not None:
                prov = frame.provenance
            spec = frame.codec
        except PackFormatError as exc:
            damage = exc
        # Provenance: the dispatch hop starts here — the pack is out of the
        # receive buffers and about to be charged its analysis CPU.
        if prov is not None:
            flows.on_dispatch(prov.flow_id, mpi.ctx.kernel.now)
        # Charge the analysis CPU cost for this block to simulated time,
        # plus the chain-decode cost when the frame names a codec.  The
        # identity chain (no descriptor section) charges nothing extra,
        # keeping unreduced runs bit-identical.
        cost = config.cpu_cost(nbytes)
        if spec:
            raw_bytes = max(0, frame.content_size - CONTENT_HEADER_SIZE)
            try:
                weight = decode_chain(spec).cost_weight
            except PackFormatError:
                weight = 0.0  # unknown descriptor; rejected at ingest
            decode_cpu = CODEC_PER_BYTE_CPU * raw_bytes * weight
            engine.decode_cpu_s += decode_cpu
            if tel.enabled:
                tel.histogram("codec.decode_s").observe(decode_cpu)
            cost += decode_cpu
        # Steering's autoscaled knowledge-source pool: the modelled worker
        # count divides the analysis charge.  Reading the live attribute per
        # pack is what makes mid-run scale decisions take effect; a pool of
        # one (never scaled) leaves the charge bit-identical.
        if steering is not None and steering.analysis_workers != 1:
            cost /= steering.analysis_workers
        yield from mpi.compute(cost)
        ok = engine.ingest(payload, frame if frame is not None else damage)
        if prov is not None:
            if ok:
                flows.on_done(prov.flow_id, mpi.ctx.kernel.now)
            else:
                flows.on_drop(prov.flow_id, "reject", mpi.ctx.kernel.now)
        if span is not None:
            span.end()

    yield from stream.close()

    # A fault may have killed part of this partition: consult the injector
    # (None in healthy runs) before entering any collective.
    faults = world.faults
    dead_local = faults.dead_local_ranks() if faults is not None else frozenset()

    # Distributed stateful analysis (paper Sec. VI): late-sender matching
    # needs both ends of every message on one analyzer rank.  Shard the
    # local send/receive tuples by sending application rank and exchange
    # them across the analyzer partition, then match locally.  The
    # all-to-all cannot survive a dead participant, so degraded runs fall
    # back to local-only matching.
    if "latesender" in config.modules:
        if dead_local:
            if tel.enabled:
                tel.counter("analysis.latesender_skipped").inc()
            for mods in engine.states.values():
                mods["latesender"].finalize()
        else:
            yield from _latesender_exchange(mpi, engine)

    # Reduce partial states to the analyzer root.
    gather_nbytes = max(64, engine.bytes_ingested // max(1, engine.packs_ingested))
    gather_payload = (engine.states, _tally(engine))
    if dead_local:
        gathered = yield from _degraded_gather(
            mpi, gather_nbytes, gather_payload, dead_local
        )
    else:
        gathered = yield from mpi.comm_world.gather(
            nbytes=gather_nbytes, root=0, payload=gather_payload
        )
    if mpi.rank == 0:
        total = _tally(engine)
        for entry in gathered[1:]:
            if entry is None:  # dead rank's slot in a degraded gather
                continue
            other_states, other_tally = entry
            engine.merge_states(other_states)
            _merge_tally(total, other_tally)
        if sink is not None:
            sink["report"] = engine.build_report()
            sink["analyzer_stats"] = {
                **total,
                "board": engine.ml.board.stats(),
                "stream": stream.stats(),
                "health_ingest": dict(engine.health_counts),
                "degraded": bool(faults.degraded) if faults is not None else False,
                "dead_analyzer_ranks": sorted(dead_local),
            }
    yield from mpi.finalize()
