"""Fault injector: applies a :class:`FaultPlan` to a running world.

The injector is armed before the simulation starts (``attach``) and fires
each fault from a kernel timeout at its scheduled virtual time, so fault
delivery is ordered by the same deterministic event loop as everything
else: identical plan + seed → identical fault timestamps and identical
downstream accounting.

What each fault does at fire time:

* ``analyzer_crash`` — interrupt the target analyzer process (its crash is
  absorbed so the kernel keeps running), then fail the dead endpoint on
  every connected writer stream and remap the orphaned writers onto
  surviving analyzers (:func:`repro.vmpi.mapping.remap_orphans`), adopting
  them on the survivors' read endpoints.
* ``link_degrade`` — cut the NIC bandwidth / add latency on the target
  analyzer's node (:meth:`repro.network.cluster.Cluster.degrade_node`).
* ``pack_corrupt`` / ``pack_drop`` — install a transport tamper hook on
  every open (and future) writer stream that flips bytes in, or swallows,
  every ``every``-th pack, counted across all streams, deterministically
  (pack order is fixed by the event loop).
* ``analyzer_stall`` — freeze the target analyzer's stream consumption for
  ``duration`` virtual seconds.

Everything the injector does is visible: telemetry counters under
``faults.*`` (plus ``vmpi.rank_remaps``), a :class:`FaultRecord` journal,
and per-stream accounting in ``VMPIStream.stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.codec.frame import SEC_PAYLOAD, parse_frame
from repro.errors import ConfigError, PackFormatError, SimulationError
from repro.faults.plan import (
    ANALYZER_CRASH,
    ANALYZER_STALL,
    LINK_DEGRADE,
    PACK_CORRUPT,
    PACK_DROP,
    FaultPlan,
    FaultSpec,
)
from repro.instrument.interceptor import ANALYZER_PARTITION
from repro.mpi.world import PartitionInfo, World
from repro.vmpi.mapping import remap_orphans

#: Give-up bound for interrupting a process that is transiently mid-resume.
_CRASH_ATTEMPTS = 8


@dataclass(frozen=True)
class FaultRecord:
    """Journal entry: one fault as actually applied (or skipped)."""

    kind: str
    t: float
    target: int  # global rank, or -1 when not rank-scoped
    applied: bool
    detail: str = ""


def _flip_middle_byte(blob: Any) -> Any:
    """Deterministically corrupt a bytes payload (checksum-detectable).

    For a well-formed frame the flipped byte is the middle of the PAYLOAD
    section — located through the shared frame parser, never by offset
    arithmetic — so the corruption lands on event data and the stored CRC
    (which is left untouched) no longer matches.  Non-frame payloads fall
    back to flipping the middle byte of the blob.
    """
    if not isinstance(blob, (bytes, bytearray)) or len(blob) == 0:
        return blob
    out = bytearray(blob)
    target = len(out) // 2
    try:
        frame = parse_frame(blob, verify=False)
    except PackFormatError:
        frame = None
    if frame is not None:
        for (stype, body), offset in zip(frame.sections, frame.offsets):
            if stype == SEC_PAYLOAD and body:
                target = offset + len(body) // 2
                break
    out[target] ^= 0xFF
    return bytes(out)


class FaultInjector:
    """Arms a :class:`FaultPlan` against a world and journals what happened."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.records: list[FaultRecord] = []
        self.injected = 0
        self.remapped: dict[int, int] = {}  # orphan writer -> adopting analyzer
        self._world: World | None = None
        self._analyzer: PartitionInfo | None = None
        self._dead: set[int] = set()  # global ranks
        self._tamper_specs: list[FaultSpec] = []
        self._tampered: set[int] = set()  # id() of streams with hook installed
        #: shared per-spec pack counter: "every Nth pack" counts across the
        #: whole fault domain, not per stream (writers may flush rarely)
        self._tamper_counts: dict[FaultSpec, int] = {}

    # -- arming ----------------------------------------------------------------

    def attach(self, world: World) -> None:
        """Arm every fault of the plan against ``world``.

        Must be called before ``world.run()``.  An empty plan schedules
        nothing at all — attaching it leaves the simulation bit-identical
        to an unattached run.
        """
        if self._world is not None:
            raise ConfigError("fault injector already attached")
        self._world = world
        world.faults = self
        analyzer = world.partition_by_name(ANALYZER_PARTITION)
        if analyzer is None:
            raise ConfigError(f"no partition named {ANALYZER_PARTITION!r} to inject against")
        self._analyzer = analyzer
        for spec in self.plan:
            target = self._resolve_target(spec)
            world.kernel.timeout(spec.at).add_callback(
                lambda _ev, spec=spec, target=target: self._fire(spec, target)
            )

    def _resolve_target(self, spec: FaultSpec) -> int:
        """Analyzer-local target rank → global rank (Python-style negatives)."""
        if spec.kind in (PACK_CORRUPT, PACK_DROP):
            return -1
        size = self._analyzer.size
        local = spec.target if spec.target >= 0 else size + spec.target
        if not (0 <= local < size):
            raise ConfigError(
                f"fault target {spec.target} outside analyzer partition of {size}"
            )
        if spec.kind == ANALYZER_CRASH and local == 0:
            raise ConfigError(
                "cannot crash analyzer local rank 0 (mapping pivot / gather root)"
            )
        return self._analyzer.first_global_rank + local

    # -- firing ----------------------------------------------------------------

    def _fire(self, spec: FaultSpec, target: int) -> None:
        world = self._world
        tel = world.telemetry
        if spec.kind == ANALYZER_CRASH:
            self._apply_crash(target, attempts=_CRASH_ATTEMPTS)
        elif spec.kind == LINK_DEGRADE:
            self._apply_degrade(spec, target)
        elif spec.kind in (PACK_CORRUPT, PACK_DROP):
            self._apply_tamper(spec)
        elif spec.kind == ANALYZER_STALL:
            self._apply_stall(spec, target)
        self.injected += 1
        if tel.enabled:
            tel.counter("faults.injected").inc()

    def _record(self, kind: str, target: int, applied: bool, detail: str = "") -> None:
        self.records.append(
            FaultRecord(kind, self._world.kernel.now, target, applied, detail)
        )

    # -- analyzer crash + failover ------------------------------------------------

    def _apply_crash(self, target: int, attempts: int) -> None:
        world = self._world
        if target in self._dead:
            self._record(ANALYZER_CRASH, target, False, "already dead")
            return
        proc = world.ranks[target].process
        if proc is None or not proc.is_alive:
            self._record(ANALYZER_CRASH, target, False, "already finished")
            return
        # Absorb the crash: an observer callback keeps the kernel's
        # unhandled-crash check from aborting the whole simulation.
        proc.add_callback(lambda _ev: None)
        try:
            proc.interrupt(cause="fault-injected analyzer crash")
        except SimulationError:
            # Transiently uninterruptible (queued for resume at this very
            # timestamp): retry a hair later, deterministically.
            if attempts > 1:
                world.kernel.timeout(1e-12).add_callback(
                    lambda _ev: self._apply_crash(target, attempts - 1)
                )
            else:
                self._record(ANALYZER_CRASH, target, False, "uninterruptible")
            return
        self._dead.add(target)
        if world.telemetry.enabled:
            world.telemetry.counter("faults.analyzer_crash").inc()
        self._record(ANALYZER_CRASH, target, True, "interrupted")
        self._failover(target)

    def _failover(self, dead_rank: int) -> None:
        """Re-route writers of the dead analyzer onto survivors."""
        world = self._world
        tel = world.telemetry
        # Writers that were feeding the dead analyzer.
        orphans = [
            owner
            for owner, stream in world.streams
            if stream.mode == "w" and dead_rank in stream.endpoints
        ]
        for owner, stream in world.streams:
            if stream.mode == "w" and dead_rank in stream.endpoints:
                stream.fail_endpoint(dead_rank)
        # Survivors with a still-open read endpoint can adopt orphans.
        readers = {
            owner: stream
            for owner, stream in world.streams
            if stream.mode == "r"
            and not stream._closed
            and owner in self._analyzer.global_ranks
            and owner not in self._dead
        }
        if not orphans:
            return
        if not readers:
            self._record(ANALYZER_CRASH, dead_rank, True,
                         f"{len(orphans)} orphans, no survivor to adopt them")
            return
        mapping = remap_orphans(orphans, list(readers))
        for orphan, survivor in mapping.items():
            for owner, stream in world.streams:
                if owner == orphan and stream.mode == "w":
                    stream.adopt_endpoint(survivor)
            readers[survivor].adopt_peer(orphan)
            self.remapped[orphan] = survivor
            if tel.enabled:
                tel.counter("vmpi.rank_remaps").inc()
        self._record(
            ANALYZER_CRASH, dead_rank, True,
            f"remapped {len(mapping)} orphans onto {len(readers)} survivors",
        )

    # -- link degradation ----------------------------------------------------------

    def _apply_degrade(self, spec: FaultSpec, target: int) -> None:
        world = self._world
        node = world.cluster.node_of(target)
        world.cluster.degrade_node(
            node, bandwidth_factor=spec.factor, extra_latency=spec.extra_latency
        )
        if world.telemetry.enabled:
            world.telemetry.counter("faults.link_degraded").inc()
        self._record(
            LINK_DEGRADE, target, True,
            f"node {node}: bandwidth x{spec.factor}, +{spec.extra_latency}s latency",
        )

    # -- transport tampering ---------------------------------------------------------

    def _apply_tamper(self, spec: FaultSpec) -> None:
        self._tamper_specs.append(spec)
        installed = 0
        for _owner, stream in self._world.streams:
            if stream.mode == "w":
                self._install_tamper(stream)
                installed += 1
        self._record(spec.kind, -1, True, f"hook on {installed} writer streams")

    def _install_tamper(self, stream: Any) -> None:
        if id(stream) in self._tampered:
            return
        self._tampered.add(id(stream))
        tel = self._world.telemetry
        counters = self._tamper_counts

        def tamper(_stream, _nbytes, payload):
            for spec in self._tamper_specs:
                n = counters.get(spec, 0) + 1
                counters[spec] = n
                if n % spec.every == 0:
                    if spec.kind == PACK_DROP:
                        if tel.enabled:
                            tel.counter("faults.pack_dropped").inc()
                        return ("drop", payload)
                    if tel.enabled:
                        tel.counter("faults.pack_corrupted").inc()
                    return ("corrupt", _flip_middle_byte(payload))
            return (None, payload)

        stream.set_tamper(tamper)

    # -- analyzer stall ---------------------------------------------------------------

    def _apply_stall(self, spec: FaultSpec, target: int) -> None:
        world = self._world
        stalled = 0
        for owner, stream in world.streams:
            if owner == target and stream.mode == "r" and not stream._closed:
                stream.stall_until(world.kernel.now + spec.duration)
                stalled += 1
        if stalled and world.telemetry.enabled:
            world.telemetry.counter("faults.analyzer_stalled").inc()
        self._record(
            ANALYZER_STALL, target, stalled > 0,
            f"{stalled} read streams frozen for {spec.duration}s"
            if stalled else "no open read stream",
        )

    # -- hooks from the runtime ---------------------------------------------------------

    def on_stream_open(self, _global_rank: int, stream: Any) -> None:
        """Called by every stream open; extends active pack faults to it."""
        if self._tamper_specs and stream.mode == "w":
            self._install_tamper(stream)

    # -- introspection ---------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once any fault has actually fired."""
        return self.injected > 0

    @property
    def dead_ranks(self) -> frozenset[int]:
        return frozenset(self._dead)

    def dead_local_ranks(self) -> frozenset[int]:
        """Dead analyzer ranks, partition-local (for collective skips)."""
        first = self._analyzer.first_global_rank
        return frozenset(g - first for g in self._dead)

    def summary(self) -> dict[str, Any]:
        by_kind: dict[str, int] = {}
        for rec in self.records:
            if rec.applied:
                by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
        return {
            "plan": self.plan.name,
            "scheduled": len(self.plan),
            "injected": self.injected,
            "by_kind": by_kind,
            "dead_ranks": sorted(self._dead),
            "remapped": dict(self.remapped),
            "records": [
                {
                    "kind": r.kind,
                    "t": r.t,
                    "target": r.target,
                    "applied": r.applied,
                    "detail": r.detail,
                }
                for r in self.records
            ],
        }
