"""Outside-in layer tracer: exclusive host time per ``src/repro`` package.

Nothing under ``src/`` is edited.  :class:`LayerTracer` replaces the entry
points through which control crosses into each layer (public functions and
methods, plus the few underscore names another layer calls directly) with
timing wrappers, and puts every original back in :meth:`uninstall`.

Exclusive time comes from a layer stack with one running clock: entering a
wrapped call books the time since the last transition to whoever was
running and makes the callee current; leaving books it to the callee and
makes the caller current again.  Every instant between :meth:`start` and
:meth:`stop` is therefore booked exactly once, so the layers plus
``unattributed`` (the benchmark's own driver code) telescope to the traced
wall time by construction.  Generator methods are proxied per resume: the
callee is current only while its frame runs, never while it waits on
virtual time.

What "outside-in" cannot see: kernel primitives another layer constructs
(``Timeout``, ``SimEvent``, ``Resource.acquire``, ``Pipe.commit``) are booked
to the constructing layer, and completion callbacks a layer registers on
events (stream ``_on_block``, mailbox ``_arrived``) run inside the dispatch
loop and are booked to ``simt``.  Spans inside ``src/`` are a later change.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

LAYERS = (
    "simt", "mpi", "network", "vmpi", "instrument", "codec", "blackboard",
    "analysis", "iosim", "baselines", "apps", "core", "planes",
)
UNATTRIBUTED = "unattributed"
SPAN_LIMIT = 50_000

# Indices into the tracer's shared state list (a list, not attributes: the
# wrappers run millions of times and index loads are the cheapest access).
_CUR, _LAST, _SPAN, _NSPANS, _RUN = range(5)


class LayerTracer:
    """Installs the wrappers, owns the accumulators, renders the results."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = [UNATTRIBUTED]
        self.layer_of: list[str] = [UNATTRIBUTED]
        self.self_s: list[float] = [0.0]
        self.calls: list[int] = [0]
        self.counters: dict[str, float] = defaultdict(float)
        self.per_chain: dict[str, list[float]] = defaultdict(lambda: [0.0, 0, 0.0, 0])
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self.wall_s = 0.0
        self._state: list[Any] = [0, 0.0, -1, 0, 0]
        self._t_start = 0.0
        self._restore: list[tuple[Any, str, Any]] = []
        self._boards: dict[int, Any] = {}

    # -- timed region -----------------------------------------------------------------

    def start(self) -> None:
        state = self._state
        state[_CUR] = 0
        state[_LAST] = self._t_start = self.clock()

    def stop(self) -> None:
        state = self._state
        now = self.clock()
        self.self_s[state[_CUR]] += now - state[_LAST]
        state[_LAST] = now
        self.wall_s = now - self._t_start
        for board in self._boards.values():
            stats = board.stats()
            self.counters["blackboard.jobs_queued_hwm"] = max(
                self.counters["blackboard.jobs_queued_hwm"], stats["jobs_queued_hwm"]
            )
            self.counters["blackboard.lock_failures"] += stats["lock_failures"]
        self._boards.clear()

    def set_run(self, run_id: int) -> None:
        """Tag the spans recorded from now on with the operation's index."""
        self._state[_RUN] = run_id

    # -- wrapper factories --------------------------------------------------------------

    def _slot(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.self_s.append(0.0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap_plain(
        self,
        orig: Callable,
        layer: str,
        name: str,
        *,
        pre: Callable | None = None,
        post: Callable | None = None,
        proxy_generator_result: bool = False,
    ) -> Callable:
        """Timing wrapper for a plain callable.

        ``post(t0, args, result, token)`` runs inside the callee's booking,
        with ``t0`` the entry time and ``token = pre(args)`` (None without
        ``pre``).  With
        ``proxy_generator_result`` a returned generator is proxied into the
        same layer (PMPI hooks hand back the generator that does their work).
        """
        idx = self._slot(layer, name)
        state, acc, calls, spans, clock = (
            self._state, self.self_s, self.calls, self.spans, self.clock
        )
        drive = self._make_driver(idx) if proxy_generator_result else None

        def wrapper(*args, **kwargs):
            t0 = clock()
            prev = state[_CUR]
            acc[prev] += t0 - state[_LAST]
            state[_LAST] = t0
            state[_CUR] = idx
            calls[idx] += 1
            if state[_NSPANS] < SPAN_LIMIT:
                sid = state[_NSPANS]
                state[_NSPANS] = sid + 1
                parent = state[_SPAN]
                state[_SPAN] = sid
            else:
                sid = -1
            try:
                token = pre(args) if pre is not None else None
                result = orig(*args, **kwargs)
                if post is not None:
                    post(t0, args, result, token)
                if drive is not None and inspect.isgenerator(result):
                    result = drive(result)
                return result
            finally:
                # Sampled last, so the wrapper's own bookkeeping is booked to
                # the callee it traces, not to the caller.
                t1 = clock()
                acc[idx] += t1 - state[_LAST]
                state[_LAST] = t1
                state[_CUR] = prev
                if sid >= 0:
                    spans.append((sid, idx, t0, t1, parent, state[_RUN]))
                    state[_SPAN] = parent

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _make_driver(self, idx: int) -> Callable:
        """The per-resume proxy: PEP 380 delegation with a layer switch
        around every ``send`` / ``throw`` into the wrapped generator."""
        state, acc, spans, clock = self._state, self.self_s, self.spans, self.clock

        def drive(gen):
            step, arg = gen.send, None
            while True:
                t0 = clock()
                prev = state[_CUR]
                acc[prev] += t0 - state[_LAST]
                state[_LAST] = t0
                state[_CUR] = idx
                if state[_NSPANS] < SPAN_LIMIT:
                    sid = state[_NSPANS]
                    state[_NSPANS] = sid + 1
                    parent = state[_SPAN]
                    state[_SPAN] = sid
                else:
                    sid = -1
                try:
                    waitable = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = clock()
                    acc[idx] += t1 - state[_LAST]
                    state[_LAST] = t1
                    state[_CUR] = prev
                    if sid >= 0:
                        spans.append((sid, idx, t0, t1, parent, state[_RUN]))
                        state[_SPAN] = parent
                try:
                    arg = yield waitable
                    step = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # thrown in by Process.interrupt / failed events
                    step, arg = gen.throw, exc

        return drive

    def wrap_generator(
        self, orig: Callable, layer: str, name: str, *, on_call: Callable | None = None
    ) -> Callable:
        """Timing wrapper for a generator function (timed per resume)."""
        idx = self._slot(layer, name)
        calls = self.calls
        drive = self._make_driver(idx)

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if on_call is not None:
                on_call(args)
            return drive(orig(*args, **kwargs))

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    # -- installation ---------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, layer: str, **hooks: Any) -> None:
        raw = vars(owner).get(attr)
        if not inspect.isfunction(raw):
            raise AttributeError(f"{owner.__name__}.{attr} is not a plain function")
        name = f"{layer}.{owner.__name__.rpartition('.')[2]}.{attr}"
        if inspect.isgeneratorfunction(raw):
            wrapped = self.wrap_generator(raw, layer, name, **hooks)
        else:
            wrapped = self.wrap_plain(raw, layer, name, **hooks)
        self._set(owner, attr, wrapped, raw)

    def _set(self, owner: Any, attr: str, new: Any, old: Any) -> None:
        self._restore.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; rebind every ``from x import y`` alias."""
        try:
            _install_targets(self)
            self._rebind_aliases()
        except BaseException:
            self.uninstall()
            raise

    def _rebind_aliases(self) -> None:
        # A module that did ``from repro.codec.frame import parse_frame`` holds
        # its own reference to the original; find those by identity.
        replaced = {
            id(old): getattr(owner, attr)
            for owner, attr, old in self._restore
            if inspect.ismodule(owner)
        }
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                new = replaced.get(id(value))
                if new is not None and inspect.isfunction(value):
                    self._set(module, key, new, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        out[UNATTRIBUTED] = 0.0
        for layer, seconds in zip(self.layer_of, self.self_s):
            out[layer] += seconds
        return out

    def layer_calls(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for layer, n in zip(self.layer_of[1:], self.calls[1:]):
            out[layer] += n
        return out

    def summary(self) -> dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "layers": self.layer_self_s(),
            "layer_calls": self.layer_calls(),
            "names": {
                name: {"self_s": seconds, "calls": n}
                for name, seconds, n in zip(self.names, self.self_s, self.calls)
                if n or seconds
            },
            "counters": dict(self.counters),
            "per_chain": {spec: list(v) for spec, v in self.per_chain.items()},
            "spans_recorded": len(self.spans),
            "spans_seen": self._state[_NSPANS],
        }

    def chrome_trace(self, label: str) -> dict[str, Any]:
        """The first ``SPAN_LIMIT`` raw spans as a Chrome trace (ts in us)."""
        t_base = self._t_start
        events = [
            {
                "name": self.names[idx],
                "cat": self.layer_of[idx],
                "ph": "X",
                "ts": (t0 - t_base) * 1e6,
                "dur": (t1 - t0) * 1e6,
                "pid": 1,
                "tid": run_id,
                "args": {"id": sid, "parent": parent},
            }
            for sid, idx, t0, t1, parent, run_id in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": label, **self.summary()},
        }


# -- the wrap table ---------------------------------------------------------------------


def _install_targets(tr: LayerTracer) -> None:
    """Every layer boundary the benchmark's workloads cross."""
    from repro.analysis import engine as analysis_engine
    from repro.analysis import (
        AlertMonitor, CommMatrix, DensityMaps, LateSenderAnalysis, MPIProfile,
        OTF2Proxy, ProfileReport, WaitState,
    )
    from repro.apps import synthetic
    from repro.apps.base import AppKernel
    from repro.baselines.tracer import TraceWriterState
    from repro.bench import harness
    from repro.blackboard.board import Blackboard
    from repro.blackboard.multilevel import MultiLevelBlackboard
    from repro.codec import frame as codec_frame
    from repro.codec import stages as codec_stages
    from repro.core import comparison
    from repro.core.session import CouplingSession
    from repro.faults.injector import FaultInjector
    from repro.instrument import events as instrument_events
    from repro.instrument import packer
    from repro.iosim.file import SimFile
    from repro.iosim.filesystem import ParallelFS
    from repro.iosim.sionlib import SionFile
    from repro.mpi.communicator import Comm
    from repro.mpi.launcher import MPMDLauncher
    from repro.mpi.pmpi import Interceptor
    from repro.mpi.world import ProgramAPI, World
    from repro.network.cluster import Cluster
    from repro.obs.bus import ObservabilityBus
    from repro.simt.kernel import Kernel
    from repro.steering.controller import SteeringController
    from repro.telemetry import export as telemetry_export
    from repro.telemetry.core import Telemetry
    from repro.telemetry.metrics import Counter, Gauge, HistogramMetric
    from repro.telemetry.monitor import HealthMonitor
    from repro.telemetry.popmetrics import PopMetricsEngine
    from repro.telemetry.provenance import FlowRegistry
    from repro.telemetry.spans import Span
    from repro.vmpi import mapping
    from repro.vmpi.stream import VMPIStream

    c = tr.counters

    def count(key: str, amount: int = 1) -> Callable:
        def hook(*_ignored):
            c[key] += amount
        return hook

    def subclasses(base: type) -> list[type]:
        found = []
        for cls in base.__subclasses__():
            found.append(cls)
            found.extend(subclasses(cls))
        return found

    # simt: the dispatch loop.  events_dispatched is read off the kernel
    # around each run, so the count is the kernel's own, exact.
    def events_before(args):
        return args[0].events_dispatched

    def events_after(_t0, args, _result, before):
        c["simt.events"] += args[0].events_dispatched - before

    tr._patch(Kernel, "run", "simt", pre=events_before, post=events_after)
    tr._patch(Kernel, "spawn", "simt", post=count("simt.processes"))

    # Periodic kernel hooks are how the observer planes ride the simulation.
    raw_call_every = vars(Kernel)["call_every"]

    def call_every(self, interval, fn, **kwargs):
        hooked = tr.wrap_plain(fn, "planes", f"planes.hook.{getattr(fn, '__qualname__', 'fn')}")
        return raw_call_every(self, interval, hooked, **kwargs)

    tr._set(Kernel, "call_every", call_every, raw_call_every)

    # mpi
    for attr in ("isend", "send", "irecv", "recv", "sendrecv", "iprobe", "wait", "waitall"):
        tr._patch(Comm, attr, "mpi")
    for attr in (
        "barrier", "bcast", "reduce", "allreduce", "gather", "allgather", "scatter",
        "alltoall", "reduce_scatter", "split", "dup",
    ):
        tr._patch(Comm, attr, "mpi", on_call=count("mpi.coll_calls"))
    # Every public send, and the stream layer directly, starts a message here.
    tr._patch(Comm, "_raw_isend", "mpi", on_call=count("mpi.p2p_calls"))
    for attr in ("init", "finalize", "compute", "compute_flops", "waitany", "posix"):
        tr._patch(ProgramAPI, attr, "mpi")
    tr._patch(MPMDLauncher, "launch", "mpi")

    def stream_totals(_t0, args, _result, _token):
        for _rank, stream in args[0].streams:
            stats = stream.stats()
            c["vmpi.blocks_written"] += stats["blocks_written"]
            c["vmpi.blocks_read"] += stats["blocks_read"]
            c["vmpi.write_stall_vs"] += stats["write_stall_s"]
            c["vmpi.read_wait_vs"] += stats["read_wait_s"]
            c["vmpi.eagain_returns"] += stats["eagain_returns"]
            c["vmpi.packs_dropped"] += stats["blocks_dropped"] + stats["injected_drops"]

    tr._patch(World, "run", "mpi", post=stream_totals)

    # network
    def transfer_bytes(_t0, args, _result, _token):
        c["network.transfers"] += 1
        c["network.bytes"] += args[3]

    tr._patch(Cluster, "transfer", "network", post=transfer_bytes)
    for attr in ("injection_eta", "degrade_node"):
        tr._patch(Cluster, attr, "network")

    # vmpi
    for attr in (
        "open_map", "open_ranks", "write", "read", "close", "fail_endpoint",
        "adopt_endpoint", "retarget_endpoint", "adopt_peer", "set_tamper", "stall_until",
    ):
        tr._patch(VMPIStream, attr, "vmpi")
    for attr in ("map_partitions", "remap_orphans"):
        tr._patch(mapping, attr, "vmpi")

    # instrument / baselines: PMPI interceptors by the package that defines them
    for cls in subclasses(Interceptor):
        layer = cls.__module__.split(".")[1]
        for attr in ("on_enter", "on_exit"):
            if attr in vars(cls) and layer in LAYERS:
                tr._patch(cls, attr, layer, proxy_generator_result=True)
    tr._patch(packer.EventPackBuilder, "add", "instrument", post=count("instrument.records"))
    tr._patch(packer.EventPackBuilder, "emit", "instrument", post=count("instrument.packs"))
    for attr in ("decode_pack", "decode_pack_frame", "verify_pack"):
        tr._patch(packer, attr, "instrument")
    tr._patch(instrument_events, "decode_events", "instrument")
    for attr in ("open", "record", "flush", "close"):
        tr._patch(TraceWriterState, attr, "baselines")

    # codec
    per_chain = tr.per_chain

    clock = tr.clock

    def encoded(t0, args, result, _token):
        dt = clock() - t0
        nbytes = len(args[1])
        c["codec.bytes_in"] += nbytes
        c["codec.bytes_wire"] += len(result.payload)
        entry = per_chain[args[0].spec]
        entry[0] += dt
        entry[1] += nbytes

    def decoded(t0, args, result, _token):
        dt = clock() - t0
        c["codec.bytes_decoded"] += len(result)
        entry = per_chain[args[0].spec]
        entry[2] += dt
        entry[3] += len(result)

    tr._patch(codec_stages.CodecChain, "encode", "codec", post=encoded)
    tr._patch(codec_stages.CodecChain, "decode", "codec", post=decoded)
    for attr in ("build_chain", "decode_chain"):
        tr._patch(codec_stages, attr, "codec")
    tr._patch(codec_frame, "build_frame", "codec", post=count("codec.frames"))
    for attr in ("parse_frame", "peek_header", "peek_provenance", "frame_content_size"):
        tr._patch(codec_frame, attr, "codec")

    # blackboard
    def board_seen(_t0, args, _result, _token):
        c["blackboard.entries"] += 1
        tr._boards[id(args[0])] = args[0]

    tr._patch(Blackboard, "submit", "blackboard", post=board_seen)
    tr._patch(Blackboard, "execute", "blackboard", post=count("blackboard.jobs"))
    for attr in ("run_until_idle", "register_type", "register_ks"):
        tr._patch(Blackboard, attr, "blackboard")
    tr._patch(MultiLevelBlackboard, "__init__", "blackboard")
    tr._patch(MultiLevelBlackboard, "submit_pack", "blackboard")

    # analysis
    def ingested(_t0, _args, accepted, _token):
        c["analysis.packs_ingested" if accepted else "analysis.packs_rejected"] += 1

    tr._patch(analysis_engine.AnalyzerEngine, "ingest", "analysis", post=ingested)
    for attr in ("__init__", "build_report", "merge_states", "enable_health_ingest"):
        tr._patch(analysis_engine.AnalyzerEngine, attr, "analysis")
    tr._patch(analysis_engine, "analyzer_program", "analysis")
    tr._patch(ProfileReport, "render", "analysis")
    for cls in (
        MPIProfile, CommMatrix, DensityMaps, WaitState, OTF2Proxy, AlertMonitor,
        LateSenderAnalysis,
    ):
        for attr in ("update", "merge"):
            if attr in vars(cls):
                tr._patch(cls, attr, "analysis")

    # iosim: every call is one modelled file-system operation
    for cls, attrs in (
        (ParallelFS, ("metadata_op", "raw_write", "raw_read", "open_file")),
        (SimFile, ("open", "write", "read", "close")),
        (SionFile, ("open_task", "write_task", "close_task")),
    ):
        for attr in attrs:
            hook = "on_call" if inspect.isgeneratorfunction(vars(cls)[attr]) else "post"
            tr._patch(cls, attr, "iosim", **{hook: count("iosim.ops")})

    # apps: program mains
    for cls in subclasses(AppKernel):
        if "main" in vars(cls):
            tr._patch(cls, "main", "apps")
    for attr in ("stream_writer_program", "stream_reader_program"):
        tr._patch(synthetic, attr, "apps")

    # core: the user-facing drivers
    for attr in ("run", "run_reference"):
        tr._patch(CouplingSession, attr, "core")
    for attr in ("compare_tools", "run_tool"):
        tr._patch(comparison, attr, "core")
    tr._patch(harness, "measure_overhead", "core")

    # planes: telemetry, obs, steering, faults.  Calls answered by the
    # disabled NULL_TELEMETRY singleton are counted apart and not timed:
    # "free when off" is judged on planes.calls, and planes.null_calls
    # shows the call sites that do not guard on ``tel.enabled``.
    def live_only(raw: Callable, wrapped: Callable) -> Callable:
        def method(self, *args, **kwargs):
            if self.enabled:
                return wrapped(self, *args, **kwargs)
            c["planes.null_calls"] += 1
            return raw(self, *args, **kwargs)
        return method

    for attr in ("counter", "gauge", "histogram", "span", "instant", "name_track"):
        raw = vars(Telemetry)[attr]
        wrapped = tr.wrap_plain(raw, "planes", f"planes.Telemetry.{attr}")
        tr._set(Telemetry, attr, live_only(raw, wrapped), raw)
    for attr in ("summary", "attach_flows"):
        tr._patch(Telemetry, attr, "planes")
    tr._patch(Counter, "inc", "planes")
    tr._patch(Gauge, "set", "planes")
    tr._patch(HistogramMetric, "observe", "planes")
    tr._patch(Span, "end", "planes")
    tr._patch(telemetry_export, "jsonl_records", "planes")

    def monitor_summary(_t0, args, _result, _token):
        c["planes.alerts"] += len(args[0].alerts)

    for attr in ("attach", "detach", "evaluate", "bind_blackboard"):
        tr._patch(HealthMonitor, attr, "planes")
    tr._patch(HealthMonitor, "summary", "planes", post=monitor_summary)
    for attr in ("add_sink", "bind_sources", "attach", "detach", "finalize", "summary"):
        tr._patch(PopMetricsEngine, attr, "planes")
    for attr in (
        "begin", "on_enqueue", "on_send", "on_arrive", "on_read", "on_dispatch",
        "on_done", "on_drop", "summary",
    ):
        tr._patch(FlowRegistry, attr, "planes")

    def bus_summary(_t0, args, _result, _token):
        c["planes.records_published"] += args[0].published
        c["planes.records_dropped"] += args[0].rejected + sum(
            binding.dropped + binding.errors for binding in args[0].bindings
        )

    for attr in ("add_sink", "publish", "publish_all", "close"):
        tr._patch(ObservabilityBus, attr, "planes")
    tr._patch(ObservabilityBus, "summary", "planes", post=bus_summary)

    def steering_summary(_t0, args, _result, _token):
        c["planes.decisions"] += len(args[0].decisions)

    for attr in ("attach", "detach", "on_alert", "finalize"):
        tr._patch(SteeringController, attr, "planes")
    tr._patch(SteeringController, "summary", "planes", post=steering_summary)

    def faults_summary(_t0, args, _result, _token):
        c["planes.faults_injected"] += args[0].injected

    # _fire is where a scheduled fault enters from the kernel's callback list.
    for attr in ("attach", "on_stream_open", "_fire", "dead_local_ranks"):
        tr._patch(FaultInjector, attr, "planes")
    tr._patch(FaultInjector, "summary", "planes", post=faults_summary)
