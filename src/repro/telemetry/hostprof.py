"""Host-time observability: wall-clock profiling of the simulator itself.

Everything else in :mod:`repro.telemetry` is stamped in **virtual kernel
seconds** — the time the *simulated* system experiences.  This module is
the second observability plane: wall-clock accounting of the simulator's
own hot paths (the pure-Python loops that bound every figure sweep), so
optimization work starts from attributed evidence instead of guesses.
The two planes never share a clock: virtual time flows through
:class:`~repro.telemetry.core.Telemetry`'s bound clock, host time flows
through :func:`host_now`, and every reading draws from one or the other.

The plane has three pieces:

* **The host clock API** — :func:`host_now` / :func:`set_host_clock` /
  :func:`fake_host_clock`.  Every wall-clock reading in the repository
  (blackboard workers, job execution, analysis CPU attribution, bench
  elapsed timing, the :class:`Telemetry` fallback clock) reads this one
  clock, so a test can inject a fake and make host time deterministic.

* **:class:`HostProfiler`** — named :class:`HostTimer` accumulators
  (calls, wall seconds, items, bytes → items/s and MB/s), coarse host
  spans, GC pauses via ``gc.callbacks`` and RSS from
  ``/proc/self/status``; exported as a Chrome trace or as JSONL on the
  :data:`HOSTPROF_SCHEMA` tag, apart from the virtual-time traces.

* **Interposition** — :func:`activate` / :func:`profiled`.  The profiler
  measures the simulator the way the simulator measures MPI: from
  outside.  Activation replaces the :data:`ENTRY_POINTS` with timing
  wrappers and deactivation puts every original back, so no simulation
  module carries a probe.  One clock and a stack of running timers book
  every instant between start and stop exactly once — entering a wrapped
  call charges the time since the last transition to whoever was
  running, leaving charges it to the callee — so ``total_s`` is
  *exclusive* and the timers plus ``unattributed_s`` sum to
  ``elapsed_s``.  Generator entry points are proxied per resume: a
  stream ``write()`` is charged while its frame runs, never while it
  waits on virtual time.  Profiling is observation-only: results are
  bit-identical with it on or off (``bench selfperf`` gates that and the
  <5% overhead bar).  What outside-in cannot see — callbacks bound
  before activation, other threads, anything below an entry point — is
  listed in DESIGN.md §11.
"""

from __future__ import annotations

import gc
import inspect
import json
import os
import pkgutil
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, wraps
from threading import get_ident
from typing import Any, Callable

from repro.obs.registry import HOSTPROF_SCHEMA, make_record
from repro.obs.sinks import write_records

#: Chrome-trace process row for host-time data — far beyond any simulated
#: rank pid, so a host trace merged next to a virtual trace cannot collide.
HOST_PID = 10_000

# -- the host clock ----------------------------------------------------------------

_CLOCK: Callable[[], float] = time.perf_counter


def host_now() -> float:
    """The wall-clock instant, in seconds, from the injectable host clock."""
    return _CLOCK()


def set_host_clock(clock: Callable[[], float] | None) -> Callable[[], float]:
    """Swap the process-wide host clock; returns the previous one.

    ``None`` restores the default (``time.perf_counter``).  Tests should
    prefer the :func:`fake_host_clock` context manager, which restores
    automatically.
    """
    global _CLOCK
    previous = _CLOCK
    _CLOCK = clock if clock is not None else time.perf_counter
    return previous


@contextmanager
def fake_host_clock(clock: Callable[[], float]):
    """Scoped clock injection: every host-time probe reads ``clock`` inside."""
    previous = set_host_clock(clock)
    try:
        yield clock
    finally:
        set_host_clock(previous)


def host_environment() -> dict[str, Any]:
    """The host fingerprint stamped on bench artefacts for comparability."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def _rss_bytes() -> tuple[int, int]:
    """Current and peak resident set size in bytes (0, 0 when unreadable)."""
    try:
        with open("/proc/self/status", "rb") as fh:
            kib = {ln.split()[0]: int(ln.split()[1]) for ln in fh if ln.startswith(b"Vm")}
        return kib.get(b"VmRSS:", 0) * 1024, kib.get(b"VmHWM:", 0) * 1024
    except OSError:
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return peak, peak
    except Exception:  # pragma: no cover - exotic platforms
        return 0, 0


# -- accumulators ------------------------------------------------------------------


@dataclass(slots=True)
class HostTimer:
    """One named wall-clock accumulator: calls, seconds, items, bytes.

    Time enters only through the profiler's transitions, so the timers
    stay summable; ``max_s`` is the longest uninterrupted stretch.
    """

    name: str
    calls: int = 0
    total_s: float = 0.0
    items: int = 0
    nbytes: int = 0
    max_s: float = 0.0

    @property
    def items_per_s(self) -> float:
        return self.items / self.total_s if self.total_s > 0 else 0.0

    @property
    def mb_per_s(self) -> float:
        return self.nbytes / self.total_s / 1e6 if self.total_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "max_s": self.max_s,
            "items": self.items,
            "bytes": self.nbytes,
            "items_per_s": self.items_per_s,
            "mb_per_s": self.mb_per_s,
        }


@dataclass(slots=True)
class _HostSpan:
    """One coarse host-time span (run/row granularity, not per-event)."""

    name: str
    t0: float
    args: dict[str, Any] | None
    t1: float | None = None

    def dur_s(self) -> float:
        """Seconds covered so far: up to now while the span is still open."""
        return (self.t1 if self.t1 is not None else host_now()) - self.t0


# -- the entry-point table ---------------------------------------------------------
#
# One row per boundary through which control crosses into a hot layer:
# ``(target, timer, before, meter)``, ``target`` being ``module:path`` inside
# the ``repro`` package and naming a plain function on its owner.  When the
# call returns, ``meter(args, result, token)`` gives the ``(items, nbytes)``
# to book, read off the arguments, the result and the counters the layers
# keep anyway; ``token`` is ``before(args)``, sampled at entry (plain
# functions only).  A call that raises books its time and its call, nothing
# else.


def _kernel_meter(args, _result, before):
    # Everything a simulation does runs inside this drain, so items over
    # the exclusive total_s is the dispatch loop's own events per second.
    kernel = args[0]
    dispatched = kernel.events_dispatched - before[0]
    ACTIVE.count("kernel.heap_pushes", kernel._seq - before[1])
    ACTIVE.count("kernel.heap_pops", dispatched)
    return dispatched, 0


ENTRY_POINTS: tuple[tuple[str, str, Callable | None, Callable], ...] = (
    ("simt.kernel:Kernel.run", "kernel.dispatch",
     lambda a: (a[0].events_dispatched, a[0]._seq), _kernel_meter),
    # write() returns the bytes written (0: the block was dropped on the way);
    # _on_block gets the completion event, whose value is the block's Status;
    # read() returns (nbytes, payload), nbytes <= 0 for EOF and EAGAIN.
    ("vmpi.stream:VMPIStream.write", "stream.write", None, lambda a, n, _: (1, n) if n else (0, 0)),
    ("vmpi.stream:VMPIStream._on_block", "stream.transit",
     None, lambda a, r, _: (1, a[1].value.nbytes)),
    ("vmpi.stream:VMPIStream.read", "stream.read",
     None, lambda a, r, _: (1, r[0]) if r[0] > 0 else (0, 0)),
    # MB/s over *content* bytes: the records into encode, out of decode.
    ("codec.stages:CodecChain.encode", "codec.encode", None, lambda a, r, _: (1, len(a[1]))),
    ("codec.stages:CodecChain.decode", "codec.decode", None, lambda a, r, _: (1, len(r))),
    ("codec.frame:build_frame", "frame.emit", None, lambda a, blob, _: (1, len(blob))),
    ("codec.frame:parse_frame", "frame.parse", None, lambda a, r, _: (1, len(a[0]))),
    # Control-system scheduling cost: items are the jobs the fan-out pushed.
    ("blackboard.board:Blackboard.submit", "blackboard.submit", lambda a: a[0].queues.pushed,
     lambda a, entry, pushed: (a[0].queues.pushed - pushed, entry.size)),
    ("blackboard.board:Blackboard.execute", "blackboard.execute", None, lambda a, r, _: (1, 0)),
    # ingest() returns False for a rejected pack: a call, not an item.
    ("analysis.engine:AnalyzerEngine.ingest", "analysis.ingest",
     None, lambda a, ok, _: (1, len(a[1])) if ok else (0, 0)),
)


def resolve_entry_point(target: str) -> tuple[Any, str, Callable]:
    """``(owner, attribute, function)`` of one :data:`ENTRY_POINTS` target."""
    module, _, path = target.partition(":")
    owner_path, _, attr = path.rpartition(".")
    owner = pkgutil.resolve_name(f"repro.{module}:{owner_path}")
    raw = vars(owner).get(attr)
    if not inspect.isfunction(raw):
        raise AttributeError(f"host profiler target {target} is not a plain function")
    return owner, attr, raw


# -- the profiler ------------------------------------------------------------------


class HostProfiler:
    """Wall-clock profile of the simulator's own hot paths.

    Construct, :func:`activate` (or use :func:`profiled`), run, read
    :meth:`summary` / :meth:`write_chrome_trace` / :meth:`write_jsonl`.
    A profiler is single-use: its books close at :meth:`stop`.
    """

    def __init__(self) -> None:
        self.timers: dict[str, HostTimer] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[_HostSpan] = []
        self.gc_pauses = 0
        self.gc_pause_total_s = 0.0
        self.gc_pause_max_s = 0.0
        self.gc_collections: dict[int, int] = {}
        self.rss_bytes = 0
        self.rss_peak_bytes = 0
        self.t_start: float | None = None
        self.t_stop: float | None = None
        self._gc_t0: float | None = None
        # Exclusive-time books: the timer charged for the current instant
        # (``unattributed`` whenever no entry point is on the stack) and
        # the time of the last transition.
        self.unattributed = HostTimer("unattributed")
        self._running = self.unattributed
        self._last = 0.0
        self._thread = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- instruments ---------------------------------------------------------------

    def timer(self, name: str) -> HostTimer:
        return self.timers.setdefault(name, HostTimer(name))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str, **args: Any):
        """Coarse host-time span (bench row, session run) for the trace."""
        span = _HostSpan(name, host_now(), args or None)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.t1 = host_now()

    # -- interposition -------------------------------------------------------------

    def _switch(self, timer: HostTimer) -> HostTimer:
        """Charge the time since the last transition to whoever was
        running, make ``timer`` the running one, return the previous."""
        now = _CLOCK()
        running = self._running
        dt = now - self._last
        running.total_s += dt
        if dt > running.max_s:
            running.max_s = dt
        self._last = now
        self._running = timer
        return running

    def _wrap(self, orig: Callable, timer: HostTimer, before, meter) -> Callable:
        """The timing wrapper for one entry point.

        A call on a thread other than the activating one, or one that
        outlives the activation (a callback bound while it lasted), passes
        straight through: the layer stack belongs to one thread of control.
        """
        # The wrappers call no helper but this one: in situ each frame costs ~1 µs.
        switch = self._switch

        def call(*args, **kwargs):
            if ACTIVE is not self or get_ident() != self._thread:
                return orig(*args, **kwargs)
            timer.calls += 1
            caller = switch(timer)
            try:
                token = before(args) if before is not None else None
                result = orig(*args, **kwargs)
                items, nbytes = meter(args, result, token)
                timer.items += items
                timer.nbytes += nbytes
                return result
            finally:
                # Sampled last, so the wrapper's own bookkeeping is charged
                # to the callee it times, not to the caller.
                switch(caller)

        def drive(gen, args):
            # PEP 380 delegation with a transition around every resume: the
            # wrapped generator runs only between a send/throw and its next
            # yield, and only that stretch is charged to it.
            step, arg = gen.send, None
            while True:
                timed = ACTIVE is self and get_ident() == self._thread
                if timed:
                    caller = switch(timer)
                try:
                    waitable = step(arg)
                except StopIteration as stop:
                    if timed:
                        items, nbytes = meter(args, stop.value, None)
                        timer.items += items
                        timer.nbytes += nbytes
                    return stop.value
                finally:
                    if timed:
                        switch(caller)
                try:
                    arg = yield waitable
                    step = gen.send
                except BaseException as exc:  # Process.interrupt, a failed event, close()
                    step, arg = gen.throw, exc

        def call_generator(*args, **kwargs):
            gen = orig(*args, **kwargs)
            if ACTIVE is not self or get_ident() != self._thread:
                return gen
            timer.calls += 1
            return drive(gen, args)

        return wraps(orig)(call_generator if inspect.isgeneratorfunction(orig) else call)

    def _install(self) -> None:
        """Wrap every :data:`ENTRY_POINTS` target; rebind every alias.

        A module that did ``from repro.codec.frame import parse_frame``
        holds its own reference to the original; those are found by
        identity and rebound to the wrapper as well.
        """
        try:
            rebound: dict[int, Callable] = {}
            for target, name, before, after in ENTRY_POINTS:
                owner, attr, raw = resolve_entry_point(target)
                wrapped = self._wrap(raw, self.timer(name), before, after)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                if inspect.ismodule(owner):
                    rebound[id(raw)] = wrapped
            # Aliases are rebound inside the package only.
            for module in [m for name, m in sys.modules.items() if name.startswith("repro.")]:
                for key, value in list(vars(module).items()):
                    if id(value) in rebound:
                        self._restore.append((module, key, value))
                        setattr(module, key, rebound[id(value)])
        except BaseException:
            self._uninstall()
            raise

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Open the books and begin process-level capture (GC pauses)."""
        self._thread = get_ident()
        self._last = self.t_start = host_now()
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = host_now()
        elif phase == "stop" and self._gc_t0 is not None:
            pause = host_now() - self._gc_t0
            self._gc_t0 = None
            self.gc_pauses += 1
            self.gc_pause_total_s += pause
            if pause > self.gc_pause_max_s:
                self.gc_pause_max_s = pause
            gen = info.get("generation", -1)
            self.gc_collections[gen] = self.gc_collections.get(gen, 0) + 1

    def _settle(self) -> None:
        """Bring the books of a running profiler up to this instant.

        A reading taken mid-run (a session publishing its teardown records
        from inside ``profiled()``) charges the stretch since the last
        transition and samples RSS, so it sums like one taken after stop.
        """
        if self.t_start is not None and self.t_stop is None:
            self._switch(self._running)
            self.rss_bytes, self.rss_peak_bytes = _rss_bytes()

    def stop(self) -> None:
        """Close the books and end capture; a second call changes nothing."""
        if self.t_start is not None and self.t_stop is None:
            self._settle()
            self.t_stop = self._last
            gc.callbacks.remove(self._on_gc)

    @property
    def elapsed_s(self) -> float:
        if self.t_start is None:
            return 0.0
        return (self.t_stop if self.t_stop is not None else host_now()) - self.t_start

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Plain dicts on the hostprof schema tag; timers + unattributed = elapsed."""
        self._settle()
        return {
            "schema": HOSTPROF_SCHEMA,
            "host": host_environment(),
            # what the books cover: start to the last transition
            "elapsed_s": self._last - self.t_start if self.t_start is not None else 0.0,
            "unattributed_s": self.unattributed.total_s,
            "timers": {n: t.as_dict() for n, t in sorted(self.timers.items())},
            "counts": dict(sorted(self.counts.items())),
            "gc": {
                "pauses": self.gc_pauses,
                "pause_total_s": self.gc_pause_total_s,
                "pause_max_s": self.gc_pause_max_s,
                "collections": {str(k): v for k, v in sorted(self.gc_collections.items())},
            },
            "process": {
                "rss_bytes": self.rss_bytes,
                "rss_peak_bytes": self.rss_peak_bytes,
            },
        }

    # -- export --------------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """Host spans and timer totals as a Chrome trace on the host row.

        Host timestamps are relative to :meth:`start` (the host clock's
        epoch is arbitrary), scaled to microseconds.  Every event carries
        the schema tag in its args so a merged virtual+host trace stays
        unambiguous.
        """
        summary = self.summary()
        base = self.t_start if self.t_start is not None else 0.0

        def event(ph: str, name: str, ts: float, args: dict, **fields: Any) -> dict[str, Any]:
            return {"ph": ph, "name": name, "pid": HOST_PID, "tid": 0, "ts": ts,
                    "args": args, **fields}

        tagged = {"schema": HOSTPROF_SCHEMA}
        totals = {"timers": summary["timers"], "counts": summary["counts"]}
        events = [
            event("M", "process_name", 0, {"name": f"host profiler [{HOSTPROF_SCHEMA}]"}),
            *(
                event("X", sp.name, (sp.t0 - base) * 1e6, {**(sp.args or {}), **tagged},
                      cat="hostprof", dur=sp.dur_s() * 1e6)
                for sp in self.spans
            ),
            event("i", "hostprof.summary", summary["elapsed_s"] * 1e6, {**tagged, **totals},
                  cat="hostprof", s="p"),
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
        return str(path)

    def jsonl_records(self) -> list[dict[str, Any]]:
        """Self-describing one-object-per-line export (``jq``-friendly)."""
        summary = self.summary()
        base = self.t_start if self.t_start is not None else 0.0
        record = partial(make_record, HOSTPROF_SCHEMA)
        meta = {key: summary[key] for key in ("host", "elapsed_s", "unattributed_s")}
        return [
            record("meta", **meta),
            *(record("timer", name=name, **t) for name, t in summary["timers"].items()),
            *(record("count", name=name, value=v) for name, v in summary["counts"].items()),
            *(
                record("span", name=sp.name, t0_s=sp.t0 - base, dur_s=sp.dur_s(), args=sp.args)
                for sp in self.spans
            ),
            record("gc", **summary["gc"]),
            record("process", **summary["process"]),
        ]

    def write_jsonl(self, path: str) -> str:
        return write_records(path, self.jsonl_records())


#: The process-wide active profiler, or None.  While one is active the
#: :data:`ENTRY_POINTS` targets are its wrappers; nothing else reads this
#: but a session's teardown, which publishes the active profile.
ACTIVE: HostProfiler | None = None


def activate(profiler: HostProfiler) -> HostProfiler:
    """Install ``profiler``'s wrappers and make it the active host profiler."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("a host profiler is already active; deactivate() it first")
    if profiler.t_start is not None:
        raise RuntimeError("this HostProfiler already ran; its books are closed")
    profiler._install()
    profiler.start()
    ACTIVE = profiler
    return profiler


def deactivate() -> HostProfiler | None:
    """Stop the active profiler and put every original back; returns it."""
    global ACTIVE
    profiler = ACTIVE
    if profiler is not None:
        ACTIVE = None
        profiler._uninstall()  # first: the originals go back even if the clock raises
        profiler.stop()
    return profiler


@contextmanager
def profiled(profiler: HostProfiler | None = None):
    """Scoped activation: ``with hostprof.profiled() as hp: ...``."""
    hp = activate(profiler if profiler is not None else HostProfiler())
    try:
        yield hp
    finally:
        if ACTIVE is hp:
            deactivate()
