"""Host-time observability: wall-clock profiling of the simulator itself.

Everything else in :mod:`repro.telemetry` is stamped in **virtual kernel
seconds** — the time the *simulated* system experiences.  This module is
the second observability plane: low-overhead wall-clock accounting of the
simulator's own hot paths (the pure-Python loops that bound every figure
sweep), so optimization work starts from attributed evidence instead of
guesses.  The two planes never share a clock: virtual time flows through
:class:`~repro.telemetry.core.Telemetry`'s bound clock, host time flows
through :func:`host_now` — and every probe in the codebase draws from one
or the other, never both.

The plane has three pieces:

* **The host clock API** — :func:`host_now` / :func:`set_host_clock` /
  :func:`fake_host_clock`.  Every wall-clock probe in the repository
  (blackboard workers, job execution, analysis CPU attribution, bench
  elapsed timing, the :class:`Telemetry` fallback clock) reads this one
  clock, so a test can inject a fake and make host-time accounting
  deterministic.

* **:class:`HostProfiler`** — named :class:`HostTimer` accumulators
  (calls, wall seconds, items, bytes → items/s and MB/s), yield-aware
  :class:`HostSegment` timers for generator-based hot paths (the segment
  is *paused* across virtual-time waits so only straight-line Python cost
  is charged), coarse host spans, plus process-level signals: GC pause
  tracking via ``gc.callbacks``, optional ``tracemalloc`` peak, and RSS
  from ``/proc/self/status`` (``resource`` fallback).  Export is
  Chrome-trace or JSONL on the :data:`HOSTPROF_SCHEMA` tag so host traces
  sit alongside virtual-time traces without confusion.

* **The activation point** — :data:`ACTIVE` / :func:`profiled`.  Hot call
  sites (kernel dispatch loop, ``VMPIStream`` write/transit/read, codec
  chain encode/decode, EVF2 frame parse/emit, blackboard submit/execute,
  analyzer ingest) read ``hostprof.ACTIVE`` and pay one attribute load
  plus one branch when profiling is off (the default,
  :data:`NULL_HOSTPROF`).  Profiling is observation-only: simulation
  results are bit-identical with the profiler on or off, and the
  ``bench selfperf`` lane gates both that and the <5% overhead bar.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import time
import tracemalloc
from contextlib import contextmanager
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
            current = peak = 0
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    current = int(line.split()[1]) * 1024
                elif line.startswith(b"VmHWM:"):
                    peak = int(line.split()[1]) * 1024
            return current, peak
    except OSError:
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return peak, peak
    except Exception:  # pragma: no cover - exotic platforms
        return 0, 0


# -- accumulators ------------------------------------------------------------------


class HostTimer:
    """One named wall-clock accumulator: calls, seconds, items, bytes."""

    __slots__ = ("name", "calls", "total_s", "items", "nbytes", "max_s")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.items = 0
        self.nbytes = 0
        self.max_s = 0.0

    def add(self, dt: float, items: int = 1, nbytes: int = 0) -> None:
        self.calls += 1
        self.total_s += dt
        self.items += items
        self.nbytes += nbytes
        if dt > self.max_s:
            self.max_s = dt

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


class HostSegment:
    """Yield-aware timer for generator hot paths.

    A stream ``write()`` suspends at virtual-time waits; wall time spent
    there belongs to *other* simulated work, not to the write path.  The
    caller brackets each yield with :meth:`pause`/:meth:`resume` so the
    segment accumulates only straight-line Python cost, and closes with
    :meth:`done` to book the total into its timer.
    """

    __slots__ = ("timer", "_acc", "_t0")

    def __init__(self, timer: HostTimer):
        self.timer = timer
        self._acc = 0.0
        self._t0 = host_now()

    def pause(self) -> None:
        self._acc += host_now() - self._t0

    def resume(self) -> None:
        self._t0 = host_now()

    def done(self, items: int = 1, nbytes: int = 0) -> None:
        self.timer.add(self._acc + (host_now() - self._t0), items, nbytes)


class _HostSpan:
    """One coarse host-time span (run/row granularity, not per-event)."""

    __slots__ = ("name", "t0", "t1", "args")

    def __init__(self, name: str, t0: float, args: dict[str, Any] | None):
        self.name = name
        self.t0 = t0
        self.t1: float | None = None
        self.args = args


# -- the profiler ------------------------------------------------------------------


class HostProfiler:
    """Wall-clock profile of the simulator's own hot paths.

    Construct, :func:`activate` (or use :func:`profiled`), run, read
    :meth:`summary` / :meth:`write_chrome_trace` / :meth:`write_jsonl`.
    ``track_malloc=True`` additionally runs ``tracemalloc`` between
    :meth:`start` and :meth:`stop` and records the traced peak — useful
    but *not* overhead-free, so it stays opt-in and outside the
    ``bench selfperf`` overhead gate.
    """

    def __init__(self, *, enabled: bool = True, track_malloc: bool = False):
        self.enabled = enabled
        self.track_malloc = track_malloc
        self.timers: dict[str, HostTimer] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[_HostSpan] = []
        self.gc_pauses = 0
        self.gc_pause_total_s = 0.0
        self.gc_pause_max_s = 0.0
        self.gc_collections: dict[int, int] = {}
        self.malloc_peak_bytes: int | None = None
        self.rss_bytes = 0
        self.rss_peak_bytes = 0
        self.t_start: float | None = None
        self.t_stop: float | None = None
        self._gc_t0: float | None = None
        self._gc_cb: Callable | None = None
        self._own_tracemalloc = False

    # -- instruments ---------------------------------------------------------------

    def now(self) -> float:
        return host_now()

    def timer(self, name: str) -> HostTimer:
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = HostTimer(name)
        return timer

    def segment(self, name: str) -> HostSegment:
        """Open a yield-aware segment charging into ``timer(name)``."""
        return HostSegment(self.timer(name))

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

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Begin process-level capture: GC callback, RSS, optional malloc."""
        if self.t_start is not None:
            return
        self.t_start = host_now()

        def on_gc(phase: str, info: dict) -> None:
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

        self._gc_cb = on_gc
        gc.callbacks.append(on_gc)
        if self.track_malloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._own_tracemalloc = True

    def stop(self) -> None:
        """End capture; safe to call more than once."""
        if self.t_start is None or self.t_stop is not None:
            return
        self.t_stop = host_now()
        if self._gc_cb is not None:
            try:
                gc.callbacks.remove(self._gc_cb)
            except ValueError:  # pragma: no cover - external tampering
                pass
            self._gc_cb = None
        if self.track_malloc and tracemalloc.is_tracing():
            _current, peak = tracemalloc.get_traced_memory()
            self.malloc_peak_bytes = peak
            if self._own_tracemalloc:
                tracemalloc.stop()
        self.rss_bytes, self.rss_peak_bytes = _rss_bytes()

    @property
    def elapsed_s(self) -> float:
        if self.t_start is None:
            return 0.0
        return (self.t_stop if self.t_stop is not None else host_now()) - self.t_start

    # -- summaries -----------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Everything reduced to plain dicts, on the hostprof schema tag."""
        return {
            "schema": HOSTPROF_SCHEMA,
            "host": host_environment(),
            "elapsed_s": self.elapsed_s,
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
                "malloc_peak_bytes": self.malloc_peak_bytes,
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
        base = self.t_start if self.t_start is not None else 0.0
        events: list[dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": HOST_PID,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"host profiler [{HOSTPROF_SCHEMA}]"},
            }
        ]
        for span in self.spans:
            t1 = span.t1 if span.t1 is not None else host_now()
            args = dict(span.args or {})
            args["schema"] = HOSTPROF_SCHEMA
            events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": "hostprof",
                    "pid": HOST_PID,
                    "tid": 0,
                    "ts": (span.t0 - base) * 1e6,
                    "dur": (t1 - span.t0) * 1e6,
                    "args": args,
                }
            )
        events.append(
            {
                "ph": "i",
                "name": "hostprof.summary",
                "cat": "hostprof",
                "pid": HOST_PID,
                "tid": 0,
                "ts": self.elapsed_s * 1e6,
                "s": "p",
                "args": {
                    "schema": HOSTPROF_SCHEMA,
                    "timers": {n: t.as_dict() for n, t in sorted(self.timers.items())},
                    "counts": dict(sorted(self.counts.items())),
                },
            }
        )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
        return str(path)

    def jsonl_records(self) -> list[dict[str, Any]]:
        """Self-describing one-object-per-line export (``jq``-friendly)."""
        base = self.t_start if self.t_start is not None else 0.0
        records: list[dict[str, Any]] = [
            make_record(
                HOSTPROF_SCHEMA,
                "meta",
                host=host_environment(),
                elapsed_s=self.elapsed_s,
            )
        ]
        for name, timer in sorted(self.timers.items()):
            records.append(
                make_record(HOSTPROF_SCHEMA, "timer", name=name, **timer.as_dict())
            )
        for name, value in sorted(self.counts.items()):
            records.append(
                make_record(HOSTPROF_SCHEMA, "count", name=name, value=value)
            )
        for span in self.spans:
            t1 = span.t1 if span.t1 is not None else host_now()
            records.append(
                make_record(
                    HOSTPROF_SCHEMA,
                    "span",
                    name=span.name,
                    t0_s=span.t0 - base,
                    dur_s=t1 - span.t0,
                    args=span.args,
                )
            )
        summary = self.summary()
        records.append(make_record(HOSTPROF_SCHEMA, "gc", **summary["gc"]))
        records.append(make_record(HOSTPROF_SCHEMA, "process", **summary["process"]))
        return records

    def write_jsonl(self, path: str) -> str:
        return write_records(path, self.jsonl_records())


#: Shared disabled instance: what every hot call site sees by default.
NULL_HOSTPROF = HostProfiler(enabled=False)

#: The process-wide active profiler.  Hot paths read ``hostprof.ACTIVE``
#: afresh on each entry (module attribute, not a cached import) so
#: activation mid-process reaches every layer.
ACTIVE: HostProfiler = NULL_HOSTPROF


def activate(profiler: HostProfiler) -> HostProfiler:
    """Install ``profiler`` as the process-wide active host profiler."""
    global ACTIVE
    if ACTIVE is not NULL_HOSTPROF:
        raise RuntimeError("a host profiler is already active; deactivate() it first")
    if not profiler.enabled:
        raise ValueError("cannot activate a disabled HostProfiler")
    profiler.start()
    ACTIVE = profiler
    return profiler


def deactivate() -> HostProfiler:
    """Stop and uninstall the active profiler; returns it for inspection."""
    global ACTIVE
    profiler = ACTIVE
    if profiler is not NULL_HOSTPROF:
        profiler.stop()
        ACTIVE = NULL_HOSTPROF
    return profiler


@contextmanager
def profiled(profiler: HostProfiler | None = None, **kwargs: Any):
    """Scoped activation: ``with hostprof.profiled() as hp: ...``."""
    hp = profiler if profiler is not None else HostProfiler(**kwargs)
    activate(hp)
    try:
        yield hp
    finally:
        if ACTIVE is hp:
            deactivate()
