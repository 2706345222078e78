#!/usr/bin/env python
"""Hot-path invariant lint: clock discipline, zero-copy decode, loop-free codec,
lean per-event functions, one derivation per pack, observers paid per read,
pure delays as floats, host-time profiling from outside, one observer clock,
one schema table, analysis state keyed by the ranks seen, lean per-pack
functions, one schedule.

Thirteen structural rules the hot-path refactors rely on, enforced over the
AST so comments and strings never trip them:

1. **Clock discipline** — ``time.perf_counter`` (and its ``_ns``
   variant) may only be referenced inside ``telemetry/hostprof.py``.
   Every other module must go through the hostprof plane, otherwise its
   timings escape the self-overhead accounting that the selfperf gate
   budgets (<5%), and virtual-time code could silently couple to the
   host clock.

2. **Zero-copy decode paths** — the EVF2 decode-path functions in
   ``codec/frame.py`` (the one structural walk ``_walk`` and its header
   read ``_header_fields``, and the four readers built on them:
   ``parse_frame``, ``peek_header``, ``peek_provenance``,
   ``frame_content_size``) must never call ``bytes(...)``: a ``bytes()``
   call on a memoryview slice is a hidden copy, which is exactly what the
   zero-copy parse contract (DESIGN 14) forbids.  Encode-side code
   (``to_bytes``, ``build_frame``, ``materialize``) may copy freely.  A
   listed function that no longer exists is itself a violation, so the
   walk cannot be renamed (or a reader retired) out of the rule silently.

3. **Loop-free reduction stages** — inside ``codec/stages.py`` the stage
   hooks (``encode_records``, ``decode_records``, ``encode_columnar``,
   ``decode_columnar``) and the varint/zigzag helpers (any function named
   ``*varint*``, ``*zigzag*`` or ``*group_shifts*``) contain no ``for`` or
   ``while`` statement, comprehension, generator expression or
   ``.tolist()`` call:
   stages are array ops over the record buffer (DESIGN 9), and a
   per-record Python loop is exactly the cliff that rule keeps shut.  The
   scalar reference lives in ``tests/`` and is not scanned.

4. **Lean per-event functions** — the functions every kernel event and
   every point-to-point message runs through (``Process._resume``,
   ``SimEvent.__init__``,
   ``Timeout.__init__``, ``SimEvent.succeed/fail/succeed_after``,
   ``_Condition/AllOf/AnyOf.__init__``, ``Resource.acquire/release``,
   ``Mailbox.post/deliver/_complete``, ``PostedRecv._arrived``,
   ``PMPIStack._intercepted`` and ``StreamingInstrumentation.around`` /
   ``_capture`` (what ``around`` is bound to while interceptors are
   attached), ``Cluster.transfer``, ``Comm._raw_isend``, the MPI join
   ``Join.__init__/_on_child`` and the ``post`` hooks ``_matched`` /
   ``_received_total`` — module functions, listed under the class ``""``)
   contain no f-string or ``str.format`` call, no comprehension or
   generator expression, and no
   ``sum(`` / one-argument ``min(`` / ``max(`` over a container — so
   per-message name formatting and O(communicators) rescans cannot creep
   back (DESIGN 14).  ``raise`` statements are exempt: the error path may
   format its message.  A listed function that no longer exists is itself
   a violation, so a rename cannot silently retire the rule.

5. **One derivation per pack** — under ``analysis/`` the modules read the
   per-pack ``EventBatch`` (``analysis/batch.py``, DESIGN 14) instead of
   re-deriving what they share.  Inside any ``update`` method there:
   ``np.isin(``, ``np.unique(`` applied to the call column and
   ``np.array(sorted(`` (the per-call id table rebuilt on every pack) are
   errors; ``t_end - t_start`` is computed in ``batch.py`` and nowhere else
   in the package.  Inside ``batch.py`` itself, ``bincount(..., weights=)``
   and ``np.add.reduceat`` over ``durations`` are errors: both add
   sequentially, numpy's ``.sum()`` adds pairwise, and the report hash
   depends on the last bit of those float sums.

6. **Observers paid per read** — inside the ``while`` body of
   ``Kernel._dispatch`` there is no ``.inc(`` / ``.set(`` / ``.observe(``
   call outside the ``if self.trace`` debug branch: the kernel's instruments
   are brought up to date where an observer can look (before hooks fire,
   when the loop exits), never once per event (DESIGN 11) — and no
   ``self.events_dispatched +=`` either: the counter itself is a local of
   the loop, written back at those same points.  And the records
   built once per intercepted call or matched message (``PER_CALL_RECORDS``:
   ``CallRecord``, ``Status``) are not ``@dataclass(frozen=True)``, whose
   generated ``__init__`` pays one ``object.__setattr__`` per field; they
   are tuples (DESIGN 14).  A listed name that no longer exists is itself a
   violation.

7. **Pure delays are floats** — outside ``simt/`` no ``yield`` hands the
   kernel a ``Timeout(...)`` or ``<expr>.timeout(...)`` built on the spot:
   a process that only waits out a delay yields the float and is its own
   heap entry (DESIGN 14).  An event object is for composing
   (``any_of([slot, kernel.timeout(wait)])``) or for callbacks, and is then
   not the operand of the ``yield``.

8. **Host time is profiled from outside** — under the simulation packages
   (``simt/ mpi/ vmpi/ codec/ blackboard/ analysis/ instrument/ network/
   iosim/``) the only name imported from ``repro.telemetry.hostprof`` is
   ``host_now`` (where job CPU is charged to a telemetry histogram), the
   module itself is not imported, and nothing reads ``hostprof.ACTIVE``:
   the host profiler interposes on the entry points it lists
   (``hostprof.ENTRY_POINTS``, DESIGN 11), so a probe written into a layer
   is a second mechanism for the same number.

9. **One observer clock, one ring** — under ``src/repro`` a
   ``.call_every(`` call appears only in ``telemetry/monitor.py`` (the
   session's fast tick, which the steering relax pass rides as an
   ``after_tick`` subscriber) and ``telemetry/popmetrics.py`` (the window
   close), and ``Timeline(`` is constructed only in
   ``telemetry/monitor.py``: a plane that wants to run every tick
   subscribes to the monitor, and one that wants a window's rates
   differences the live counters between its own two closes (DESIGN 12) —
   a third hook or a second ring of samples is a second clock.

10. **One schema table** — under ``src/repro`` a string literal that is a
    schema tag (``"repro.<family>/<n>"``) appears only in
    ``obs/registry.py``: every plane imports its tag constant from there,
    so a bump happens in one place and :func:`repro.obs.registry.screen`
    judges every record against the same table (DESIGN 13).  Prose that
    mentions a tag inside a longer string (a docstring, help text) is not
    a tag literal.

11. **Analysis state keyed by the ranks seen** — under ``analysis/`` no
    ``np.zeros`` / ``np.full`` / ``np.empty`` / ``np.ones`` call sized by
    ``app_size`` sits in an ``__init__``, ``update`` or ``merge``: every
    analyzer rank runs those, and a vector over all application ranks there
    makes analysis memory O(analyzer ranks x application ranks) where each
    rank serves a few.  Per-rank state is a dict keyed by the ranks seen;
    the vector over every rank is built in a query method, on the root
    (DESIGN 14).  When the tree holds the analysis package, each module of
    ``RANK_KEYED_MODULES`` must exist: a listed module that is gone is
    itself a violation, so a rename cannot retire the rule silently.

12. **Lean per-pack functions** — the functions every pack passes through
    on the analyzer side (``Blackboard.submit/execute/run_until_idle``,
    ``JobQueues.push_many/try_pop``, ``KnowledgeSource.offer``,
    ``MultiLevelBlackboard._dispatch/_level_of`` and
    ``AnalyzerEngine.ingest``) contain no f-string or ``str.format`` call
    and no comprehension or generator expression: they run a fixed number
    of times per pack, and a name formatted or a container rebuilt there
    is ceremony every pack pays (DESIGN 14).  ``raise`` statements are
    exempt.  A listed function that no longer exists is itself a
    violation, as in rule 4.

13. **One schedule** — under ``src/repro`` ``heappush`` / ``heappop`` are
    imported, and another object's ``._heap`` or ``._ready`` (the kernel's
    heap and FIFO: ``kernel._heap``, ``self.kernel._ready``) is referenced,
    only in ``simt/kernel.py``, ``simt/primitives.py`` and
    ``simt/process.py``.  The kernel's order argument (DESIGN 14) rests on
    every schedule site sending an entry due now to the FIFO and a later one
    to the heap, and on the loop alone moving entries between them; a push
    made elsewhere, at ``now``, would land behind entries with higher seqs.
    A class's own ``self._ready`` (a stream's received blocks) is its own.

Exit status 0 when clean; 1 with one ``path:line: message`` per
violation otherwise.  Run from the repository root::

    python scripts/check_hotpath_invariants.py

An optional argument overrides the source root (used by the tests).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: the only module allowed to touch the host clock directly
CLOCK_OWNER = Path("repro") / "telemetry" / "hostprof.py"

#: module holding the zero-copy decode paths
FRAME_MODULE = Path("repro") / "codec" / "frame.py"

#: frame.py functions that must stay copy-free (the decode paths)
DECODE_PATH_FUNCTIONS = frozenset(
    {
        "_walk",
        "_header_fields",
        "parse_frame",
        "peek_header",
        "peek_provenance",
        "frame_content_size",
    }
)

#: module holding the reduction stages
STAGES_MODULE = Path("repro") / "codec" / "stages.py"

#: stages.py stage hooks that must never walk records in Python
STAGE_HOOKS = frozenset(
    {"encode_records", "decode_records", "encode_columnar", "decode_columnar"}
)

#: ... and its helpers, matched by name fragment so that a scalar
#: ``_encode_varints`` beside ``_pack_varints`` is caught too
VECTOR_HELPER_MARKERS = ("varint", "zigzag", "group_shifts")


def _is_vector_function(name: str) -> bool:
    return name in STAGE_HOOKS or any(mark in name for mark in VECTOR_HELPER_MARKERS)


#: module -> class -> the methods that run once per event / per message;
#: the class ``""`` holds module-level functions
PER_EVENT_FUNCTIONS = {
    Path("repro") / "simt" / "process.py": {"Process": {"_resume"}},
    Path("repro") / "simt" / "primitives.py": {
        "SimEvent": {"__init__", "succeed", "fail", "succeed_after"},
        "Timeout": {"__init__"},
        "_Condition": {"__init__"},
        "AllOf": {"__init__"},
        "AnyOf": {"__init__"},
    },
    Path("repro") / "simt" / "resources.py": {"Resource": {"acquire", "release"}},
    Path("repro") / "mpi" / "message.py": {
        "Mailbox": {"post", "deliver", "_complete"},
        "PostedRecv": {"_arrived"},
    },
    Path("repro") / "mpi" / "pmpi.py": {"PMPIStack": {"_intercepted"}},
    Path("repro") / "instrument" / "interceptor.py": {
        "StreamingInstrumentation": {"around", "_capture"},
    },
    Path("repro") / "network" / "cluster.py": {"Cluster": {"transfer"}},
    Path("repro") / "mpi" / "communicator.py": {
        "Comm": {"_raw_isend"},
        "": {"_matched", "_received_total"},
    },
    Path("repro") / "mpi" / "request.py": {"Join": {"__init__", "_on_child"}},
}

#: module -> class -> the functions every pack runs through on the analyzer
#: side (rule 12)
PER_PACK_FUNCTIONS = {
    Path("repro") / "blackboard" / "board.py": {
        "Blackboard": {"submit", "execute", "run_until_idle"},
    },
    Path("repro") / "blackboard" / "jobs.py": {"JobQueues": {"push_many", "try_pop"}},
    Path("repro") / "blackboard" / "ks.py": {"KnowledgeSource": {"offer"}},
    Path("repro") / "blackboard" / "multilevel.py": {
        "MultiLevelBlackboard": {"_dispatch", "_level_of"},
    },
    Path("repro") / "analysis" / "engine.py": {"AnalyzerEngine": {"ingest"}},
}

#: module holding the dispatch loop
KERNEL_MODULE = Path("repro") / "simt" / "kernel.py"

#: instrument writes the dispatch loop must not make once per event
INSTRUMENT_WRITES = frozenset({"inc", "set", "observe"})

#: package that may build a Timeout where it yields one (it defines them)
KERNEL_PACKAGE = Path("repro") / "simt"

#: packages the host profiler observes from outside (rule 8)
SIMULATION_PACKAGES = frozenset(
    {"simt", "mpi", "vmpi", "codec", "blackboard", "analysis", "instrument", "network", "iosim"}
)

#: the hostprof module, and the one name of it a simulation module may import
HOSTPROF_MODULE = "repro.telemetry.hostprof"
HOSTPROF_ALLOWED = frozenset({"host_now"})

#: the modules that may register a kernel hook, and the one that may own a
#: ring of samples (rule 9)
HOOK_OWNERS = frozenset(
    {Path("repro") / "telemetry" / "monitor.py", Path("repro") / "telemetry" / "popmetrics.py"}
)
TIMELINE_OWNER = Path("repro") / "telemetry" / "monitor.py"

#: the one module that may spell a schema tag (rule 10)
SCHEMA_OWNER = Path("repro") / "obs" / "registry.py"
SCHEMA_TAG = re.compile(r"repro\.[a-z][a-z0-9_-]*/[0-9]+")

#: module -> the value records built once per intercepted call / message
PER_CALL_RECORDS = {
    Path("repro") / "mpi" / "pmpi.py": {"CallRecord"},
    Path("repro") / "mpi" / "status.py": {"Status"},
}

#: package whose ``update`` methods read the shared per-pack batch
ANALYSIS_PACKAGE = Path("repro") / "analysis"

#: the one module allowed to derive the shared columns
BATCH_MODULE = ANALYSIS_PACKAGE / "batch.py"

#: the modules holding per-rank analysis state (rule 11)
RANK_KEYED_MODULES = frozenset(
    ANALYSIS_PACKAGE / f"{name}.py"
    for name in ("profiler", "topology", "density", "waitstate", "otf2proxy", "alerts", "latesender")
)

#: the methods every analyzer rank runs, and the allocators of a dense vector
STATE_METHODS = frozenset({"__init__", "update", "merge"})
DENSE_ALLOCATORS = frozenset({"zeros", "full", "empty", "ones"})

#: reductions that walk a container when given one argument
_CONTAINER_REDUCTIONS = frozenset({"sum", "min", "max"})

#: AST nodes that iterate element by element
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

#: the modules that may touch the kernel's schedule (rule 13)
SCHEDULE_OWNERS = frozenset(
    Path("repro") / "simt" / f"{name}.py" for name in ("kernel", "primitives", "process")
)
SCHEDULE_FUNCTIONS = frozenset({"heappush", "heappop"})
SCHEDULE_ATTRS = frozenset({"_heap", "_ready"})

#: forbidden host-clock attribute names on the ``time`` module
CLOCK_NAMES = frozenset({"perf_counter", "perf_counter_ns"})


def _check_clock_discipline(tree: ast.AST, rel: Path) -> list[str]:
    """Flag any reachable reference to time.perf_counter outside hostprof."""
    problems = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CLOCK_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            problems.append(
                f"{rel}:{node.lineno}: time.{node.attr} outside "
                f"{CLOCK_OWNER} — route host timings through the "
                "hostprof plane"
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCK_NAMES:
                    problems.append(
                        f"{rel}:{node.lineno}: from time import "
                        f"{alias.name} outside {CLOCK_OWNER} — route "
                        "host timings through the hostprof plane"
                    )
    return problems


def _check_decode_paths(tree: ast.AST, rel: Path) -> list[str]:
    """Flag bytes(...) calls inside frame.py's decode-path functions."""
    problems = []
    missing = set(DECODE_PATH_FUNCTIONS)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in DECODE_PATH_FUNCTIONS:
            continue
        missing.discard(node.name)
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "bytes"
            ):
                problems.append(
                    f"{rel}:{sub.lineno}: bytes() call inside decode-path "
                    f"function {node.name}() — decode must stay zero-copy "
                    "(materialize()/to_bytes() are the sanctioned copies)"
                )
    for name in sorted(missing):
        problems.append(
            f"{rel}:1: decode-path function {name}() not found — "
            "update DECODE_PATH_FUNCTIONS if it moved or was renamed"
        )
    return problems


def _check_vector_stages(tree: ast.AST, rel: Path) -> list[str]:
    """Flag per-record iteration inside stages.py's stage hooks and helpers."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_vector_function(node.name):
            continue
        for sub in ast.walk(node):
            if isinstance(sub, _LOOP_NODES):
                what = type(sub).__name__
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "tolist"
            ):
                what = ".tolist() call"
            else:
                continue
            problems.append(
                f"{rel}:{sub.lineno}: {what} inside vector-stage function "
                f"{node.name}() — stages are array ops over the record "
                "buffer, never a per-record Python loop"
            )
    return problems


def _walk_outside(node: ast.AST, skip):
    """``ast.walk`` that does not descend into children ``skip(child)`` picks."""
    todo = [node]
    while todo:
        current = todo.pop()
        yield current
        todo.extend(
            child for child in ast.iter_child_nodes(current) if not skip(child)
        )


def _is_raise(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise)


def _is_trace_branch(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and _mentions(node.test, "trace")


def _formatting_or_comprehension(node: ast.AST) -> str | None:
    if isinstance(node, ast.JoinedStr):
        return "f-string"
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return type(node).__name__
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "format":
            return "str.format() call"
    return None


def _per_event_offence(node: ast.AST) -> str | None:
    what = _formatting_or_comprehension(node)
    if what is None and isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _CONTAINER_REDUCTIONS:
            over_container = len(node.args) == 1 or any(
                isinstance(arg, ast.Starred) for arg in node.args
            )
            if func.id == "sum" or over_container:
                return f"{func.id}() over a container"
    return what


def _check_listed_functions(
    tree: ast.AST, rel: Path, wanted: dict[str, set[str]], offence, kind: str, table: str
) -> list[str]:
    """Flag ``offence`` nodes outside ``raise`` in the functions ``wanted`` lists."""
    problems = []
    missing = {(cls, fn) for cls, fns in wanted.items() for fn in fns}
    scopes = [("", tree.body)] + [
        (cls.name, cls.body)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in wanted
    ]
    for cls_name, body in scopes:
        for fn in body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in wanted.get(cls_name, ()):
                continue
            missing.discard((cls_name, fn.name))
            for sub in _walk_outside(fn, _is_raise):
                what = offence(sub)
                if what is not None:
                    problems.append(
                        f"{rel}:{sub.lineno}: {what} inside per-{kind} function "
                        f"{per_event_label(cls_name, fn.name)}() — it runs once per "
                        f"{_RUNS_ONCE_PER[kind]}; precompute it, or keep a running value"
                    )
    for cls_name, fn_name in sorted(missing):
        problems.append(
            f"{rel}:1: per-{kind} function {per_event_label(cls_name, fn_name)}() not "
            f"found — update {table} if it moved or was renamed"
        )
    return problems


_RUNS_ONCE_PER = {"event": "kernel event or message", "pack": "pack on the analyzer side"}


def _check_per_event_functions(
    tree: ast.AST, rel: Path, wanted: dict[str, set[str]]
) -> list[str]:
    """Flag formatting, comprehensions and container scans per event/message."""
    return _check_listed_functions(
        tree, rel, wanted, _per_event_offence, "event", "PER_EVENT_FUNCTIONS"
    )


def _check_per_pack_functions(
    tree: ast.AST, rel: Path, wanted: dict[str, set[str]]
) -> list[str]:
    """Flag formatting and comprehensions in the per-pack functions."""
    return _check_listed_functions(
        tree, rel, wanted, _formatting_or_comprehension, "pack", "PER_PACK_FUNCTIONS"
    )


def per_event_label(cls_name: str, fn_name: str) -> str:
    """``Class.method``, or the bare name of a module-level function."""
    return f"{cls_name}.{fn_name}" if cls_name else fn_name


def _mentions(node: ast.AST, name: str) -> bool:
    """True when ``node`` reads ``name`` as a variable, attribute or field."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == name:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == name:
            return True
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.slice, ast.Constant)
            and sub.slice.value == name
        ):
            return True
    return False


def _called_attr(node: ast.AST) -> str | None:
    """``attr`` of a ``<something>.attr(...)`` call, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _update_offence(node: ast.AST) -> str | None:
    attr = _called_attr(node)
    if attr == "isin":
        return "np.isin() call"
    if attr == "unique" and node.args and _mentions(node.args[0], "call"):
        return "np.unique() over the call column"
    if (
        attr == "array"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "sorted"
    ):
        return "np.array(sorted(...)) id table"
    return None


def _check_analysis_updates(tree: ast.AST, rel: Path) -> list[str]:
    """Flag per-pack re-derivations in ``update`` methods under analysis/."""
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "update":
            for sub in ast.walk(node):
                what = _update_offence(sub)
                if what is not None:
                    problems.append(
                        f"{rel}:{sub.lineno}: {what} inside {node.name}() — read "
                        "EventBatch.groups / a call_lut() table; the per-pack "
                        "derivation happens once, in analysis/batch.py"
                    )
        if (
            rel != BATCH_MODULE
            and isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and _mentions(node.left, "t_end")
            and _mentions(node.right, "t_start")
        ):
            problems.append(
                f"{rel}:{node.lineno}: t_end - t_start outside {BATCH_MODULE} — "
                "read EventBatch.durations"
            )
    return problems


def _check_batch_float_sums(tree: ast.AST, rel: Path) -> list[str]:
    """Flag sequential float sums in batch.py (the rounding trap)."""
    problems = []
    for node in ast.walk(tree):
        attr = _called_attr(node)
        if attr == "bincount" and any(kw.arg == "weights" for kw in node.keywords):
            what = "bincount(..., weights=)"
        elif (
            attr == "reduceat"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "add"
            and any(_mentions(arg, "durations") for arg in node.args)
        ):
            what = "np.add.reduceat over durations"
        else:
            continue
        problems.append(
            f"{rel}:{node.lineno}: {what} in {BATCH_MODULE} — it adds "
            "sequentially where .sum() adds pairwise; float sums take one "
            ".sum() per contiguous slice of the stably sorted column"
        )
    return problems


def _check_rank_keyed_state(tree: ast.AST, rel: Path) -> list[str]:
    """Flag a vector over every application rank built in a state method."""
    problems = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in STATE_METHODS:
            continue
        for node in ast.walk(fn):
            attr = _called_attr(node)
            if attr not in DENSE_ALLOCATORS or not _mentions(node.func.value, "np"):
                continue
            shape = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "shape")]
            if any(_mentions(arg, "app_size") for arg in shape):
                problems.append(
                    f"{rel}:{node.lineno}: np.{attr}() sized by app_size inside "
                    f"{fn.name}() — key per-rank state by the ranks seen and build "
                    "the vector over every rank in a query method"
                )
    return problems


def _check_dispatch_loop(tree: ast.AST, rel: Path) -> list[str]:
    """Flag per-event instrument writes in ``Kernel._dispatch``'s loop."""
    problems = []
    loops = [
        loop
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "Kernel"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "_dispatch"
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While)
    ]
    if not loops:
        problems.append(
            f"{rel}:1: dispatch loop (a while inside Kernel._dispatch) not found — "
            "update the lint if it moved or was renamed"
        )
    for loop in loops:
        for sub in _walk_outside(loop, _is_trace_branch):
            attr = _called_attr(sub)
            if attr in INSTRUMENT_WRITES:
                problems.append(
                    f"{rel}:{sub.lineno}: .{attr}() call inside the dispatch loop — "
                    "it runs once per kernel event; sync the instrument where an "
                    "observer can look (before hooks fire, when the loop exits)"
                )
            elif (
                isinstance(sub, ast.AugAssign)
                and isinstance(sub.target, ast.Attribute)
                and sub.target.attr == "events_dispatched"
            ):
                problems.append(
                    f"{rel}:{sub.lineno}: events_dispatched updated on the kernel inside "
                    "the dispatch loop — count in a local; write it back before hooks "
                    "fire and when the loop exits"
                )
    return problems


def _check_pure_delays(tree: ast.AST, rel: Path) -> list[str]:
    """Flag ``yield Timeout(...)`` / ``yield <expr>.timeout(...)``."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Yield) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        if isinstance(func, ast.Name) and func.id == "Timeout":
            what = "Timeout(...)"
        elif isinstance(func, ast.Attribute) and func.attr in ("timeout", "Timeout"):
            what = f"<expr>.{func.attr}(...)"
        else:
            continue
        problems.append(
            f"{rel}:{node.lineno}: yield {what} — a pure delay is a float "
            "(yield the seconds); build an event object only to compose it or "
            "to hang a callback on it"
        )
    return problems


def _check_no_inline_hostprof(tree: ast.AST, rel: Path) -> list[str]:
    """Flag a simulation module reaching for the host profiler."""
    problems = []
    for node in ast.walk(tree):
        found = None
        if isinstance(node, ast.ImportFrom) and node.module == HOSTPROF_MODULE:
            extra = sorted({alias.name for alias in node.names} - HOSTPROF_ALLOWED)
            if extra:
                found = f"imports {', '.join(extra)} from {HOSTPROF_MODULE}"
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.telemetry":
            if any(alias.name == "hostprof" for alias in node.names):
                found = "imports the hostprof module"
        elif isinstance(node, ast.Import):
            if any(alias.name == HOSTPROF_MODULE for alias in node.names):
                found = "imports the hostprof module"
        elif isinstance(node, ast.Attribute) and node.attr == "ACTIVE":
            if _mentions(node.value, "hostprof") or _mentions(node.value, "_hostprof"):
                found = "reads hostprof.ACTIVE"
        if found:
            problems.append(
                f"{rel}:{node.lineno}: {found} — simulation modules carry no host-time "
                "probe (only host_now, for job CPU); add the entry point to "
                "hostprof.ENTRY_POINTS instead"
            )
    return problems


def _check_one_observer_clock(tree: ast.AST, rel: Path) -> list[str]:
    """Flag a kernel hook or a sample ring outside the modules that own them."""
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_method = isinstance(func, ast.Attribute)
        called = func.attr if is_method else getattr(func, "id", None)
        if is_method and called == "call_every" and rel not in HOOK_OWNERS:
            problems.append(
                f"{rel}:{node.lineno}: .call_every() call — the monitor's tick is the "
                "one fast clock; subscribe to HealthMonitor.after_tick instead of "
                "registering another kernel hook"
            )
        elif called == "Timeline" and rel != TIMELINE_OWNER:
            problems.append(
                f"{rel}:{node.lineno}: Timeline() constructed — the monitor's timeline "
                "is the one ring of samples; difference the live counters between "
                "two closes instead of keeping a second ring"
            )
    return problems


def _check_schema_tags(tree: ast.AST, rel: Path) -> list[str]:
    """Flag a schema-tag string literal outside the schema table."""
    return [
        f"{rel}:{node.lineno}: schema tag {node.value!r} spelled out — import "
        "its constant from repro.obs.registry, the one schema table"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and SCHEMA_TAG.fullmatch(node.value)
    ]


def _is_frozen_dataclass(decorator: ast.AST) -> bool:
    return (
        isinstance(decorator, ast.Call)
        and _mentions(decorator.func, "dataclass")
        and any(
            kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value
            for kw in decorator.keywords
        )
    )


def _check_per_call_records(tree: ast.AST, rel: Path, wanted: set[str]) -> list[str]:
    """Flag frozen-dataclass construction cost on the per-call records."""
    problems = []
    missing = set(wanted)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name not in wanted:
            continue
        missing.discard(cls.name)
        if any(_is_frozen_dataclass(dec) for dec in cls.decorator_list):
            problems.append(
                f"{rel}:{cls.lineno}: per-call record {cls.name} is a frozen dataclass — "
                "its __init__ pays one object.__setattr__ per field on every "
                "intercepted call; keep it a NamedTuple"
            )
    for name in sorted(missing):
        problems.append(
            f"{rel}:1: per-call record {name} not found — "
            "update PER_CALL_RECORDS if it moved or was renamed"
        )
    return problems


def _check_one_schedule(tree: ast.AST, rel: Path) -> list[str]:
    """Flag a schedule push/pop or a schedule container outside the kernel."""
    problems = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.ImportFrom) and node.module == "heapq":
            found = sorted({alias.name for alias in node.names} & SCHEDULE_FUNCTIONS)
            if found:
                what = f"imports {', '.join(found)} from heapq"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in SCHEDULE_ATTRS
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            what = f"references <expr>.{node.attr}"
        if what:
            problems.append(
                f"{rel}:{node.lineno}: {what} — the kernel's schedule is touched only "
                "in simt/kernel.py, primitives.py and process.py; schedule through "
                "an event (succeed, timeout) or a yielded delay"
            )
    return problems


def check_tree(src_root: Path) -> list[str]:
    """All invariant violations under ``src_root`` (a ``src/`` directory)."""
    problems = []
    seen = set()
    for path in sorted(src_root.rglob("*.py")):
        rel = path.relative_to(src_root)
        seen.add(rel)
        tree = ast.parse(path.read_text(), filename=str(path))
        if rel != CLOCK_OWNER:
            problems.extend(_check_clock_discipline(tree, rel))
        if rel == FRAME_MODULE:
            problems.extend(_check_decode_paths(tree, rel))
        if rel == STAGES_MODULE:
            problems.extend(_check_vector_stages(tree, rel))
        if rel in PER_EVENT_FUNCTIONS:
            problems.extend(_check_per_event_functions(tree, rel, PER_EVENT_FUNCTIONS[rel]))
        if rel in PER_PACK_FUNCTIONS:
            problems.extend(_check_per_pack_functions(tree, rel, PER_PACK_FUNCTIONS[rel]))
        if rel == KERNEL_MODULE:
            problems.extend(_check_dispatch_loop(tree, rel))
        if KERNEL_PACKAGE not in rel.parents:
            problems.extend(_check_pure_delays(tree, rel))
        if rel in PER_CALL_RECORDS:
            problems.extend(_check_per_call_records(tree, rel, PER_CALL_RECORDS[rel]))
        if ANALYSIS_PACKAGE in rel.parents:
            problems.extend(_check_analysis_updates(tree, rel))
            problems.extend(_check_rank_keyed_state(tree, rel))
        if rel == BATCH_MODULE:
            problems.extend(_check_batch_float_sums(tree, rel))
        if len(rel.parts) > 2 and rel.parts[0] == "repro" and rel.parts[1] in SIMULATION_PACKAGES:
            problems.extend(_check_no_inline_hostprof(tree, rel))
        if rel.parts[0] == "repro":
            problems.extend(_check_one_observer_clock(tree, rel))
            if rel not in SCHEDULE_OWNERS:
                problems.extend(_check_one_schedule(tree, rel))
            if rel != SCHEMA_OWNER:
                problems.extend(_check_schema_tags(tree, rel))
    if ANALYSIS_PACKAGE / "__init__.py" in seen:
        problems.extend(
            f"{rel}:1: rank-keyed analysis module not found — update "
            "RANK_KEYED_MODULES if it moved or was renamed"
            for rel in sorted(RANK_KEYED_MODULES - seen)
        )
    return problems


def main(argv: list[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    if not src_root.is_dir():
        print(f"source root {src_root} not found", file=sys.stderr)
        return 2
    problems = check_tree(src_root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} hot-path invariant violation(s)")
        return 1
    print(
        "hot-path invariants hold (clock discipline, zero-copy decode, "
        "loop-free codec, lean per-event functions, one derivation per pack, "
        "observers paid per read, pure delays as floats, host time profiled "
        "from outside, one observer clock, one schema table, analysis state "
        "keyed by the ranks seen, lean per-pack functions, one schedule)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
