#!/usr/bin/env python
"""Hot-path invariant lint: the per-event and per-pack paths stay lean.

Each invariant is a row of ``RULES``, checked over the AST (so comments and
strings never trip it) in one of three shapes: ``Owned`` (what the offence
matches appears only in the row's owners), ``Listed`` (the functions or classes
the row names hold no offence, and a listed name or module that is gone is a
violation) and ``Scoped`` (no offence in a package or module, or in the regions
the row picks out of it: a method kind, a loop).

A violation prints ``path:line: rule N: code — reason``.  Exit status 0 when
clean, 1 on any violation, 2 when the source root (default ``src``) is missing::

    python scripts/check_hotpath_invariants.py [SRC_ROOT]
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Iterable, Iterator

REPRO = Path("repro")
ANALYSIS = REPRO / "analysis"
SIMT = REPRO / "simt"
HOSTPROF_MODULE = "repro.telemetry.hostprof"
SCHEMA_TAG = re.compile(r"repro\.[a-z][a-z0-9_-]*/[0-9]+")
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
FORMATTING = (ast.JoinedStr, *COMPREHENSIONS, ast.Call)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SIMULATION_PACKAGES = "simt mpi vmpi codec blackboard analysis instrument network iosim".split()
RANK_KEYED_MODULES = "profiler topology density waitstate otf2proxy alerts latesender".split()
GONE = "not found (moved or renamed? update its row in RULES)"

Offence = Callable[[ast.AST], bool]
Region = tuple[str, ast.AST]  # (label, node)
Hits = Iterator[tuple[int, str]]  # (line, what)


@dataclass(slots=True)
class Module:
    """One parsed source file: its path under the source root and its nodes by type."""

    rel: Path
    tree: ast.Module
    nodes: dict[type, list[ast.AST]]

    def of(self, *kinds: type) -> list[ast.AST]:
        return [node for kind in kinds for node in self.nodes.get(kind, ())]


def _in(*packages: str) -> Callable[[Path], bool]:
    """Does a module sit, at any depth, in one of the packages ``repro/<package>``?"""
    roots = [REPRO / package for package in packages]
    return lambda rel: any(root in rel.parents for root in roots)


def _paths(*rels: str) -> frozenset[Path]:
    return frozenset(REPRO / rel for rel in rels)


def _names(table: dict[str, str]) -> dict[Path, frozenset[str]]:
    """``{"simt/process.py": "Process._resume ..."}`` keyed by path under ``src/``."""
    return {REPRO / rel: frozenset(names.split()) for rel, names in table.items()}


def _walk_outside(node: ast.AST, skip: Offence) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into children ``skip(child)`` picks."""
    todo = [node]
    while todo:
        current = todo.pop()
        yield current
        todo.extend(child for child in ast.iter_child_nodes(current) if not skip(child))


@dataclass(slots=True, kw_only=True)
class Rule:
    number: int
    title: str  # what the rule keeps; the success line lists the titles
    reason: str
    kinds: tuple[type, ...]  # the node types ``offence`` judges
    offence: Offence

    def absent(self, seen: set[Path]) -> Iterable[Path]:
        return ()  # listed modules the tree lacks: only a Listed row has any

    def format(self, rel: Path, line: int, what: str) -> str:
        return f"{rel}:{line}: rule {self.number}: {what} — {self.reason}"

    def _hits(self, nodes: Iterable[ast.AST], where: str = "") -> Hits:
        for node in nodes:
            if isinstance(node, self.kinds) and self.offence(node):
                code = ast.unparse(node).split("\n")[0]
                yield node.lineno, f"{code[:57]}...{where}" if len(code) > 60 else code + where


@dataclass(slots=True, kw_only=True)
class Owned(Rule):
    """Of the modules ``within`` covers, only ``owners`` may hold the offence."""

    owners: frozenset[Path] = frozenset()
    within: Callable[[Path], bool] = _in("")  # anywhere under repro/

    def evaluate(self, module: Module) -> Hits:
        if self.within(module.rel) and module.rel not in self.owners:
            yield from self._hits(module.of(*self.kinds))


@dataclass(slots=True, kw_only=True)
class Listed(Rule):
    """The definitions ``names`` lists (globs over ``find``'s labels) hold no offence
    outside ``skip``; a listed name, or a module of a present ``package``, must exist."""

    names: dict[Path, frozenset[str]]
    find: Callable[[Module], Iterable[Region]]
    skip: Offence = lambda node: False
    required: bool = True
    package: Path | None = None

    def evaluate(self, module: Module) -> Hits:
        wanted = self.names.get(module.rel)
        if wanted is None:
            return
        missing = set(wanted) if self.required else set()
        for label, definition in self.find(module):
            if any(fnmatchcase(label, pattern) for pattern in wanted):
                missing.discard(label)
                yield from self._hits(_walk_outside(definition, self.skip), f" in {label}")
        for label in sorted(missing):
            yield 1, f"{label} {GONE}"

    def absent(self, seen: set[Path]) -> Iterable[Path]:
        if self.package is not None and self.package / "__init__.py" in seen:
            return sorted(set(self.names) - seen)
        return ()


@dataclass(slots=True, kw_only=True)
class Scoped(Rule):
    """No offence in the modules ``within`` covers, or in the regions ``regions`` picks
    there (outside ``skip``); a module must have the region ``required`` names."""

    within: Callable[[Path], bool]
    regions: Callable[[Module], list[Region]] | None = None
    skip: Offence = lambda node: False
    required: str = ""

    def evaluate(self, module: Module) -> Hits:
        if not self.within(module.rel):
            return
        if self.regions is None:
            yield from self._hits(module.of(*self.kinds))
            return
        regions = self.regions(module)
        if self.required and not regions:
            yield 1, f"{self.required} {GONE}"
        for label, region in regions:
            yield from self._hits(_walk_outside(region, self.skip), f" inside {label}")


def _members(module: Module) -> Iterator[Region]:
    """Module-level functions by name; each class's own methods as ``Class.method``."""
    for fn in module.tree.body:
        if isinstance(fn, ast.FunctionDef):
            yield fn.name, fn
    for cls in module.of(ast.ClassDef):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                yield f"{cls.name}.{fn.name}", fn


def _anywhere(*kinds: type) -> Callable[[Module], list[Region]]:
    """Every definition of these node types, at any depth, by its bare name."""
    return lambda module: [(node.name, node) for node in module.of(*kinds)]


def _functions_named(*names: str) -> Callable[[Module], list[Region]]:
    return lambda module: [
        (f"{fn.name}()", fn) for fn in module.of(ast.FunctionDef) if fn.name in names
    ]


def _dispatch_loops(module: Module) -> list[Region]:
    return [
        ("the dispatch loop", loop)
        for label, fn in _members(module)
        if label == "Kernel._dispatch"
        for loop in ast.walk(fn)
        if isinstance(loop, ast.While)
    ]


def _mentions(node: ast.AST, name: str) -> bool:
    """True when ``node`` reads ``name`` as a variable, attribute or field."""
    return any(
        name in (getattr(sub, "id", None), getattr(sub, "attr", None))
        or (isinstance(sub, ast.Subscript) and getattr(sub.slice, "value", None) == name)
        for sub in ast.walk(node)
    )


def _called_attr(node: ast.AST) -> str | None:
    """``attr`` of a ``<something>.attr(...)`` call, else None."""
    return getattr(node.func, "attr", None) if isinstance(node, ast.Call) else None


def _called_name(node: ast.AST) -> str | None:
    """``name`` of a ``name(...)`` call, else None."""
    return getattr(node.func, "id", None) if isinstance(node, ast.Call) else None


def _imports(node: ast.AST, module: str) -> set[str]:
    """The names a ``from <module> import ...`` brings in (none for any other node)."""
    if isinstance(node, ast.ImportFrom) and node.module == module:
        return {alias.name for alias in node.names}
    return set()


def _host_clock(node: ast.Attribute | ast.ImportFrom) -> bool:
    clock = {"perf_counter", "perf_counter_ns"}
    if isinstance(node, ast.ImportFrom):
        return bool(_imports(node, "time") & clock)
    return node.attr in clock and isinstance(node.value, ast.Name) and node.value.id == "time"


def _formatting(node: ast.AST) -> bool:
    return isinstance(node, (ast.JoinedStr, *COMPREHENSIONS)) or _called_attr(node) == "format"


def _formatting_or_rescan(node: ast.AST) -> bool:
    name = _called_name(node)
    return _formatting(node) or name == "sum" or (
        name in ("min", "max")
        and (len(node.args) == 1 or any(isinstance(arg, ast.Starred) for arg in node.args))
    )


def _rederivation(node: ast.Call) -> bool:
    attr = _called_attr(node)
    return (
        attr == "isin"
        or (attr == "unique" and bool(node.args) and _mentions(node.args[0], "call"))
        or (attr == "array" and bool(node.args) and _called_name(node.args[0]) == "sorted")
    )


def _sequential_float_sum(node: ast.Call) -> bool:
    attr = _called_attr(node)
    return (attr == "bincount" and any(kw.arg == "weights" for kw in node.keywords)) or (
        attr == "reduceat"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "add"
        and any(_mentions(arg, "durations") for arg in node.args)
    )


def _instrument_write(node: ast.Call | ast.AugAssign) -> bool:
    if isinstance(node, ast.AugAssign):
        return isinstance(node.target, ast.Attribute) and node.target.attr == "events_dispatched"
    return _called_attr(node) in ("inc", "set", "observe")


def _dataclass_with(node: ast.ClassDef, flag: str) -> bool:
    """Is the class decorated ``@dataclass(..., <flag>=True)``?"""
    return any(
        isinstance(decorator, ast.Call)
        and _mentions(decorator.func, "dataclass")
        and any(
            kw.arg == flag and isinstance(kw.value, ast.Constant) and bool(kw.value.value)
            for kw in decorator.keywords
        )
        for decorator in node.decorator_list
    )


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    return _dataclass_with(node, "frozen")


def _unslotted(node: ast.ClassDef) -> bool:
    """A class that stores ``self.<name>`` with neither ``__slots__`` nor ``slots=True``."""
    slotted = _dataclass_with(node, "slots") or any(
        isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _mentions(stmt, "__slots__")
        for stmt in node.body
    )
    return not slotted and any(
        isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and getattr(sub.value, "id", None) == "self" for sub in ast.walk(node)
    )


def _host_probe(node: ast.ImportFrom | ast.Import | ast.Attribute) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == HOSTPROF_MODULE for alias in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "ACTIVE" and (
            _mentions(node.value, "hostprof") or _mentions(node.value, "_hostprof")
        )
    return bool(_imports(node, HOSTPROF_MODULE) - {"host_now"}) or (
        "hostprof" in _imports(node, "repro.telemetry")
    )


def _schedule_access(node: ast.ImportFrom | ast.Attribute) -> bool:
    if isinstance(node, ast.ImportFrom):
        return bool(_imports(node, "heapq") & {"heappush", "heappop"})
    return node.attr in ("_heap", "_ready") and not (
        isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def _dense_rank_vector(node: ast.Call) -> bool:
    if _called_attr(node) not in ("zeros", "full", "empty", "ones"):
        return False
    shape = [*node.args[:1], *(kw.value for kw in node.keywords if kw.arg == "shape")]
    return _mentions(node.func.value, "np") and any(_mentions(arg, "app_size") for arg in shape)


def _rederived(node: ast.Lambda | ast.Attribute | ast.Call | ast.Subscript) -> bool:
    """A closure built, or a stream / communicator fact looked up again, per block."""
    if isinstance(node, ast.Lambda):
        return True
    if isinstance(node, ast.Call):
        return "global_rank_of" in (_called_attr(node), _called_name(node))
    if isinstance(node, ast.Subscript):
        return _mentions(node.value, "rank_of_global")
    owner = getattr(node.value, "attr", getattr(node.value, "id", None))
    return (
        node.attr == "comm_universe"
        or (node.attr == "cost" and owner == "world")
        or (node.attr == "tag" and owner == "self" and isinstance(node.ctx, ast.Load))
    )


def _is_raise(node: ast.AST) -> bool:
    return isinstance(node, ast.Raise)


_PER_PACK = "one derivation per pack"
_OBSERVERS = "observers paid per read"
_RANK_KEYED = "analysis state keyed by the ranks seen"
_RANK_KEYED_WHY = "every analyzer rank runs it: key state by the ranks seen (DESIGN 14)"
_RUNS_ONCE_PER = "it runs once per {}: precompute it, or keep a running value (DESIGN 14)"

RULES: tuple[Owned | Listed | Scoped, ...] = (
    Owned(number=1, title="clock discipline", owners=_paths("telemetry/hostprof.py"),
          within=lambda rel: True, kinds=(ast.Attribute, ast.ImportFrom), offence=_host_clock,
          reason="host timings go through the hostprof plane, which the selfperf gate budgets"),
    Listed(number=2, title="zero-copy decode", find=_anywhere(*FUNCTIONS),
           names=_names({"codec/frame.py": "_walk _header_fields parse_frame peek_header "
                         "peek_provenance frame_content_size"}),
           kinds=(ast.Call,), offence=lambda node: _called_name(node) == "bytes",
           reason="a hidden copy on an EVF2 decode path; materialize() is the copy (DESIGN 14)"),
    Listed(number=3, title="loop-free codec", find=_anywhere(*FUNCTIONS),
           names=_names({"codec/stages.py": "encode_records decode_records encode_columnar "
                         "decode_columnar *varint* *zigzag* *group_shifts*"}),
           required=False, kinds=(ast.For, ast.AsyncFor, ast.While, *COMPREHENSIONS, ast.Call),
           offence=lambda node: not isinstance(node, ast.Call) or _called_attr(node) == "tolist",
           reason="stages are array ops over the record buffer, not per-record loops (DESIGN 9)"),
    Listed(number=4, title="lean per-event functions", find=_members, skip=_is_raise,
           names=_names({
               "simt/process.py": "Process._resume",
               "simt/primitives.py": "SimEvent.__init__ SimEvent.succeed SimEvent.fail "
               "SimEvent.succeed_after Timeout.__init__ _Condition.__init__ AllOf.__init__ "
               "AnyOf.__init__",
               "simt/resources.py": "Resource.acquire Resource.release",
               "mpi/message.py": "Mailbox.post Mailbox.deliver Mailbox._complete "
               "PostedRecv._arrived",
               "mpi/pmpi.py": "PMPIStack._intercepted",
               "instrument/interceptor.py": "StreamingInstrumentation.around "
               "StreamingInstrumentation._capture",
               "network/cluster.py": "Cluster.transfer",
               "mpi/communicator.py": "Comm._raw_isend _matched _received_total",
               "mpi/request.py": "Join.__init__ Join._on_child",
           }),
           kinds=FORMATTING, offence=_formatting_or_rescan,
           reason=_RUNS_ONCE_PER.format("kernel event or message")),
    Scoped(number=5, title=_PER_PACK, within=_in("analysis"), regions=_functions_named("update"),
           kinds=(ast.Call,), offence=_rederivation,
           reason="read EventBatch.groups or a call_lut() table, derived once per pack"),
    Scoped(number=5, title=_PER_PACK,
           within=lambda rel: ANALYSIS in rel.parents and rel != ANALYSIS / "batch.py",
           kinds=(ast.BinOp,), offence=lambda node: isinstance(node.op, ast.Sub)
           and _mentions(node.left, "t_end") and _mentions(node.right, "t_start"),
           reason="read EventBatch.durations: only analysis/batch.py computes it"),
    Scoped(number=5, title=_PER_PACK, within=lambda rel: rel == ANALYSIS / "batch.py",
           kinds=(ast.Call,), offence=_sequential_float_sum,
           reason="it adds sequentially, not pairwise as .sum() does: the report hash moves"),
    Scoped(number=6, title=_OBSERVERS, within=lambda rel: rel == SIMT / "kernel.py",
           regions=_dispatch_loops, required="the dispatch loop (a while in Kernel._dispatch)",
           skip=lambda node: isinstance(node, ast.If) and _mentions(node.test, "trace"),
           kinds=(ast.Call, ast.AugAssign), offence=_instrument_write,
           reason="once per kernel event: count in a local, sync where observers look (DESIGN 11)"),
    Listed(number=6, title=_OBSERVERS, find=_anywhere(ast.ClassDef), skip=lambda node: True,
           names=_names({"mpi/pmpi.py": "CallRecord", "mpi/status.py": "Status"}),
           kinds=(ast.ClassDef,), offence=_frozen_dataclass,
           reason="a per-call record pays a setattr per field: keep it a NamedTuple (DESIGN 14)"),
    Scoped(number=7, title="pure delays as floats", within=lambda rel: SIMT not in rel.parents,
           kinds=(ast.Yield,), offence=lambda node: _called_name(node.value) == "Timeout"
           or _called_attr(node.value) in ("timeout", "Timeout"),
           reason="a pure delay is a float; an event object is for composing or callbacks"),
    Owned(number=8, title="host time profiled from outside", within=_in(*SIMULATION_PACKAGES),
          kinds=(ast.ImportFrom, ast.Import, ast.Attribute), offence=_host_probe,
          reason="a simulation module carries no probe: list its entry in hostprof.ENTRY_POINTS"),
    Owned(number=9, title="one observer clock",
          owners=_paths("telemetry/monitor.py", "telemetry/popmetrics.py"),
          kinds=(ast.Call,), offence=lambda node: _called_attr(node) == "call_every",
          reason="the monitor's tick is the one fast clock: subscribe to its after_tick"),
    Owned(number=9, title="one observer clock", owners=_paths("telemetry/monitor.py"),
          kinds=(ast.Call,),
          offence=lambda node: "Timeline" in (_called_attr(node), _called_name(node)),
          reason="the monitor's timeline is the one ring of samples (DESIGN 12)"),
    Owned(number=10, title="one schema table", owners=_paths("obs/registry.py"),
          kinds=(ast.Constant,), offence=lambda node: isinstance(node.value, str)
          and SCHEMA_TAG.fullmatch(node.value) is not None,
          reason="import the tag's constant from repro.obs.registry (DESIGN 13)"),
    Scoped(number=11, title=_RANK_KEYED, within=_in("analysis"),
           regions=_functions_named("__init__", "update", "merge"),
           kinds=(ast.Call,), offence=_dense_rank_vector, reason=_RANK_KEYED_WHY),
    Listed(number=11, title=_RANK_KEYED, find=_members, package=ANALYSIS,
           names=_names({f"analysis/{name}.py": "" for name in RANK_KEYED_MODULES}),
           kinds=(), offence=lambda node: False, reason=_RANK_KEYED_WHY),
    Listed(number=12, title="lean per-pack functions", find=_members, skip=_is_raise,
           names=_names({
               "blackboard/board.py": "Blackboard.submit Blackboard.execute "
               "Blackboard.run_until_idle",
               "blackboard/jobs.py": "JobQueues.push_many JobQueues.try_pop",
               "blackboard/ks.py": "KnowledgeSource.offer",
               "blackboard/multilevel.py": "MultiLevelBlackboard._dispatch "
               "MultiLevelBlackboard._level_of",
               "analysis/engine.py": "AnalyzerEngine.ingest",
           }),
           kinds=FORMATTING, offence=_formatting,
           reason=_RUNS_ONCE_PER.format("pack on the analyzer side")),
    Owned(number=13, title="one schedule",
          owners=_paths("simt/kernel.py", "simt/primitives.py", "simt/process.py"),
          kinds=(ast.ImportFrom, ast.Attribute), offence=_schedule_access,
          reason="only the kernel's modules touch its heap and FIFO (DESIGN 14)"),
    Listed(number=14, title="resolved at open", find=_members, skip=_is_raise,
           names=_names({
               "vmpi/stream.py": "VMPIStream.write VMPIStream.read VMPIStream._on_block "
               "VMPIStream._consume VMPIStream._post_recv",
               "mpi/communicator.py": "Comm._raw_isend Comm._raw_irecv",
           }),
           kinds=(ast.Lambda, ast.Attribute, ast.Call, ast.Subscript), offence=_rederived,
           reason="it runs once per block or message: read what open() or __init__ "
           "resolved (DESIGN 14)"),
    Listed(number=15, title="per-rank state is slotted", find=_anywhere(ast.ClassDef),
           skip=lambda node: True,
           names=_names({
               "mpi/world.py": "RankContext ProgramAPI",
               "mpi/message.py": "Mailbox",
               "mpi/communicator.py": "Comm",
               "mpi/launcher.py": "RankProcess",
               "vmpi/stream.py": "VMPIStream",
               "instrument/interceptor.py": "StreamingInstrumentation",
               "instrument/packer.py": "EventPackBuilder",
               "blackboard/board.py": "Blackboard",
               "blackboard/jobs.py": "JobQueues",
               "blackboard/ks.py": "KnowledgeSource",
               "blackboard/multilevel.py": "MultiLevelBlackboard",
           }),
           kinds=(ast.ClassDef,), offence=_unslotted,
           reason="one per rank: an instance __dict__ costs more than its state; "
           "declare __slots__ (DESIGN 14)"),
)


def check_tree(src_root: Path) -> list[str]:
    """All invariant violations under ``src_root`` (a ``src/`` directory)."""
    problems, seen = [], set()
    for path in sorted(src_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nodes = defaultdict(list)
        for node in ast.walk(tree):
            nodes[type(node)].append(node)
        module = Module(path.relative_to(src_root), tree, nodes)
        seen.add(module.rel)
        for rule in RULES:
            problems.extend(rule.format(module.rel, *hit) for hit in rule.evaluate(module))
    for rule in RULES:
        problems.extend(rule.format(rel, 1, f"module {GONE}") for rel in rule.absent(seen))
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
    print(f"hot-path invariants hold ({', '.join(dict.fromkeys(r.title for r in RULES))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
