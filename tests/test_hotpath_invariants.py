"""The hot-path lint over a mutant corpus: each case, named after what it pins, plants
source trees (``rel -> text``) with the exact multiset of ``(path, line, rule)`` the lint
must report on each; then the real tree, the command line and the docs."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_hotpath_invariants.py"

sys.path.insert(0, str(REPO / "scripts"))

from check_hotpath_invariants import RULES, Listed, check_tree  # noqa: E402

#: rule number -> module -> the names its Listed row wants there
LISTS = {rule.number: rule.names for rule in RULES if isinstance(rule, Listed)}
FRAME, STAGES, KERNEL = "repro/codec/frame.py", "repro/codec/stages.py", "repro/simt/kernel.py"
PMPI, STATUS, COMM = "repro/mpi/pmpi.py", "repro/mpi/status.py", "repro/mpi/communicator.py"
CLUSTER, BOARD = "repro/network/cluster.py", "repro/blackboard/board.py"
STREAM = "repro/vmpi/stream.py"
VERDICT = re.compile(r"(.+?):(\d+): rule (\d+): ")


def _run(tmp_path, rows):
    for i, (files, hits) in enumerate(rows):
        root = tmp_path / str(i)
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        problems = check_tree(root)
        verdicts = [VERDICT.match(problem) for problem in problems]
        assert all(verdicts), problems
        assert Counter((m[1], int(m[2]), int(m[3])) for m in verdicts) == Counter(hits), problems


def case(name, build, params=None):
    """Bind corpus case ``name`` as a test: ``build(*p)`` gives the rows, ``(files,
    hits)`` pairs, of one test id per parameter tuple ``p``."""
    if params is None:
        def test(tmp_path):
            _run(tmp_path, build())
    else:
        params = [p if isinstance(p, tuple) else (p,) for p in params]
        @pytest.mark.parametrize("p", params, ids=["-".join(p) for p in params])
        def test(tmp_path, p):
            _run(tmp_path, build(*p))
    globals()[name] = test


def _end(text, snippet):
    """The line on which ``snippet`` ends inside ``text``."""
    snippet = snippet.rstrip("\n")
    return text[: text.index(snippet) + len(snippet)].count("\n") + 1


def _row(files, *hits):
    return [(files, list(hits))]


def _flag(rel, text, rule, *more):
    """One planted module, flagged by ``rule`` on its last line (plus ``more``)."""
    return _row({rel: text}, (rel, _end(text, text), rule), *more)


def _defined(text):
    """The ``name`` / ``Class.name`` labels of the functions ``text`` defines, and the
    names of its classes."""
    tree = ast.parse(text)
    return {fn.name for fn in tree.body if isinstance(fn, (ast.FunctionDef, ast.ClassDef))} | {
        f"{cls.name}.{fn.name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)}


def _gone(rel, *numbers, text=""):
    """The "not found" hits of ``rel`` planted as ``text`` for the names rules ``numbers``
    require (with no ``text``, as a module defining none of them)."""
    hits, defined = [], _defined(text)
    for rule in RULES:
        if rule.number not in numbers or not getattr(rule, "required", False):
            continue
        if isinstance(rule, Listed):
            hits += [(rel, 1, rule.number)] * len(rule.names.get(Path(rel), set()) - defined)
        elif rule.within(Path(rel)):  # a Scoped row's required region
            hits.append((rel, 1, rule.number))
    return hits


def _sites(number):
    """``(rel, class, function)`` of every function rule ``number`` lists."""
    return [(rel.as_posix(), *label.rpartition(".")[::2])
            for rel, labels in LISTS[number].items() for label in sorted(labels)]


def _stubs(number, rel, cls=None, fn=None, body="pass"):
    """``rel`` defining each function rule ``number`` lists there, ``cls.fn`` as ``body``."""
    lines = []
    for klass, name in sorted(label.rpartition(".")[::2] for label in LISTS[number][Path(rel)]):
        pad = "    " if klass else ""
        if klass and f"class {klass}:" not in lines:
            lines.append(f"class {klass}:")
        stmt = body if (klass, name) == (cls, fn) else "pass"
        lines.append(f"{pad}def {name}(self, x=None):\n{pad}    {stmt}")
    return "\n".join(lines) + "\n"


def _planted(number, rel, cls, fn, body, count=1):
    """Rule ``number``'s stubs of ``rel``, ``cls.fn`` flagged ``count`` times at ``body``."""
    text = _stubs(number, rel, cls, fn, body)
    return _row({rel: text}, *[(rel, _end(text, body), number)] * count)


# rule 1: clock discipline
case("test_flags_perf_counter_outside_hostprof", lambda: _flag(
    "repro/simt/rogue.py", "import time\n\ndef now():\n    return time.perf_counter()\n", 1))
case("test_flags_from_time_import_perf_counter",
     lambda: _flag("repro/vmpi/rogue.py", "from time import perf_counter\n", 1))
case("test_hostprof_itself_may_use_the_clock",
     lambda: _row({"repro/telemetry/hostprof.py": "import time\nCLOCK = time.perf_counter\n"}))


# rule 2: zero-copy decode
case("test_flags_bytes_in_decode_path", lambda: [  # encode-side to_bytes() may copy
    ({FRAME: files[FRAME] + "def to_bytes(blob):\n    return bytes(bytearray(4))\n"}, hits)
    for files, hits in _planted(2, FRAME, "", "parse_frame", "return bytes(blob)")])
case("test_other_modules_may_call_bytes", lambda: _row(
    {"repro/instrument/packer.py": "def parse_frame(blob):\n    return bytes(blob)\n"},
    *_gone("repro/instrument/packer.py", 15)))
case("test_every_decode_path_function_is_covered",
     lambda fn: _planted(2, FRAME, "", fn, "return bytes(blob)"),
     ["peek_header", "peek_provenance", "frame_content_size", "_header_fields", "_walk"])
case("test_a_renamed_decode_path_function_is_reported", lambda: [
    ({FRAME: _stubs(2, FRAME).replace("def _walk(", "def _walk_sections(")}, [(FRAME, 1, 2)]),
    ({FRAME: _stubs(2, FRAME)}, [])])
# rule 3: loop-free reduction stages
case("test_flags_per_record_iteration_in_stage_hooks", lambda name, body, _what: _flag(
    STAGES, f"class DeltaStage:\n    def {name}(self, col, ctx=None):\n        {body}\n", 3),
    [(name, body, what)
     for name in ("encode_records", "decode_records", "encode_columnar", "decode_columnar")
     for body, what in (("for v in col: pass", "For"), ("while col: col = col[1:]", "While"),
                        ("return [v for v in col]", "ListComp"),
                        ("return sum(v for v in col)", "GeneratorExp"),
                        ("return {v: 1 for v in col}", "DictComp"),
                        ("return col.times.tolist()", ".tolist() call"))])
case("test_flags_the_scalar_helpers_coming_back", lambda fn: _flag(
    STAGES, f"def {fn}(values):\n    return bytes(v & 0x7F for v in values)\n", 3),
    "_pack_varints _unpack_varints _encode_varints _group_shifts _zigzag _unzigzag".split())
case("test_loops_outside_the_vector_functions_are_allowed", lambda: _row({  # chain plumbing
    STAGES: "def encode(self, records):\n    for stage in self.stages:\n"
    "        records = stage.encode_records(records)\n    return records\n",
    "repro/analysis/density.py": "def encode_records(records):\n    return [r for r in records]\n",
}))
# rule 4: lean per-event functions; body -> (the construct, hits on its line)
_EVENT_BODIES = {
    'name = f"recv@r{x}"': ("f-string", 1), "total = sum(x)": ("sum() over a container", 1),
    'name = "recv@r{}".format(x)': ("str.format() call", 1),
    "sizes = [len(q) for q in x]": ("ListComp", 1), "first = min(x)": ("min() over a container", 1),
    "last = max(*x)": ("max() over a container", 1),
    "total = sum(len(q) for q in x.values())": ("sum() over a container", 2),
    "sizes = {k: len(q) for k, q in x.items()}": ("DictComp", 1),
}
case("test_flags_formatting_and_rescans_in_per_event_functions",  # pmpi.py lacks CallRecord
     lambda rel, cls, fn, body, _what: [(files, hits + _gone(rel, 6, 14, text=files[rel]))
                                        for files, hits in
                                        _planted(4, rel, cls, fn, body, _EVENT_BODIES[body][1])],
     [(*site, body, what) for site in _sites(4) for body, (what, _) in _EVENT_BODIES.items()])
case("test_per_event_functions_may_raise_with_a_message_and_compare_scalars", lambda body: _row(
    {CLUSTER: _stubs(4, CLUSTER, "Cluster", "transfer", body)}),
    ['raise ValueError(f"negative size: {x}")', "later = max(x, self.busy)", "pair = [x, self]"])
case("test_per_event_rule_is_scoped_to_the_listed_functions", lambda: _row({
    CLUSTER: "class Cluster:\n    def transfer(self, src, dst, nbytes):\n"
    "        return nbytes\n    def nic_utilization(self):\n"
    "        return {n: f'{p}' for n, p in self.nic.items()}\n",
    "repro/analysis/report.py":
    "class Cluster:\n    def transfer(self, x):\n        return f'{x}'\n",
}))
case("test_a_renamed_per_event_function_is_reported", lambda: _row(
    {COMM: "class Comm:\n    def _start_send(self):\n        pass\ndef _matched(s, p, t, n):\n"
     "    pass\ndef _received_total(s, p, t, n):\n    pass\n"}, (COMM, 1, 4), *_gone(COMM, 14)))
# a method of the same name does not stand in for the module function, whose old sum is flagged
case("test_waitalls_byte_total_is_a_plain_loop_and_cannot_vanish", lambda: [
    ({COMM: "class Comm:\n    def _raw_isend(self):\n        pass\n"
      "    def _received_total(self, s, p, t, n):\n        pass\n"
      "def _matched(s, p, t, n):\n    pass\n"}, [(COMM, 1, 4), (COMM, 1, 14)]),
    ({COMM: "class Comm:\n    def _raw_isend(self):\n        pass\ndef _matched(s, p, t, n):\n"
      "    pass\ndef _received_total(statuses, peer, tag, _nbytes):\n"
      "    return peer, tag, sum(st.nbytes for st in statuses if st is not None)\n"},
     [(COMM, 7, 4), (COMM, 7, 4), (COMM, 1, 14)])])
# rule 5: one derivation per pack
_ANALYSIS = "import numpy as np\n\nclass Module:\n    def update(self, rank, events):\n        {}\n"
_BATCH = "import numpy as np\n\nclass EventBatch:\n    def groups(self):\n        {}\n"
case("test_flags_per_pack_rederivation_in_analysis_update",
     lambda body, _what: _flag("repro/analysis/rogue.py", _ANALYSIS.format(body), 5), [
         ('mask = np.isin(events["call"], _IDS)', "np.isin() call"),
         ("mask = np.isin(batch.call, _IDS)", "np.isin() call"),
         ('calls = np.unique(events["call"])', "np.unique() over the call column"),
         ("calls, inv = np.unique(batch.call, return_inverse=True)", "np.unique() over the call"),
         ("ids = np.array(sorted(SEND_CALLS), dtype='<u2')", "np.array(sorted(...)) id table"),
         ('d = events["t_end"] - events["t_start"]', "t_end - t_start outside")])
case("test_analysis_update_may_group_other_columns",
     lambda body: _row({"repro/analysis/fine.py": _ANALYSIS.format(body)}), [
         "uniq, inverse = np.unique(peer[mask], return_inverse=True)",  # not the call column
         "sums = np.bincount(inverse, weights=batch.durations[mask])",  # topology's, in order
         "mask = _SENDS[batch.call] & (peer >= 0)", "span = batch.t1 - batch.t0"])
case("test_analysis_rule_is_scoped_to_update_and_to_the_package", lambda: _row({
    "repro/analysis/report.py": "import numpy as np\n\ndef rows(calls, wanted):\n"
    "    return np.isin(calls, wanted)\n",
    "repro/codec/elsewhere.py": _ANALYSIS.format('np.unique(events["call"])')}))
case("test_flags_sequential_float_sums_in_batch",
     lambda body, _what: _flag("repro/analysis/batch.py", _BATCH.format(body), 5), [
         ("t = np.bincount(inverse, weights=durations)", "bincount(..., weights=)"),
         ("t = np.add.reduceat(durations, starts)", "np.add.reduceat over durations"),
         ("t = np.add.reduceat(self.durations[order], starts)", "np.add.reduceat over durations")])
case("test_batch_may_reduceat_integers_and_extrema_and_subtract_timestamps", lambda: _row({
    "repro/analysis/batch.py": _BATCH.format(
        'durations = self.events["t_end"] - self.events["t_start"]\n'
        "        b = np.add.reduceat(self.nbytes[order], starts)\n"
        "        lo = np.minimum.reduceat(durations, starts)\n"
        "        hi = np.maximum.reduceat(durations, starts)\n"
        "        return float(durations[0:4].sum())")}))
# rule 6: observers paid per read
_KERNEL = (
    "class Kernel:\n    def _dispatch(self, limit, stop=None):\n        try:\n"
    "            while self._heap:\n                {}\n        finally:\n"
    "            self._sync_instruments(0, 0, 0)\n"
    "    def _sync_instruments(self, events, depth, high):\n"
    "        self._ctr_dispatched.inc(events)\n        self._gauge_heap.set(depth)\n")
case("test_flags_per_event_instrument_writes_in_the_dispatch_loop", lambda body, _what: _row(
    {KERNEL: _KERNEL.format(body)}, (KERNEL, _end(_KERNEL.format(body), body), 6)), [
    ("self._ctr_dispatched.inc()", ".inc() call"),
    ("self._gauge_heap.set(len(heap))", ".set() call"),
    ("self._hist.observe(when - self.now)", ".observe() call"),
    ("if observed:\n                    self._ctr_dispatched.inc()", ".inc() call"),
    ("self.events_dispatched += 1", "events_dispatched updated on the kernel")])
case("test_dispatch_loop_may_sync_through_a_method_and_trace",
     lambda body: _row({KERNEL: _KERNEL.format(body)}), [
         "self._sync_instruments(1, len(heap), high)",  # the sync is a method, outside the loop
         "if self.trace:\n                    self._marks.inc()",  # the debug branch may
         "depth = len(heap)", "dispatched += 1",  # the counter as a local of the loop
         "if due:\n                    self.events_dispatched = dispatched"])  # the write-back
case("test_instrument_writes_outside_the_dispatch_loop_are_allowed", lambda: _row({
    KERNEL: _KERNEL.format("pass") + "    def run(self):\n        while True:\n"
    "            self.c.inc()\n",
    STREAM: "def write(self):\n    while 1:\n        self.c.inc()\n"}, *_gone(STREAM, 14, 15)))
case("test_a_renamed_dispatch_loop_is_reported", lambda: _row({
    KERNEL: "class Kernel:\n    def _drain(self):\n        while self._heap:\n"
    "            self.c.inc()\n"}, (KERNEL, 1, 6)))

_RECORD_SITES = [(PMPI, "CallRecord"), (STATUS, "Status")]  # pmpi.py lacks PMPIStack here
case("test_flags_frozen_dataclass_per_call_records", lambda rel, cls, dec: _row(
    {rel: f"{dec}\nclass {cls}:\n    tag: int\n"}, (rel, 2, 6), *_gone(rel, 4)),
    [(*site, dec) for site in _RECORD_SITES for dec in (
        "@dataclass(frozen=True, slots=True)", "@dataclass(frozen=True)",
        "@dataclasses.dataclass(slots=True, frozen=True)")])
case("test_per_call_records_may_be_tuples", lambda rel, cls, header: _row(
    {rel: header.format(cls=cls) + "\n    tag: int\n"}, *_gone(rel, 4)),
    [(*site, header) for site in _RECORD_SITES for header in (
        "class {cls}(NamedTuple):",
        "@dataclass(slots=True)\nclass {cls}:",  # mutable: not this rule's business
        "@dataclass(frozen=False)\nclass {cls}:")])
case("test_frozen_dataclasses_elsewhere_are_allowed", lambda: _row(
    {"repro/telemetry/monitor.py": "@dataclass(frozen=True)\nclass CallRecord:\n    tag: int\n"}))
case("test_a_renamed_per_call_record_is_reported", lambda rel, _cls: _row(
    {rel: "class Renamed(NamedTuple):\n    tag: int\n"}, (rel, 1, 6), *_gone(rel, 4)),
    _RECORD_SITES)
# rule 7: pure delays are floats
_WRITE = "def write(self, kernel, cpu):\n    {}\n"
case("test_flags_a_timeout_built_where_it_is_yielded",
     lambda stmt, _what: _flag("repro/vmpi/rogue.py", _WRITE.format(stmt), 7), [
         ("yield Timeout(kernel, cpu)", "yield Timeout(...)"),
         ("yield kernel.timeout(0.0)", "yield <expr>.timeout(...)"),
         ("yield self.ctx.kernel.timeout(seconds)", "yield <expr>.timeout(...)"),
         ("yield primitives.Timeout(kernel, 1.0)", "yield <expr>.Timeout(...)"),
         ("got = yield kernel.timeout(1.0, value=3)", "yield <expr>.timeout(...)")])
case("test_floats_and_composed_or_kept_timeouts_are_allowed",
     lambda stmt: _row({"repro/vmpi/fine.py": _WRITE.format(stmt)}), [
         "yield cpu", "yield 0.0",  # the float form
         "yield kernel.any_of([slot, kernel.timeout(wait)])",  # composed
         "tick = kernel.timeout(cost)\n    tick.add_callback(self.done)\n    yield tick",
         "return Timeout(kernel, done - kernel.now)",  # handed to a caller, not the kernel
         "yield from self.compute(cpu)"])
case("test_the_kernel_package_may_yield_its_own_timeouts", lambda: _row({
    "repro/simt/resources.py": "class Resource:\n    def acquire(self):\n        pass\n"
    "    def release(self):\n        pass\n"
    "    def hold(self, seconds):\n        yield self.kernel.timeout(seconds)\n"}))
# rule 8: host time is profiled from outside
case("test_flags_a_host_time_probe_inside_a_simulation_module",
     lambda package, source, _what: _flag(f"repro/{package}/rogue.py", source, 8), [
         (package, source, what) for package in ("vmpi", "iosim") for source, what in (
             ("from repro.telemetry import NULL_TELEMETRY, hostprof\n",
              "imports the hostprof module"),
             ("import repro.telemetry.hostprof\n", "imports the hostprof module"),
             ("from repro.telemetry.hostprof import ACTIVE\n", "imports ACTIVE"),
             ("from repro.telemetry.hostprof import HostProfiler, host_now\n",
              "imports HostProfiler"),
             ("def write(self):\n    hp = hostprof.ACTIVE\n", "reads hostprof.ACTIVE"),
             ("def run(self):\n    return _hostprof.ACTIVE is None\n", "reads hostprof.ACTIVE"))])
case("test_clock_reads_and_callers_of_the_profiler_are_allowed",  # rule 12's names are gone
     lambda rel, source: _row({rel: source}, *_gone(rel, 12, 15)), [
         # job CPU charged to a telemetry histogram reads the clock, not the profiler
         ("repro/blackboard/board.py", "from repro.telemetry.hostprof import host_now\n"),
         ("repro/analysis/engine.py", "from repro.telemetry import NULL_TELEMETRY, Telemetry\n"),
         ("repro/mpi/requests.py", "def live(self):\n    return self.state.ACTIVE\n"),
         # session teardown and the bench lanes are callers of the profiler, not layers
         ("repro/core/session.py", "from repro.telemetry import hostprof as _hostprof\n"
          "def drain():\n    return _hostprof.ACTIVE\n"),
         ("repro/bench/selfperf.py", "from repro.telemetry.hostprof import HostProfiler\n")])
# rule 9: one observer clock, one ring
case("test_flags_a_second_observer_clock_or_ring",
     lambda rel, source, _what: _flag(rel, source, 9), [
         ("repro/steering/controller.py", "def attach(self, world):\n"
          "    self._hook = world.kernel.call_every(0.005, self._tick)\n", ".call_every() call"),
         ("repro/core/session.py", "def run(self):\n"
          "    kernel.call_every(1.0, self._flush, first=0.0)\n", ".call_every() call"),
         ("repro/telemetry/popmetrics.py", "def __init__(self, tel):\n"
          "    self.timeline = Timeline(tel, capacity=512)\n", "Timeline() constructed"),
         ("repro/telemetry/flow.py", "def windows(tel):\n    return timeline.Timeline(tel)\n",
          "Timeline() constructed")])
case("test_the_clock_owners_and_the_subscribers_are_allowed",
     lambda rel, source: _row({rel: source}), [
         ("repro/telemetry/monitor.py", "def attach(self, kernel):\n    self.timeline = "
          "Timeline(self.tel)\n    return kernel.call_every(self.config.interval, self._tick)\n"),
         ("repro/telemetry/popmetrics.py", "def attach(self, kernel):\n"
          "    return kernel.call_every(self.window, self._close_window, first=0.0)\n"),
         # defining the hook, subscribing to the tick and naming the class are not calls
         ("repro/simt/hooks.py",
          "class Kernel:\n    def call_every(self, interval, fn):\n        pass\n"),
         ("repro/steering/controller.py",
          "def attach(self, monitor):\n    monitor.after_tick.append(self._tick)\n"),
         ("repro/telemetry/__init__.py", "from repro.telemetry.timeline import Timeline\n")])
# rule 10: one schema table
case("test_flags_a_schema_tag_spelled_outside_the_registry",
     lambda rel, source: _flag(rel, source, 10), [
         ("repro/telemetry/popmetrics.py", 'METRICS_SCHEMA = "repro.pop-metrics/1"\n'),
         ("repro/bench/obs.py", 'rows = {"repro.telemetry/2": 0}\n'),
         ("repro/obs/archive.py", 'def tagged(r):\n    return r["schema"] == "repro.health/1"\n')])
case("test_the_registry_and_prose_may_name_a_tag", lambda rel, source: _row({rel: source}), [
    ("repro/obs/registry.py", 'TELEMETRY_SCHEMA = "repro.telemetry/1"\n'),
    # prose that mentions a tag is not a tag literal, nor is another slash-versioned string
    ("repro/obs/__main__.py",
     '"""Tail it: python -m repro.obs tail run.ndjson --schema repro.health/1"""\n'),
    ("repro/obs/sinks.py", 'HELP = "keep only this schema tag, e.g. repro.health/1"\n'),
    ("repro/bench/obs.py", 'FORMAT = "evf/2"\nMODULE = "repro.obs"\n')])
# rule 11: analysis state keyed by the ranks seen
_STATE = "import numpy as np\n\nclass Module:\n    def {}(self, app_size):\n        {}\n"
case("test_flags_a_vector_over_every_rank_in_a_state_method", lambda method, stmt: _flag(
    "repro/analysis/rogue.py", _STATE.format(method, stmt), 11), [
    ("__init__", "self.wait_time = np.zeros(app_size)"),
    ("__init__", "self.t0 = np.full(self.app_size, np.inf)"),
    ("update", "seen = np.ones(shape=self.app_size, dtype=bool)"),
    ("merge", "scratch = np.empty(app_size + 1)")])
case("test_dense_vectors_in_queries_and_elsewhere_are_allowed", lambda rel, method, stmt: _row(
    {rel: _STATE.format(method, stmt)}), [
    ("repro/analysis/fine.py", "wait_time", "return np.zeros(app_size)"),  # a query, on the root
    ("repro/analysis/fine.py", "__init__", "self.hist = np.zeros(16)"),  # not app-sized
    ("repro/mpi/fine.py", "__init__", "self.v = np.zeros(app_size)")])  # outside analysis/
case("test_a_missing_rank_keyed_module_is_reported", lambda: _row({  # latesender.py is gone
    f"repro/analysis/{name}.py": "" for name in "__init__ profiler topology density waitstate "
    "otf2proxy alerts".split()}, ("repro/analysis/latesender.py", 1, 11)))
# rule 12: lean per-pack functions
case("test_flags_formatting_and_comprehensions_in_per_pack_functions",
     lambda rel, cls, fn, body, _what: _planted(12, rel, cls, fn, body), [
         (*site, body, what) for site in _sites(12) for body, what in (
             ('name = f"blackboard.ks_cpu_s.{x.name}"', "f-string"),
             ('name = "analysis.packs_rejected.{}".format(x)', "str.format() call"),
             ("taken = [q.popleft() for q in x]", "ListComp"),
             ("short = any(len(q) < 1 for q in x)", "GeneratorExp"),
             ("kinds = {e.type_id for e in x}", "SetComp"),
             ("slots = {t: len(q) for t, q in x.items()}", "DictComp"))])
case("test_per_pack_functions_may_raise_with_a_message_and_build_literals", lambda body: _row(
    {BOARD: _stubs(12, BOARD, "Blackboard", "submit", body)}), [
    'raise ValueError(f"pack app_id {x} has no level")',  # the error path may format
    "total = sum(x)",  # rule 4's container scans are not rule 12's business
    "jobs = [x, self]"])  # a literal is no comprehension
case("test_per_pack_rule_is_scoped_to_the_listed_functions", lambda: _row({
    "repro/blackboard/jobs.py": "class JobQueues:\n    def push_many(self, jobs):\n        pass\n"
    "    def try_pop(self, start=None):\n        pass\n    def __len__(self):\n"
    "        return sum(len(q) for q in self._queues)\n",
    "repro/blackboard/entry.py": "class JobQueues:\n    def try_pop(self):\n"
    "        return f'{self}'\n"}))
case("test_a_renamed_per_pack_function_is_reported", lambda: _row({
    "repro/blackboard/multilevel.py": "class MultiLevelBlackboard:\n"
    "    def _dispatch(self, board, entries):\n        pass\n    def _route(self, entry):\n"
    "        pass\n"}, ("repro/blackboard/multilevel.py", 1, 12)))
case("test_the_pre_rule_knowledge_source_offer_is_flagged", lambda: _row({  # rule 12 replaced it
    "repro/blackboard/ks.py": "class KnowledgeSource:\n    def offer(self, entry):\n"
    "        if any(len(self._pending[t]) < n for t, n in self._needs.items()):\n"
    "            return None\n"
    "        taken = {t: deque(self._pending[t].popleft() for _ in range(n))\n"
    "                 for t, n in self._needs.items()}\n"
    "        return [taken[t].popleft() for t in self.sensitivities]\n"},
    *[("repro/blackboard/ks.py", line, 12) for line in (3, 5, 5, 7)]))
# rule 13: one schedule; a module planted without the names other rows list is told so
case("test_flags_a_schedule_push_or_container_outside_the_kernel",
     lambda rel, source, _what: _flag(rel, source, 13, *_gone(rel, 4, 6, 14, 15)), [
         ("repro/mpi/message.py", "from heapq import heappush\n", "imports heappush from heapq"),
         ("repro/simt/resources.py",  # in simt/, but not a schedule owner
          "from heapq import heappop, heappush\n", "imports heappop, heappush from heapq"),
         ("repro/vmpi/stream.py", "def wake(kernel, ev):\n    kernel._ready.append(ev)\n",
          "references <expr>._ready"),
         ("repro/network/cluster.py", "import heapq\n\ndef later(self, ev):\n"
          "    heapq.heappush(self.kernel._heap, (self.kernel.now, 0, ev))\n",
          "references <expr>._heap")])
case("test_the_schedule_owners_and_own_containers_are_allowed",
     lambda rel, source: _row({rel: source}, *_gone(rel, 4, 6, 14, 15)), [
         ("repro/simt/kernel.py", "from heapq import heappop\n\ndef f(k):\n    k._ready.pop()\n"),
         ("repro/simt/primitives.py", "from heapq import heappush\n\ndef f(k):\n    k._heap\n"),
         ("repro/simt/process.py", "from heapq import heappush\n\ndef f(k):\n    k._ready\n"),
         # a class's own FIFO and heapq on a module's own list are not the schedule
         ("repro/vmpi/stream.py", "class S:\n    def f(self):\n        self._ready.popleft()\n"),
         ("repro/iosim/queue.py", "import heapq\nfrom heapq import heapify\n\nheapify([])\n")])
# rule 14: resolved at open; body -> hits on its line (communicator.py lacks rule 4's helpers)
_REDERIVED = {
    "req.event.add_callback(lambda _ev, rec=x: self._send_done(rec))": 1,
    "o_recv = self._mpi.ctx.world.cost.o_recv": 1, "cost = world.cost": 1,
    "comm = self._mpi.comm_universe": 1, "peer = comm.global_rank_of(x)": 1,
    "peer = self._mpi.comm_universe.global_rank_of(x)": 2,
    "peer = comm.group.rank_of_global[x]": 1, "tag = self.tag": 1,
}
case("test_flags_per_block_rederivations",
     lambda rel, cls, fn, body: [(files, hits + _gone(rel, 4, text=files[rel])) for files, hits
                                 in _planted(14, rel, cls, fn, body, _REDERIVED[body])],
     [(*site, body) for site in _sites(14) for body in _REDERIVED])
case("test_per_block_functions_may_read_what_open_resolved", lambda body: _row(  # a store is
    {STREAM: _stubs(14, STREAM, "VMPIStream", "_consume", body)},  # state outside __slots__
    *[(STREAM, 1, 15)] * body.startswith("self.tag =")), [
    "self._mailbox.post(self._comm.id, x, self._tag, self._o_recv).add_callback(self._arrived)",
    "req.event.add_callback(rec.sent)", "tag = x.tag", "self.tag = x",  # a Status's; a store
    'raise CommunicatorError(f"rank {x} outside {self._comm.label}, tag {self.tag}")'])
case("test_resolved_at_open_rule_is_scoped_to_the_listed_functions", lambda: _row({
    STREAM: _stubs(14, STREAM) + "    def open_ranks(self, mpi, peers):\n"
    "        self._comm = comm = mpi.comm_universe\n        self._tag = self.tag\n"
    "        self._o_recv = mpi.ctx.world.cost.o_recv\n"
    "        return [comm.group.rank_of_global[p] for p in peers]\n",
    "repro/mpi/world.py": "class VMPIStream:\n    def write(self):\n        return self.tag\n"},
    (STREAM, 1, 15), *_gone("repro/mpi/world.py", 15)))
case("test_a_renamed_per_block_function_is_reported", lambda: _row(
    {STREAM: _stubs(14, STREAM).replace("def _post_recv(", "def _repost(")}, (STREAM, 1, 14)))
_PRE_RULE = (  # the parent's re-post and consume, which rule 14 replaced
    "    def _post_recv(self, peer):\n        mpi = self._mpi\n"
    "        comm = mpi.comm_universe\n        peer_comm_rank = comm.group.rank_of_global[peer]\n"
    "        completion = mpi.ctx.mailbox.post(\n"
    "            comm.id, peer_comm_rank, self.tag, mpi.ctx.world.cost.o_recv\n        )\n"
    "        completion.add_callback(self._on_block)\n"
    "    def _consume(self, status, t_arrive):\n"
    "        peer_global = self._mpi.comm_universe.global_rank_of(status.source)\n")
case("test_the_pre_rule_stream_is_flagged", lambda: [
    (files, [(STREAM, _end(files[STREAM], line), 14) for line in (
        "comm = mpi.comm_universe", "rank_of_global[peer]", "mpi.ctx.world.cost.o_recv",
        "mpi.ctx.world.cost.o_recv", "global_rank_of(status.source)",
        "global_rank_of(status.source)")])
    for files in [{STREAM: _stubs(14, STREAM).replace(
        "    def _consume(self, x=None):\n        pass\n", "").replace(
        "    def _post_recv(self, x=None):\n        pass\n", _PRE_RULE)}]])
# rule 15: per-rank state is slotted; each planted class stores one attribute
_STORES = "    def __init__(self, x=None):\n        self.x = x\n"
_PER_RANK = {rel.as_posix(): sorted(names) for rel, names in LISTS[15].items()}
WORLD, LAUNCHER, MESSAGE = "repro/mpi/world.py", "repro/mpi/launcher.py", "repro/mpi/message.py"


def _classes(rel, header="class {}:\n"):
    """Each class rule 15 lists in ``rel``, opened by ``header``, storing state."""
    return "".join(header.format(name) + _STORES for name in _PER_RANK[rel])


def _others(rel, text):
    """The "not found" hits of ``rel`` planted as ``text`` under every other rule."""
    return _gone(rel, *(rule.number for rule in RULES if rule.number != 15), text=text)


case("test_flags_unslotted_per_rank_state", lambda rel: _row(
    {rel: _classes(rel)}, *[(rel, 1 + 3 * i, 15) for i in range(len(_PER_RANK[rel]))],
    *_others(rel, _classes(rel))), list(_PER_RANK))
case("test_slotted_per_rank_classes_are_allowed", lambda header: _row(
    {rel: _classes(rel, header) for rel in _PER_RANK},
    *[hit for rel in _PER_RANK for hit in _others(rel, _classes(rel, header))]), [
        'class {}:\n    __slots__ = ("x",)\n', "class {}(Base):\n    __slots__: tuple = ('x',)\n",
        "@dataclass(slots=True)\nclass {}:\n",
        "@dataclasses.dataclass(frozen=False, slots=True)\nclass {}:\n"])
case("test_slotted_rule_is_scoped_to_listed_classes_that_store_state", lambda: _row({
    WORLD: "class World:\n" + _STORES + "class RankContext:\n    def rank(self):\n"
    "        self.ctx.rank = 0\n        return self.ctx.rank\n"  # a store on another object
    "class ProgramAPI:\n    __slots__ = ('x',)\n" + _STORES,
    LAUNCHER: "class MPMDLauncher:\n" + _STORES}, *_gone(LAUNCHER, 15)))
case("test_a_renamed_per_rank_class_is_reported", lambda: _row({
    WORLD: _classes(WORLD, "class {}:\n    __slots__ = ('x',)\n").replace("RankContext", "RankCtx")
}, (WORLD, 1, 15)))
case("test_the_pre_rule_mailbox_is_flagged", lambda: _row(  # deque queues and no __slots__
    {MESSAGE: "from collections import deque\n\n\nclass Mailbox:\n"
     "    def __init__(self, kernel, owner_rank):\n        self.kernel = kernel\n"
     "        self._unexpected: dict[int, deque] = {}\n"}, (MESSAGE, 4, 15), *_gone(MESSAGE, 4)))

# the real tree, the command line and the docs
def test_real_tree_is_clean():
    assert check_tree(REPO / "src") == []


def _cli(root):
    return subprocess.run([sys.executable, str(SCRIPT), str(root)], capture_output=True, text=True)


def test_cli_exit_zero_on_clean_tree():
    result = _cli(REPO / "src")
    assert result.returncode == 0, result.stdout + result.stderr
    titles = ", ".join(dict.fromkeys(rule.title for rule in RULES))
    assert result.stdout == f"hot-path invariants hold ({titles})\n"


def test_cli_exit_one_on_violation(tmp_path):
    (tmp_path / "app.py").write_text("import time\nT = time.perf_counter()\n")
    result = _cli(tmp_path)
    assert result.returncode == 1
    assert result.stdout.startswith("app.py:2: rule 1: time.perf_counter — host timings")
    assert result.stdout.endswith("\n1 hot-path invariant violation(s)\n")


def test_cli_exit_two_on_missing_root(tmp_path):
    assert _cli(tmp_path / "nope").returncode == 2


def test_docs_cite_only_rules_in_the_table():
    numbers = {rule.number for rule in RULES}
    assert numbers == set(range(1, 16))  # kept as they were, so "rule N" in prose stays true
    for doc in ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"):
        cited = {int(n) for n in re.findall(r"\b[Rr]ules?\s+(\d+)", (REPO / doc).read_text())}
        assert cited <= numbers, (doc, cited - numbers)


def test_decode_path_table_names_real_functions():
    import repro.codec.frame as frame
    assert all(callable(getattr(frame, name)) for name in LISTS[2][Path(FRAME)])


def test_per_call_record_table_names_the_real_classes():
    from repro.mpi.pmpi import CallRecord
    from repro.mpi.status import Status
    assert LISTS[6] == {Path(PMPI): {"CallRecord"}, Path(STATUS): {"Status"}}
    assert issubclass(CallRecord, tuple) and issubclass(Status, tuple)
