"""The hot-path invariant lint: catches violations, passes the real tree."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_hotpath_invariants.py"

sys.path.insert(0, str(REPO / "scripts"))

from check_hotpath_invariants import (  # noqa: E402
    DECODE_PATH_FUNCTIONS,
    PER_EVENT_FUNCTIONS,
    PER_PACK_FUNCTIONS,
    check_tree,
    per_event_label,
)


def _write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_real_tree_is_clean():
    problems = check_tree(REPO / "src")
    assert problems == []


def test_cli_exit_zero_on_clean_tree():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(REPO / "src")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "invariants hold" in result.stdout


def test_flags_perf_counter_outside_hostprof(tmp_path):
    _write(
        tmp_path,
        "repro/simt/rogue.py",
        "import time\n\ndef now():\n    return time.perf_counter()\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "rogue.py:4" in problems[0]
    assert "time.perf_counter" in problems[0]


def test_flags_from_time_import_perf_counter(tmp_path):
    _write(
        tmp_path,
        "repro/vmpi/rogue.py",
        "from time import perf_counter\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "from time import perf_counter" in problems[0]


def test_hostprof_itself_may_use_the_clock(tmp_path):
    _write(
        tmp_path,
        "repro/telemetry/hostprof.py",
        "import time\nCLOCK = time.perf_counter\n",
    )
    assert check_tree(tmp_path) == []


def _frame_module(**bodies: str) -> str:
    """A ``codec/frame.py`` defining every decode-path function (rule 2 reports
    a missing one), each returning ``blob`` unless ``bodies`` says otherwise."""
    return "".join(
        f"def {name}(blob):\n    {bodies.get(name, 'return blob')}\n\n"
        for name in sorted(DECODE_PATH_FUNCTIONS | set(bodies))
    )


def test_flags_bytes_in_decode_path(tmp_path):
    _write(
        tmp_path,
        "repro/codec/frame.py",
        _frame_module(
            parse_frame="return bytes(blob)", to_bytes="return bytes(bytearray(4))"
        ),
    )
    problems = check_tree(tmp_path)
    # Encode-side to_bytes() may copy; the decode path may not.
    assert len(problems) == 1
    assert "parse_frame" in problems[0]
    assert "zero-copy" in problems[0]


def test_other_modules_may_call_bytes(tmp_path):
    _write(
        tmp_path,
        "repro/instrument/packer.py",
        "def parse_frame(blob):\n    return bytes(blob)\n",
    )
    # The decode-path rule is scoped to codec/frame.py only.
    assert check_tree(tmp_path) == []


def test_cli_exit_one_on_violation(tmp_path):
    _write(tmp_path, "repro/app.py", "import time\nT = time.perf_counter()\n")
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "violation" in result.stdout


def test_cli_exit_two_on_missing_root(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "nope")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2


@pytest.mark.parametrize(
    "fn", ["peek_header", "peek_provenance", "frame_content_size", "_header_fields", "_walk"]
)
def test_every_decode_path_function_is_covered(tmp_path, fn):
    _write(tmp_path, "repro/codec/frame.py", _frame_module(**{fn: "return bytes(blob)"}))
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert fn in problems[0]


def test_a_renamed_decode_path_function_is_reported(tmp_path):
    # The walk moved (or a reader was retired) without the table following:
    # flagged, as rule 4 flags a missing per-event function ...
    source = _frame_module().replace("def _walk(", "def _walk_sections(")
    _write(tmp_path, "repro/codec/frame.py", source)
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "_walk() not found" in problems[0] and "DECODE_PATH_FUNCTIONS" in problems[0]
    # ... and a frame module that defines them all passes.
    _write(tmp_path, "repro/codec/frame.py", _frame_module())
    assert check_tree(tmp_path) == []


def test_decode_path_table_names_real_functions():
    import repro.codec.frame as frame

    assert all(callable(getattr(frame, name)) for name in DECODE_PATH_FUNCTIONS)


# -- rule 3: loop-free reduction stages --------------------------------------------

_STAGES_TEMPLATE = (
    "class DeltaStage:\n"
    "    def {name}(self, col, ctx=None):\n"
    "        {body}\n"
)


@pytest.mark.parametrize(
    "body, what",
    [
        ("for v in col: pass", "For"),
        ("while col: col = col[1:]", "While"),
        ("return [v for v in col]", "ListComp"),
        ("return sum(v for v in col)", "GeneratorExp"),
        ("return {v: 1 for v in col}", "DictComp"),
        ("return col.times.tolist()", ".tolist() call"),
    ],
)
@pytest.mark.parametrize(
    "name", ["encode_records", "decode_records", "encode_columnar", "decode_columnar"]
)
def test_flags_per_record_iteration_in_stage_hooks(tmp_path, name, body, what):
    _write(tmp_path, "repro/codec/stages.py", _STAGES_TEMPLATE.format(name=name, body=body))
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "stages.py:3" in problems[0]
    assert what in problems[0] and f"{name}()" in problems[0]


@pytest.mark.parametrize(
    "fn",
    ["_pack_varints", "_unpack_varints", "_encode_varints", "_group_shifts", "_zigzag", "_unzigzag"],
)
def test_flags_the_scalar_helpers_coming_back(tmp_path, fn):
    _write(
        tmp_path,
        "repro/codec/stages.py",
        f"def {fn}(values):\n    return bytes(v & 0x7F for v in values)\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert fn in problems[0] and "GeneratorExp" in problems[0]


def test_loops_outside_the_vector_functions_are_allowed(tmp_path):
    # Chain plumbing iterates over *stages*, not records; and the rule is
    # scoped to codec/stages.py, so the reference in tests/ or any other
    # module may loop freely.
    _write(
        tmp_path,
        "repro/codec/stages.py",
        "def encode(self, records):\n"
        "    for stage in self.stages:\n"
        "        records = stage.encode_records(records)\n"
        "    return records\n",
    )
    _write(
        tmp_path,
        "repro/analysis/density.py",
        "def encode_records(records):\n    return [r for r in records]\n",
    )
    assert check_tree(tmp_path) == []


# -- rule 4: lean per-event functions ------------------------------------------------

_PER_EVENT_SITES = [
    (rel.as_posix(), cls, fn)
    for rel, classes in PER_EVENT_FUNCTIONS.items()
    for cls, fns in classes.items()
    for fn in sorted(fns)
]


def _per_event_module(rel, cls, fn, body):
    """``rel`` with every function the lint lists for it as a clean stub
    (a missing one is itself a violation), except ``cls.fn`` = ``body``."""
    lines = []
    for klass, fns in PER_EVENT_FUNCTIONS[Path(rel)].items():
        indent = "    " if klass else ""  # the class "" is the module itself
        if klass:
            lines.append(f"class {klass}:")
        for name in sorted(fns):
            stmt = body if (klass, name) == (cls, fn) else "pass"
            lines.append(f"{indent}def {name}(self, x=None):\n{indent}    {stmt}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "body, what",
    [
        ('name = f"recv@r{x}"', "f-string"),
        ('name = "recv@r{}".format(x)', "str.format() call"),
        ("total = sum(len(q) for q in x.values())", "sum() over a container"),
        ("total = sum(x)", "sum() over a container"),
        ("first = min(x)", "min() over a container"),
        ("last = max(*x)", "max() over a container"),
        ("sizes = [len(q) for q in x]", "ListComp"),
        ("sizes = {k: len(q) for k, q in x.items()}", "DictComp"),
    ],
)
@pytest.mark.parametrize("rel, cls, fn", _PER_EVENT_SITES)
def test_flags_formatting_and_rescans_in_per_event_functions(
    tmp_path, rel, cls, fn, body, what
):
    _write(tmp_path, rel, _per_event_module(rel, cls, fn, body))
    problems = [p for p in check_tree(tmp_path) if "per-event function" in p]
    assert problems, (rel, cls, fn, body)
    assert all(f"{per_event_label(cls, fn)}()" in p for p in problems)
    assert any(what in p for p in problems)


@pytest.mark.parametrize(
    "body",
    [
        'raise ValueError(f"negative size: {x}")',  # the error path may format
        "later = max(x, self.busy)",  # a two-value compare is no container scan
        "pair = [x, self]",  # a literal is no comprehension
    ],
)
def test_per_event_functions_may_raise_with_a_message_and_compare_scalars(tmp_path, body):
    _write(
        tmp_path,
        "repro/network/cluster.py",
        _per_event_module("repro/network/cluster.py", "Cluster", "transfer", body),
    )
    assert check_tree(tmp_path) == []


def test_per_event_rule_is_scoped_to_the_listed_functions(tmp_path):
    _write(
        tmp_path,
        "repro/network/cluster.py",
        "class Cluster:\n"
        "    def transfer(self, src, dst, nbytes):\n"
        "        return nbytes\n"
        "    def nic_utilization(self):\n"
        "        return {n: f'{p}' for n, p in self.nic.items()}\n",
    )
    _write(
        tmp_path,
        "repro/analysis/report.py",
        "class Cluster:\n    def transfer(self, x):\n        return f'{x}'\n",
    )
    assert check_tree(tmp_path) == []


def test_a_renamed_per_event_function_is_reported(tmp_path):
    _write(
        tmp_path,
        "repro/mpi/communicator.py",
        "class Comm:\n    def _start_send(self):\n        pass\n"
        "def _matched(s, p, t, n):\n    pass\n"
        "def _received_total(s, p, t, n):\n    pass\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "Comm._raw_isend() not found" in problems[0]


def test_waitalls_byte_total_is_a_plain_loop_and_cannot_vanish(tmp_path):
    # The generator-expression sum _received_total used to compute on every
    # intercepted MPI_Waitall is flagged; a method of the same name on a
    # class does not stand in for the module function.
    _write(
        tmp_path,
        "repro/mpi/communicator.py",
        "class Comm:\n    def _raw_isend(self):\n        pass\n"
        "    def _received_total(self, s, p, t, n):\n        pass\n"
        "def _matched(s, p, t, n):\n    pass\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "communicator.py:1: per-event function _received_total() not found" in problems[0]
    _write(
        tmp_path,
        "repro/mpi/communicator.py",
        "class Comm:\n    def _raw_isend(self):\n        pass\n"
        "def _matched(s, p, t, n):\n    pass\n"
        "def _received_total(statuses, peer, tag, _nbytes):\n"
        "    return peer, tag, sum(st.nbytes for st in statuses if st is not None)\n",
    )
    problems = check_tree(tmp_path)
    assert problems and all("_received_total()" in p for p in problems)
    assert any("sum() over a container" in p for p in problems)


# -- rule 5: one derivation per pack --------------------------------------------------


def _analysis_module(body: str) -> str:
    return (
        "import numpy as np\n\n"
        "class Module:\n"
        "    def update(self, rank, events):\n"
        f"        {body}\n"
    )


@pytest.mark.parametrize(
    "body, what",
    [
        ('mask = np.isin(events["call"], _IDS)', "np.isin() call"),
        ("mask = np.isin(batch.call, _IDS)", "np.isin() call"),
        ('calls = np.unique(events["call"])', "np.unique() over the call column"),
        ("calls, inv = np.unique(batch.call, return_inverse=True)", "np.unique() over the call"),
        ("ids = np.array(sorted(SEND_CALLS), dtype='<u2')", "np.array(sorted(...)) id table"),
        ('d = events["t_end"] - events["t_start"]', "t_end - t_start outside"),
    ],
)
def test_flags_per_pack_rederivation_in_analysis_update(tmp_path, body, what):
    _write(tmp_path, "repro/analysis/rogue.py", _analysis_module(body))
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "rogue.py:5" in problems[0] and what in problems[0]


@pytest.mark.parametrize(
    "body",
    [
        "uniq, inverse = np.unique(peer[mask], return_inverse=True)",  # not the call column
        "sums = np.bincount(inverse, weights=batch.durations[mask])",  # topology's, in order
        "mask = _SENDS[batch.call] & (peer >= 0)",
        "span = batch.t1 - batch.t0",
    ],
)
def test_analysis_update_may_group_other_columns(tmp_path, body):
    _write(tmp_path, "repro/analysis/fine.py", _analysis_module(body))
    assert check_tree(tmp_path) == []


def test_analysis_rule_is_scoped_to_update_and_to_the_package(tmp_path):
    _write(
        tmp_path,
        "repro/analysis/report.py",
        "import numpy as np\n\ndef rows(calls, wanted):\n    return np.isin(calls, wanted)\n",
    )
    _write(tmp_path, "repro/codec/elsewhere.py", _analysis_module('np.unique(events["call"])'))
    assert check_tree(tmp_path) == []


@pytest.mark.parametrize(
    "body, what",
    [
        ("t = np.bincount(inverse, weights=durations)", "bincount(..., weights=)"),
        ("t = np.add.reduceat(durations, starts)", "np.add.reduceat over durations"),
        ("t = np.add.reduceat(self.durations[order], starts)", "np.add.reduceat over durations"),
    ],
)
def test_flags_sequential_float_sums_in_batch(tmp_path, body, what):
    _write(
        tmp_path,
        "repro/analysis/batch.py",
        f"import numpy as np\n\nclass EventBatch:\n    def groups(self):\n        {body}\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "batch.py:5" in problems[0] and what in problems[0]


def test_batch_may_reduceat_integers_and_extrema_and_subtract_timestamps(tmp_path):
    _write(
        tmp_path,
        "repro/analysis/batch.py",
        "import numpy as np\n\n"
        "class EventBatch:\n"
        "    def groups(self):\n"
        '        durations = self.events["t_end"] - self.events["t_start"]\n'
        "        b = np.add.reduceat(self.nbytes[order], starts)\n"
        "        lo = np.minimum.reduceat(durations, starts)\n"
        "        hi = np.maximum.reduceat(durations, starts)\n"
        "        return float(durations[0:4].sum())\n",
    )
    assert check_tree(tmp_path) == []


# -- rule 6: observers paid per read --------------------------------------------------


def _kernel_module(loop_body: str) -> str:
    return (
        "class Kernel:\n"
        "    def _dispatch(self, limit, stop=None):\n"
        "        try:\n"
        "            while self._heap:\n"
        f"                {loop_body}\n"
        "        finally:\n"
        "            self._sync_instruments(0, 0, 0)\n"
        "    def _sync_instruments(self, events, depth, high):\n"
        "        self._ctr_dispatched.inc(events)\n"
        "        self._gauge_heap.set(depth)\n"
    )


@pytest.mark.parametrize(
    "loop_body, what",
    [
        ("self._ctr_dispatched.inc()", ".inc() call"),
        ("self._gauge_heap.set(len(heap))", ".set() call"),
        ("self._hist.observe(when - self.now)", ".observe() call"),
        ("if observed:\n                    self._ctr_dispatched.inc()", ".inc() call"),
        ("self.events_dispatched += 1", "events_dispatched updated on the kernel"),
    ],
)
def test_flags_per_event_instrument_writes_in_the_dispatch_loop(tmp_path, loop_body, what):
    _write(tmp_path, "repro/simt/kernel.py", _kernel_module(loop_body))
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "kernel.py:" in problems[0] and what in problems[0]
    assert "dispatch loop" in problems[0]


@pytest.mark.parametrize(
    "loop_body",
    [
        "self._sync_instruments(1, len(heap), high)",  # the sync is a method, outside the loop
        "if self.trace:\n                    self._marks.inc()",  # the debug branch may
        "depth = len(heap)",
        "dispatched += 1",  # the counter as a local of the loop
        "if due:\n                    self.events_dispatched = dispatched",  # the write-back
    ],
)
def test_dispatch_loop_may_sync_through_a_method_and_trace(tmp_path, loop_body):
    _write(tmp_path, "repro/simt/kernel.py", _kernel_module(loop_body))
    assert check_tree(tmp_path) == []


def test_instrument_writes_outside_the_dispatch_loop_are_allowed(tmp_path):
    _write(
        tmp_path,
        "repro/simt/kernel.py",
        _kernel_module("pass") + "    def run(self):\n        while True:\n            self.c.inc()\n",
    )
    _write(tmp_path, "repro/vmpi/stream.py", "def write(self):\n    while 1:\n        self.c.inc()\n")
    assert check_tree(tmp_path) == []


def test_a_renamed_dispatch_loop_is_reported(tmp_path):
    _write(
        tmp_path,
        "repro/simt/kernel.py",
        "class Kernel:\n    def _drain(self):\n        while self._heap:\n            self.c.inc()\n",
    )
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert "Kernel._dispatch) not found" in problems[0]


_PER_CALL_RECORD_SITES = [
    ("repro/mpi/pmpi.py", "CallRecord"),
    ("repro/mpi/status.py", "Status"),
]


def _pmpi_stub(rel: str) -> str:
    """What rule 4 wants to find in ``rel`` beside the record class."""
    return "class PMPIStack:\n    def _intercepted(self):\n        pass\n" if "pmpi" in rel else ""


@pytest.mark.parametrize(
    "decorator",
    [
        "@dataclass(frozen=True, slots=True)",
        "@dataclass(frozen=True)",
        "@dataclasses.dataclass(slots=True, frozen=True)",
    ],
)
@pytest.mark.parametrize("rel, cls", _PER_CALL_RECORD_SITES)
def test_flags_frozen_dataclass_per_call_records(tmp_path, rel, cls, decorator):
    _write(tmp_path, rel, f"{decorator}\nclass {cls}:\n    tag: int\n" + _pmpi_stub(rel))
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert f"{Path(rel).name}:2" in problems[0]
    assert f"per-call record {cls} is a frozen dataclass" in problems[0]


@pytest.mark.parametrize(
    "header",
    [
        "class {cls}(NamedTuple):",
        "@dataclass(slots=True)\nclass {cls}:",  # mutable: not this rule's business
        "@dataclass(frozen=False)\nclass {cls}:",
    ],
)
@pytest.mark.parametrize("rel, cls", _PER_CALL_RECORD_SITES)
def test_per_call_records_may_be_tuples(tmp_path, rel, cls, header):
    _write(tmp_path, rel, header.format(cls=cls) + "\n    tag: int\n" + _pmpi_stub(rel))
    assert check_tree(tmp_path) == []


def test_frozen_dataclasses_elsewhere_are_allowed(tmp_path):
    _write(
        tmp_path,
        "repro/telemetry/monitor.py",
        "@dataclass(frozen=True)\nclass CallRecord:\n    tag: int\n",
    )
    assert check_tree(tmp_path) == []


@pytest.mark.parametrize("rel, cls", _PER_CALL_RECORD_SITES)
def test_a_renamed_per_call_record_is_reported(tmp_path, rel, cls):
    _write(tmp_path, rel, "class Renamed(NamedTuple):\n    tag: int\n" + _pmpi_stub(rel))
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert f"per-call record {cls} not found" in problems[0]


def test_per_call_record_table_names_the_real_classes():
    from check_hotpath_invariants import PER_CALL_RECORDS

    assert sorted((rel.as_posix(), cls) for rel, names in PER_CALL_RECORDS.items() for cls in names) == (
        _PER_CALL_RECORD_SITES
    )


# -- rule 7: pure delays are floats ---------------------------------------------------


@pytest.mark.parametrize(
    "stmt, what",
    [
        ("yield Timeout(kernel, cpu)", "yield Timeout(...)"),
        ("yield kernel.timeout(0.0)", "yield <expr>.timeout(...)"),
        ("yield self.ctx.kernel.timeout(seconds)", "yield <expr>.timeout(...)"),
        ("yield primitives.Timeout(kernel, 1.0)", "yield <expr>.Timeout(...)"),
        ("got = yield kernel.timeout(1.0, value=3)", "yield <expr>.timeout(...)"),
    ],
)
def test_flags_a_timeout_built_where_it_is_yielded(tmp_path, stmt, what):
    _write(tmp_path, "repro/vmpi/rogue.py", f"def write(self, kernel, cpu):\n    {stmt}\n")
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "rogue.py:2" in problems[0] and what in problems[0]
    assert "a pure delay is a float" in problems[0]


@pytest.mark.parametrize(
    "stmt",
    [
        "yield cpu",  # the float form
        "yield 0.0",
        "yield kernel.any_of([slot, kernel.timeout(wait)])",  # composed
        "tick = kernel.timeout(cost)\n    tick.add_callback(self.done)\n    yield tick",
        "return Timeout(kernel, done - kernel.now)",  # handed to a caller, not to the kernel
        "yield from self.compute(cpu)",
    ],
)
def test_floats_and_composed_or_kept_timeouts_are_allowed(tmp_path, stmt):
    _write(tmp_path, "repro/vmpi/fine.py", f"def write(self, kernel, cpu):\n    {stmt}\n")
    assert check_tree(tmp_path) == []


def test_the_kernel_package_may_yield_its_own_timeouts(tmp_path):
    _write(
        tmp_path,
        "repro/simt/resources.py",
        "class Resource:\n"
        "    def acquire(self):\n        pass\n"
        "    def release(self):\n        pass\n"
        "    def hold(self, seconds):\n        yield self.kernel.timeout(seconds)\n",
    )
    assert check_tree(tmp_path) == []


# -- rule 8: host time is profiled from outside ------------------------------------


@pytest.mark.parametrize(
    "source, what",
    [
        ("from repro.telemetry import NULL_TELEMETRY, hostprof\n", "imports the hostprof module"),
        ("import repro.telemetry.hostprof\n", "imports the hostprof module"),
        ("from repro.telemetry.hostprof import ACTIVE\n", "imports ACTIVE"),
        ("from repro.telemetry.hostprof import HostProfiler, host_now\n", "imports HostProfiler"),
        ("def write(self):\n    hp = hostprof.ACTIVE\n", "reads hostprof.ACTIVE"),
        ("def run(self):\n    return _hostprof.ACTIVE is None\n", "reads hostprof.ACTIVE"),
    ],
)
@pytest.mark.parametrize("package", ["vmpi", "iosim"])
def test_flags_a_host_time_probe_inside_a_simulation_module(tmp_path, package, source, what):
    _write(tmp_path, f"repro/{package}/rogue.py", source)
    problems = check_tree(tmp_path)
    assert len(problems) == 1
    assert f"repro/{package}/rogue.py" in problems[0] and what in problems[0]
    assert "ENTRY_POINTS" in problems[0]


@pytest.mark.parametrize(
    "rel, source",
    [
        # Job CPU charged to a telemetry histogram reads the clock, not the profiler.
        ("repro/blackboard/board.py", "from repro.telemetry.hostprof import host_now\n"),
        ("repro/analysis/engine.py", "from repro.telemetry import NULL_TELEMETRY, Telemetry\n"),
        # An unrelated ACTIVE is nobody's business.
        ("repro/mpi/requests.py", "def live(self):\n    return self.state.ACTIVE\n"),
        # Session teardown and the bench lanes are callers of the profiler, not layers.
        ("repro/core/session.py", "from repro.telemetry import hostprof as _hostprof\n"
                                  "def drain():\n    return _hostprof.ACTIVE\n"),
        ("repro/bench/selfperf.py", "from repro.telemetry.hostprof import HostProfiler\n"),
    ],
)
def test_clock_reads_and_callers_of_the_profiler_are_allowed(tmp_path, rel, source):
    # A module rule 12 lists must still define its per-pack functions.
    _write(tmp_path, rel, source + _per_pack_stubs(rel))
    assert check_tree(tmp_path) == []


# -- rule 9: one observer clock, one ring ------------------------------------------


@pytest.mark.parametrize(
    "rel, source, what",
    [
        ("repro/steering/controller.py",
         "def attach(self, world):\n    self._hook = world.kernel.call_every(0.005, self._tick)\n",
         ".call_every() call"),
        ("repro/core/session.py",
         "def run(self):\n    kernel.call_every(1.0, self._flush, first=0.0)\n",
         ".call_every() call"),
        ("repro/telemetry/popmetrics.py",
         "def __init__(self, tel):\n    self.timeline = Timeline(tel, capacity=512)\n",
         "Timeline() constructed"),
        ("repro/telemetry/flow.py",
         "def windows(tel):\n    return timeline.Timeline(tel)\n",
         "Timeline() constructed"),
    ],
)
def test_flags_a_second_observer_clock_or_ring(tmp_path, rel, source, what):
    _write(tmp_path, rel, source)
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert f"{rel}:2" in problems[0] and what in problems[0]


@pytest.mark.parametrize(
    "rel, source",
    [
        ("repro/telemetry/monitor.py",
         "def attach(self, kernel):\n    self.timeline = Timeline(self.tel)\n"
         "    return kernel.call_every(self.config.interval, self._tick)\n"),
        ("repro/telemetry/popmetrics.py",
         "def attach(self, kernel):\n"
         "    return kernel.call_every(self.window, self._close_window, first=0.0)\n"),
        # Defining the hook, subscribing to the tick and naming the class are not calls.
        ("repro/simt/hooks.py", "class Kernel:\n    def call_every(self, interval, fn):\n        pass\n"),
        ("repro/steering/controller.py", "def attach(self, monitor):\n    monitor.after_tick.append(self._tick)\n"),
        ("repro/telemetry/__init__.py", "from repro.telemetry.timeline import Timeline\n"),
    ],
)
def test_the_clock_owners_and_the_subscribers_are_allowed(tmp_path, rel, source):
    _write(tmp_path, rel, source)
    assert check_tree(tmp_path) == []


# -- rule 10: one schema table -------------------------------------------------------


@pytest.mark.parametrize(
    "rel, source",
    [
        ("repro/telemetry/popmetrics.py", 'METRICS_SCHEMA = "repro.pop-metrics/1"\n'),
        ("repro/bench/obs.py", 'rows = {"repro.telemetry/2": 0}\n'),
        ("repro/obs/archive.py", 'def tagged(r):\n    return r["schema"] == "repro.health/1"\n'),
    ],
)
def test_flags_a_schema_tag_spelled_outside_the_registry(tmp_path, rel, source):
    _write(tmp_path, rel, source)
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert rel in problems[0] and "schema tag" in problems[0]
    assert "repro.obs.registry" in problems[0]


@pytest.mark.parametrize(
    "rel, source",
    [
        ("repro/obs/registry.py", 'TELEMETRY_SCHEMA = "repro.telemetry/1"\n'),
        # Prose that mentions a tag is not a tag literal.
        ("repro/obs/__main__.py", '"""Tail it: python -m repro.obs tail run.ndjson --schema repro.health/1"""\n'),
        ("repro/obs/sinks.py", 'HELP = "keep only this schema tag, e.g. repro.health/1"\n'),
        # Other slash-versioned strings are not schema tags.
        ("repro/bench/obs.py", 'FORMAT = "evf/2"\nMODULE = "repro.obs"\n'),
    ],
)
def test_the_registry_and_prose_may_name_a_tag(tmp_path, rel, source):
    _write(tmp_path, rel, source)
    assert check_tree(tmp_path) == []


# -- rule 11: analysis state keyed by the ranks seen ---------------------------------


def _state_module(method: str, stmt: str) -> str:
    return (
        "import numpy as np\n\n"
        "class Module:\n"
        f"    def {method}(self, app_size):\n"
        f"        {stmt}\n"
    )


@pytest.mark.parametrize(
    "method, stmt",
    [
        ("__init__", "self.wait_time = np.zeros(app_size)"),
        ("__init__", "self.t0 = np.full(self.app_size, np.inf)"),
        ("update", "seen = np.ones(shape=self.app_size, dtype=bool)"),
        ("merge", "scratch = np.empty(app_size + 1)"),
    ],
)
def test_flags_a_vector_over_every_rank_in_a_state_method(tmp_path, method, stmt):
    _write(tmp_path, "repro/analysis/rogue.py", _state_module(method, stmt))
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "rogue.py:5" in problems[0] and f"inside {method}()" in problems[0]


@pytest.mark.parametrize(
    "rel, method, stmt",
    [
        # A query method builds the dense view, on the root.
        ("repro/analysis/fine.py", "wait_time", "return np.zeros(app_size)"),
        # Vectors not sized by the application are fine in state methods.
        ("repro/analysis/fine.py", "__init__", "self.hist = np.zeros(16)"),
        # Outside analysis/ the rule does not apply.
        ("repro/mpi/fine.py", "__init__", "self.v = np.zeros(app_size)"),
    ],
)
def test_dense_vectors_in_queries_and_elsewhere_are_allowed(tmp_path, rel, method, stmt):
    _write(tmp_path, rel, _state_module(method, stmt))
    assert check_tree(tmp_path) == []


def test_a_missing_rank_keyed_module_is_reported(tmp_path):
    modules = ("profiler", "topology", "density", "waitstate", "otf2proxy", "alerts")
    for name in ("__init__", *modules):  # latesender.py is gone
        _write(tmp_path, f"repro/analysis/{name}.py", "")
    problems = check_tree(tmp_path)
    assert len(problems) == 1, problems
    assert "latesender.py:1" in problems[0] and "RANK_KEYED_MODULES" in problems[0]


# -- rule 12: lean per-pack functions --------------------------------------------------

_PER_PACK_SITES = [
    (rel.as_posix(), cls, fn)
    for rel, classes in PER_PACK_FUNCTIONS.items()
    for cls, fns in classes.items()
    for fn in sorted(fns)
]


def _per_pack_stubs(rel):
    """Clean stubs of the per-pack functions of ``rel`` ("" if it lists none)."""
    return _per_pack_module(rel, None, None, "pass") if Path(rel) in PER_PACK_FUNCTIONS else ""


def _per_pack_module(rel, cls, fn, body):
    """``rel`` with every per-pack function the lint lists for it as a clean
    stub, except ``cls.fn`` = ``body``."""
    lines = []
    for klass, fns in PER_PACK_FUNCTIONS[Path(rel)].items():
        lines.append(f"class {klass}:")
        for name in sorted(fns):
            stmt = body if (klass, name) == (cls, fn) else "pass"
            lines.append(f"    def {name}(self, x=None):\n        {stmt}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "body, what",
    [
        ('name = f"blackboard.ks_cpu_s.{x.name}"', "f-string"),
        ('name = "analysis.packs_rejected.{}".format(x)', "str.format() call"),
        ("taken = [q.popleft() for q in x]", "ListComp"),
        ("short = any(len(q) < 1 for q in x)", "GeneratorExp"),
        ("kinds = {e.type_id for e in x}", "SetComp"),
        ("slots = {t: len(q) for t, q in x.items()}", "DictComp"),
    ],
)
@pytest.mark.parametrize("rel, cls, fn", _PER_PACK_SITES)
def test_flags_formatting_and_comprehensions_in_per_pack_functions(
    tmp_path, rel, cls, fn, body, what
):
    _write(tmp_path, rel, _per_pack_module(rel, cls, fn, body))
    problems = check_tree(tmp_path)
    assert problems, (rel, cls, fn, body)
    assert all(f"per-pack function {cls}.{fn}()" in p for p in problems)
    assert any(what in p for p in problems)


@pytest.mark.parametrize(
    "body",
    [
        'raise ValueError(f"pack app_id {x} has no level")',  # the error path may format
        "total = sum(x)",  # rule 4's container scans are not rule 12's business
        "jobs = [x, self]",  # a literal is no comprehension
    ],
)
def test_per_pack_functions_may_raise_with_a_message_and_build_literals(tmp_path, body):
    rel = "repro/blackboard/board.py"
    _write(tmp_path, rel, _per_pack_module(rel, "Blackboard", "submit", body))
    assert check_tree(tmp_path) == []


def test_per_pack_rule_is_scoped_to_the_listed_functions(tmp_path):
    _write(
        tmp_path,
        "repro/blackboard/jobs.py",
        "class JobQueues:\n"
        "    def push_many(self, jobs):\n        pass\n"
        "    def try_pop(self, start=None):\n        pass\n"
        "    def __len__(self):\n"
        "        return sum(len(q) for q in self._queues)\n",
    )
    _write(
        tmp_path,
        "repro/blackboard/entry.py",
        "class JobQueues:\n    def try_pop(self):\n        return f'{self}'\n",
    )
    assert check_tree(tmp_path) == []


def test_a_renamed_per_pack_function_is_reported(tmp_path):
    _write(
        tmp_path,
        "repro/blackboard/multilevel.py",
        "class MultiLevelBlackboard:\n"
        "    def _dispatch(self, board, entries):\n        pass\n"
        "    def _route(self, entry):\n        pass\n",
    )
    problems = check_tree(tmp_path)
    assert problems == [
        "repro/blackboard/multilevel.py:1: per-pack function "
        "MultiLevelBlackboard._level_of() not found — update PER_PACK_FUNCTIONS "
        "if it moved or was renamed"
    ]


def test_the_pre_rule_knowledge_source_offer_is_flagged(tmp_path):
    # The offer() this rule replaced: an any() generator and two comprehensions
    # per offered entry.
    _write(
        tmp_path,
        "repro/blackboard/ks.py",
        "class KnowledgeSource:\n"
        "    def offer(self, entry):\n"
        "        if any(len(self._pending[t]) < n for t, n in self._needs.items()):\n"
        "            return None\n"
        "        taken = {t: deque(self._pending[t].popleft() for _ in range(n))\n"
        "                 for t, n in self._needs.items()}\n"
        "        return [taken[t].popleft() for t in self.sensitivities]\n",
    )
    problems = check_tree(tmp_path)
    kinds = sorted(p.split(": ")[1].split(" inside")[0] for p in problems)
    assert kinds == ["DictComp", "GeneratorExp", "GeneratorExp", "ListComp"]


# -- rule 13: one schedule --------------------------------------------------------------


@pytest.mark.parametrize(
    "rel, source, what",
    [
        ("repro/mpi/message.py", "from heapq import heappush\n", "imports heappush from heapq"),
        (
            "repro/simt/resources.py",  # in simt/, but not a schedule owner
            "from heapq import heappop, heappush\n",
            "imports heappop, heappush from heapq",
        ),
        (
            "repro/vmpi/stream.py",
            "def wake(kernel, ev):\n    kernel._ready.append(ev)\n",
            "references <expr>._ready",
        ),
        (
            "repro/network/cluster.py",
            "import heapq\n\n"
            "def later(self, ev):\n"
            "    heapq.heappush(self.kernel._heap, (self.kernel.now, 0, ev))\n",
            "references <expr>._heap",
        ),
    ],
)
def test_flags_a_schedule_push_or_container_outside_the_kernel(tmp_path, rel, source, what):
    _write(tmp_path, rel, source)
    problems = [p for p in check_tree(tmp_path) if "schedule" in p]
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"{rel}:") and what in problems[0]


@pytest.mark.parametrize(
    "rel, source",
    [
        ("repro/simt/kernel.py", "from heapq import heappop\n\ndef f(k):\n    k._ready.pop()\n"),
        ("repro/simt/primitives.py", "from heapq import heappush\n\ndef f(k):\n    k._heap\n"),
        ("repro/simt/process.py", "from heapq import heappush\n\ndef f(k):\n    k._ready\n"),
        # a class's own FIFO and heapq on a module's own list are not the schedule
        ("repro/vmpi/stream.py", "class S:\n    def f(self):\n        self._ready.popleft()\n"),
        ("repro/iosim/queue.py", "import heapq\nfrom heapq import heapify\n\nheapify([])\n"),
    ],
)
def test_the_schedule_owners_and_own_containers_are_allowed(tmp_path, rel, source):
    _write(tmp_path, rel, source)
    assert [p for p in check_tree(tmp_path) if "schedule" in p] == []
