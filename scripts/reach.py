#!/usr/bin/env python
"""Reach report: which ``src/repro`` functions, lines and keyword values runs use.

    python scripts/reach.py trace OUT.json -m pytest -q      # a module, as with python -m
    python scripts/reach.py trace OUT.json examples/quickstart.py
    python scripts/reach.py report TESTS.json RUN.json [RUN.json ...]

``trace`` runs one program under ``sys.settrace`` and merges into ``OUT.json``
the functions and lines it entered and each defaulted parameter (dataclass
fields included) some call moved off its default; a code object stops being
line-traced once all its lines were seen.  ``report`` counts the lines
entered and lists (1) functions no file reached, (2) those only TESTS.json
reached, (3) defaulted parameters no call moves and those only tests move.
The third list is a gate (DESIGN §3, "Knob rule"): ``report`` exits 1 when
it holds a parameter that no row of :data:`KEEP` names; the rest is a report.
"""
import dis, json, os, runpy, sys, threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PKG = str(SRC / "repro") + os.sep
PLAIN = (int, float, complex, str, bytes, type(None))

#: Why a defaulted parameter no call moves stays settable (DESIGN §3, "Knob rule").
FROZEN = "the frozen benchmark, a README python block or an examples/ script passes it"
CLI = "it carries a CLI flag through (--seed, --telemetry, --scale, --chaos, obs query --kind)"
MPI = "the simulated MPI surface or the paper's VMPI API"
SERIALISED = "a run summary serialises it: removing it moves a fingerprint"
OVERRIDE = "a signature override"
RECORD = "a record container a run fills after construction"

#: ``module:qualname:param`` -> the rule that keeps it on the unmoved list
KEEP = {
    "repro.analysis.report:ProfileReport.__init__:efficiency": RECORD,
    "repro.analysis.report:ProfileReport.__init__:flows": RECORD,
    "repro.analysis.report:ProfileReport.__init__:health": RECORD,
    "repro.analysis.report:ProfileReport.__init__:obs": RECORD,
    "repro.analysis.report:ProfileReport.__init__:reduction": RECORD,
    "repro.analysis.report:ProfileReport.__init__:steering": RECORD,
    "repro.analysis.report:ProfileReport.__init__:telemetry": RECORD,
    "repro.apps.nas.ep:EP.__init__:iterations": OVERRIDE,
    "repro.apps.nas.ep:EP.__init__:klass": OVERRIDE,
    "repro.apps.synthetic:stream_writer_program:reader_partition": FROZEN,
    "repro.bench.chaos:chaos_resilience:seed": CLI,
    "repro.bench.chaos:chaos_resilience:telemetry": CLI,
    "repro.bench.codec:codec_reduction:seed": CLI,
    "repro.bench.codec:codec_reduction:telemetry": CLI,
    "repro.bench.compare:BenchComparison.__init__:deltas": RECORD,
    "repro.bench.compare:BenchComparison.__init__:structural": RECORD,
    "repro.bench.compare:BenchComparison.__init__:warnings": RECORD,
    "repro.bench.figures:Fig17Result.__init__:artifacts": RECORD,
    "repro.bench.figures:Fig17Result.__init__:extras": RECORD,
    "repro.bench.figures:Fig17Result.__init__:points": RECORD,
    "repro.bench.figures:fig14_stream_throughput:seed": CLI,
    "repro.bench.figures:fig14_stream_throughput:telemetry": CLI,
    "repro.bench.figures:fig15_overhead:seed": CLI,
    "repro.bench.figures:fig15_overhead:telemetry": CLI,
    "repro.bench.figures:fig16_tool_comparison:seed": CLI,
    "repro.bench.figures:fig16_tool_comparison:telemetry": CLI,
    "repro.bench.figures:fig17_topology:seed": CLI,
    "repro.bench.figures:fig17_topology:telemetry": CLI,
    "repro.bench.figures:fig18_density:seed": CLI,
    "repro.bench.figures:fig18_density:telemetry": CLI,
    "repro.bench.flow:flow_attribution:seed": CLI,
    "repro.bench.flow:flow_attribution:telemetry": CLI,
    "repro.bench.harness:measure_overhead:seed": FROZEN,
    "repro.bench.harness:measure_overhead:telemetry": CLI,
    "repro.bench.metrics:metrics_timeline:seed": CLI,
    "repro.bench.metrics:metrics_timeline:telemetry": CLI,
    "repro.bench.obs:obs_roundtrip:seed": CLI,
    "repro.bench.selfperf:_run_once:telemetry": CLI,
    "repro.bench.selfperf:selfperf_sweep:seed": CLI,
    "repro.bench.selfperf:selfperf_sweep:telemetry": CLI,
    "repro.bench.steering:steering_adaptation:seed": CLI,
    "repro.bench.steering:steering_adaptation:telemetry": CLI,
    "repro.bench.tables:bi_bandwidth_table:seed": CLI,
    "repro.bench.tables:bi_bandwidth_table:telemetry": CLI,
    "repro.bench.tables:fs_comparison_table:seed": CLI,
    "repro.bench.tables:fs_comparison_table:telemetry": CLI,
    "repro.bench.tables:trace_size_table:seed": CLI,
    "repro.bench.tables:trace_size_table:telemetry": CLI,
    "repro.blackboard.jobs:Job.__init__:t_submitted": RECORD,
    "repro.codec.stages:CodecContext.__init__:events_dropped": RECORD,
    "repro.core.comparison:run_tool:telemetry": CLI,
    "repro.mpi.communicator:Comm.gather:root": MPI,
    "repro.mpi.communicator:Comm.reduce:reduce_fn": MPI,
    "repro.mpi.communicator:Comm.scatter:root": MPI,
    "repro.mpi.communicator:Comm.sendrecv:recv_tag": MPI,
    "repro.mpi.launcher:RankProcess.succeed:value": OVERRIDE,
    "repro.obs.archive:ArchiveScan.__init__:files_scanned": RECORD,
    "repro.obs.archive:ArchiveScan.__init__:files_skipped": RECORD,
    "repro.obs.archive:ArchiveScan.__init__:records_matched": RECORD,
    "repro.obs.archive:ArchiveScan.__init__:records_read": RECORD,
    "repro.obs.archive:ArchiveScan.__init__:unknown_schemas": RECORD,
    "repro.obs.archive:iter_archive:kind": CLI,
    "repro.steering.controller:SteeringDecision.__init__:latency_after_s": RECORD,
    "repro.steering.controller:SteeringDecision.__init__:latency_before_s": RECORD,
    "repro.steering.policy:SteeringPolicy.__init__:autoscale_cooldown_s": SERIALISED,
    "repro.steering.policy:SteeringPolicy.__init__:relax_after_s": SERIALISED,
    "repro.steering.policy:SteeringPolicy.__init__:relax_cooldown_s": SERIALISED,
    "repro.telemetry.hostprof:_HostSpan.__init__:t1": RECORD,
    "repro.telemetry.monitor:HealthAlert.__init__:source": SERIALISED,
    "repro.util.stats:Histogram.__init__:counts": RECORD,
    "repro.util.stats:Histogram.__init__:over": RECORD,
    "repro.util.stats:Histogram.__init__:under": RECORD,
    "repro.vmpi.mapping:VMPIMap.__init__:by_partition": MPI,
    "repro.vmpi.mapping:VMPIMap.__init__:entries": MPI,
}



def _key(path, line, qualname):
    return f"{os.path.relpath(path, SRC)}:{line}:{qualname}"


def _function(frame, code):
    """(key, function) behind a frame: a module- or class-level function of
    the package (function None when nested or wrapped), or the ``__init__``
    a package dataclass compiled from a string; None for anything else."""
    if code.co_filename == "<string>" and code.co_name == "__init__":
        for cls in type(frame.f_locals.get("self")).__mro__:
            init = vars(cls).get("__init__")
            if getattr(init, "__code__", None) is code and cls.__module__.startswith("repro."):
                return _key(sys.modules[cls.__module__].__file__, 0, f"{cls.__qualname__}.__init__"), init
        return None
    if not os.path.abspath(code.co_filename).startswith(PKG):
        return None
    qualname, obj = getattr(code, "co_qualname", code.co_name), frame.f_globals
    for part in qualname.split("."):
        obj = (obj if isinstance(obj, dict) else getattr(obj, "__dict__", {})).get(part)
    obj = getattr(obj, "__func__", obj)  # staticmethod, classmethod
    return _key(code.co_filename, code.co_firstlineno, qualname), obj if getattr(obj, "__code__", None) is code else None


def _defaults(fn, code):
    """(name, default) of each defaulted parameter of ``fn``."""
    names, pos = code.co_varnames[: code.co_argcount], getattr(fn, "__defaults__", None) or ()
    return [*zip(names[len(names) - len(pos):], pos), *(getattr(fn, "__kwdefaults__", None) or {}).items()]


def trace(out, argv):
    old = json.loads(Path(out).read_text()) if Path(out).exists() else {}
    lines = {f: set(v) for f, v in old.get("lines", {}).items()}
    calls, params, moved = (set(old.get(k, ())) for k in ("calls", "params", "moved"))
    state = {}  # code -> False (not ours) | [key, lines left, defaults left, entry offset, lines seen]

    def line(frame, event, arg):
        st = state[frame.f_code]
        st[4].add(frame.f_lineno), st[1].discard(frame.f_lineno)
        return line if st[1] else None

    def call(frame, event, arg):
        code = frame.f_code
        if (st := state.get(code)) is None:
            if (found := _function(frame, code)) is None:
                state[code] = False
                return None
            key, fn = found
            ours = code.co_filename != "<string>"
            entry = [i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"] + [-1]
            st = state[code] = [key, {n for *_, n in code.co_lines() if n} if ours else set(), _defaults(fn, code),
                                entry[0], lines.setdefault(key.split(":")[0], set()) if ours else set()]
            params.update(f"{key}:{name}" for name, _ in st[2])
            if ours:
                calls.add(key)
        elif st is False:
            return None
        if st[2] and frame.f_lasti <= st[3]:  # entered, not a generator resuming
            values, left = frame.f_locals, []
            for name, d in st[2]:
                v = values.get(name, d)
                same = v is d or type(v) is type(d) and isinstance(v, PLAIN) and v == d
                left.append((name, d)) if same else moved.add(f"{st[0]}:{name}")
            st[2] = left
        return line if st[1] else None

    sys.argv = argv[1:] if argv[0] == "-m" else argv
    sys.path.insert(0, os.getcwd())
    threading.settrace(call), sys.settrace(call)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.settrace(None), threading.settrace(None)
        found = {"lines": {f: sorted(v) for f, v in sorted(lines.items())}, "calls": sorted(calls),
                 "params": sorted(params), "moved": sorted(moved)}
        Path(out).write_text(json.dumps(found, indent=0) + "\n")


def _keep_key(key):
    """``module:qualname:param`` of a report key ``path:line:qualname:param``."""
    path, _line, qualname, param = key.split(":")
    module = path.removesuffix(".py").replace(os.sep, ".").removesuffix(".__init__")
    return f"{module}:{qualname}:{param}"


def report(first, *rest):
    """Print the lists; False when an unmoved parameter has no KEEP row."""
    runs = [json.loads(Path(f).read_text()) for f in (first, *rest)]
    every, lines = set(), set()
    codes = [compile(p.read_text(), str(p), "exec") for p in sorted((SRC / "repro").rglob("*.py"))]
    while codes:  # CO_OPTIMIZED: functions, not module or class bodies
        code = codes.pop()
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
        qualname = getattr(code, "co_qualname", code.co_name)
        every |= {_key(code.co_filename, code.co_firstlineno, qualname)} if code.co_flags & 1 and code.co_name[0] != "<" else set()
        lines |= {(os.path.relpath(code.co_filename, SRC), n) for *_, n in code.co_lines() if n}
    entered = [{(f, n) for f, ns in r["lines"].items() for n in ns} & lines for r in runs]
    print(f"== lines entered: {len(entered[0])} by {first}, {len(set().union(*entered[1:]))} by the"
          f" rest, {len(lines - set().union(*entered))} by none, of {len(lines)}")
    tests, other = set(runs[0]["calls"]), set().union(*(r["calls"] for r in runs[1:]))
    by_tests, by_other = set(runs[0]["moved"]), set().union(*(r["moved"] for r in runs[1:]))
    params = set().union(*(r["params"] for r in runs))
    unmoved = params - by_tests - by_other
    unkept = {k for k in unmoved if _keep_key(k) not in KEEP}
    for title, names in (("functions no run reaches", every - tests - other),
                         (f"functions only {first} reaches", (tests - other) & every),
                         ("defaulted parameters no call moves", unmoved),
                         ("defaulted parameters only tests move", by_tests - by_other),
                         ("unmoved parameters no KEEP row names", unkept)):
        print(f"== {title}: {len(names)}", *sorted(names), sep="\n  ")
    return not unkept


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[1] not in ("trace", "report"):
        sys.exit(__doc__)
    if sys.argv[1] == "trace":
        trace(sys.argv[2], sys.argv[3:])
    elif not report(*sys.argv[2:]):
        sys.exit(1)
