"""scripts/reach.py: the stdlib reach collector, its three lists and its gate.

Each trace runs in a child interpreter (the collector installs
``sys.settrace``, which would replace any tracer of this process).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reach.py"

UNITS = "repro/util/units.py"


def _reach(*args, cwd, code=0):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    assert out.returncode == code, out.stderr
    return out.stdout


def _program(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("from repro.util.units import fmt_bytes, fmt_time\n" + body)
    return str(path)


def _key(found, qualname):
    (key,) = [k for k in found["calls"] if k.startswith(UNITS) and k.endswith(":" + qualname)]
    return key


def _sections(report):
    out = {}
    for block in report.split("== ")[1:]:
        title, *items = block.strip().splitlines()
        out[title.split(":")[0]] = {item.strip() for item in items}
    return out


def test_trace_records_reach_and_moved_defaults_and_merges(tmp_path):
    tests = tmp_path / "tests.json"
    _reach("trace", str(tests), _program(tmp_path, "a.py", "fmt_bytes(1)\n"), cwd=tmp_path)
    found = json.loads(tests.read_text())
    binary = _key(found, "fmt_bytes") + ":binary"
    assert binary in found["params"] and binary not in found["moved"]
    assert not any(k.endswith(":fmt_time") for k in found["calls"])
    assert UNITS in found["lines"]

    # A second program merges into the same file: union of reach and moves.
    _reach("trace", str(tests), _program(
        tmp_path, "b.py", "fmt_time(1.0)\nfmt_bytes(2048, binary=True)\n"), cwd=tmp_path)
    merged = json.loads(tests.read_text())
    assert binary in merged["moved"]
    assert _key(merged, "fmt_time") in merged["calls"]
    assert set(found["lines"][UNITS]) < set(merged["lines"][UNITS])


def test_dataclass_fields_are_defaulted_parameters(tmp_path):
    # A config object's fields are options too: its generated __init__ is
    # keyed to the class, and a field set to its default has not moved.
    out = tmp_path / "run.json"
    _reach("trace", str(out), _program(tmp_path, "c.py", (
        "from repro.instrument.overhead import InstrumentationCost\n"
        "InstrumentationCost(block_size=4096, na_buffers=3)\n")), cwd=tmp_path)
    found = json.loads(out.read_text())
    init = "repro/instrument/overhead.py:0:InstrumentationCost.__init__"
    assert f"{init}:block_size" in found["moved"]
    assert f"{init}:na_buffers" in found["params"]
    assert f"{init}:na_buffers" not in found["moved"]
    assert init not in found["calls"]  # not a function of the source tree


def test_report_lists_the_three_kinds(tmp_path):
    tests, run = tmp_path / "tests.json", tmp_path / "run.json"
    _reach("trace", str(tests), _program(
        tmp_path, "t.py", "fmt_time(1.0)\nfmt_bytes(1, binary=True)\n"), cwd=tmp_path)
    _reach("trace", str(run), _program(tmp_path, "r.py", "fmt_bytes(1)\n"), cwd=tmp_path)
    found = json.loads(tests.read_text())
    # Exit 1: importing repro builds NULL_TELEMETRY, and no call in so small
    # a trace moves Telemetry's ``clock`` (the gate's case is below).
    sections = _sections(_reach("report", str(tests), str(run), cwd=tmp_path, code=1))
    fmt_time, fmt_bytes = _key(found, "fmt_time"), _key(found, "fmt_bytes")
    fmt_bw = next(k for k in sections["functions no run reaches"] if k.endswith(":fmt_bw"))

    assert fmt_bw.startswith(UNITS)
    assert fmt_time in sections[f"functions only {tests} reaches"]
    assert fmt_bytes not in sections[f"functions only {tests} reaches"]
    assert fmt_bytes not in sections["functions no run reaches"]
    assert f"{fmt_bytes}:binary" in sections["defaulted parameters only tests move"]
    assert f"{fmt_bytes}:binary" not in sections["defaulted parameters no call moves"]


def test_report_fails_on_an_unmoved_parameter_no_keep_row_names(tmp_path):
    # ArchiveScan's fields are all KEEP rows (a record a run fills); fmt_bytes's
    # ``binary`` is not, so leaving it unmoved fails the report.  Each program
    # moves Telemetry's ``clock``, which importing repro leaves unmoved.
    clock = "from repro.telemetry.core import Telemetry\nTelemetry(clock=float)\n"
    kept, unkept = tmp_path / "kept.json", tmp_path / "unkept.json"
    _reach("trace", str(kept), _program(tmp_path, "k.py", clock + (
        "from repro.obs.archive import ArchiveScan\nArchiveScan()\n")), cwd=tmp_path)
    sections = _sections(_reach("report", str(kept), str(kept), cwd=tmp_path))
    scan = "repro/obs/archive.py:0:ArchiveScan.__init__"
    assert f"{scan}:files_scanned" in sections["defaulted parameters no call moves"]
    assert sections["unmoved parameters no KEEP row names"] == set()

    _reach("trace", str(unkept), _program(tmp_path, "u.py", clock + "fmt_bytes(1)\n"), cwd=tmp_path)
    found = json.loads(unkept.read_text())
    sections = _sections(_reach("report", str(unkept), str(unkept), cwd=tmp_path, code=1))
    binary = _key(found, "fmt_bytes") + ":binary"
    assert sections["unmoved parameters no KEEP row names"] == {binary}
