"""Smoke test of the e2e benchmark itself.  Run by path (tier-1 collects
``tests/`` only)::

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

One ``run.py --quick --repeats 1`` (every workload at about a tenth of its
size, under 30 s) feeds most checks.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def layer_self_s(per_layer: dict) -> dict:
    return {k.removesuffix(".self_s"): v for k, v in per_layer.items() if k.endswith(".self_s")}


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e-quick")
    proc = run_py("--quick", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    document = json.loads((out / "results.json").read_text())
    document["_out"] = out
    return document


def test_benchmark_json_obeys_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in spec["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(
        re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        for m in spec["end_to_end"] + spec["per_layer"]
    )


def test_quick_run_reports_the_declared_names(quick, spec):
    assert list(quick["workloads"]) == [w["name"] for w in spec["workloads"]]
    for name, record in quick["workloads"].items():
        assert NAME.fullmatch(name)
        assert set(record["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert all(value > 0 for value in record["end_to_end"].values())
        assert set(record["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert record["failed"] == 0 and record["attempted"] > 0


def test_layers_telescope_to_traced_wall(quick):
    for name, record in quick["workloads"].items():
        layers = record["per_layer"]
        booked = sum(layer_self_s(layers).values()) + layers["trace.unattributed_s"]
        assert booked == pytest.approx(layers["trace.wall_s"], rel=0.02), name
        assert (quick["_out"] / f"{name}.trace.json").is_file()


def test_observer_planes_are_free_when_off(quick):
    for name, record in quick["workloads"].items():
        layers = record["per_layer"]
        if name == "observed_faulted":
            assert layers["planes.calls"] > 0 and layers["planes.faults_injected"] > 0
        else:
            assert layers["planes.calls"] == 0 and layers["planes.self_s"] == 0.0, name


def test_layers_a_workload_bypasses_read_zero(quick):
    sweep = quick["workloads"]["stream_sweep"]["per_layer"]
    assert all(sweep[f"{layer}.self_s"] == 0.0
               for layer in ("instrument", "codec", "blackboard", "analysis"))
    pipeline = layer_self_s(quick["workloads"]["pack_pipeline"]["per_layer"])
    assert all(pipeline[layer] == 0.0 for layer in ("simt", "mpi", "vmpi"))
    assert pipeline["codec"] == max(pipeline.values())


def test_corrupted_golden_entry_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["quick"]["0"]["reduced_coupled"]["session"]["packs"] += 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc = run_py("--quick", "--repeats", "1", "--workload", "reduced_coupled",
                  "--golden", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    record = json.loads((tmp_path / "results.json").read_text())["workloads"]["reduced_coupled"]
    assert record["failed"] > 0 and "differs from golden" in record["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_py("--workload", "stream_sweep", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_ruff_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff is not installed in this image")
    proc = subprocess.run(["ruff", "check", "benchmarks"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
