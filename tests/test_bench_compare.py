"""Bench regression gate: payload diffing and the compare CLI."""

import json
from pathlib import Path

import pytest

from repro.bench import LANES
from repro.bench.compare import (
    compare_bench,
    compare_files,
    load_bench_json,
    metric_direction,
)
from repro.bench.__main__ import main as bench_main
from repro.errors import BenchGateError, ConfigError


def payload(rows, columns=("writers", "throughput_GBps", "overhead_pct"),
            experiment="fig14"):
    return {
        "experiment": experiment,
        "scale": "small",
        "seed": 0,
        "elapsed_s": 1.0,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
    }


BASE = payload([["64", "10.0", "5.0"], ["128", "20.0", "5.0"]])


class TestDirection:
    def test_classification(self):
        assert metric_direction("throughput_GBps") == "higher"
        assert metric_direction("fs_scaled_GBps") == "higher"
        assert metric_direction("bi_bandwidth") == "higher"
        assert metric_direction("overhead_pct") == "lower"
        assert metric_direction("walltime_s") == "lower"
        assert metric_direction("trace_size_MB") == "lower"
        assert metric_direction("writers") == "either"
        assert metric_direction("ratio") == "either"

    def test_selfperf_throughputs_are_higher_better(self):
        assert metric_direction("kernel_events_per_s") == "higher"
        assert metric_direction("stream_mb_per_s") == "higher"
        assert metric_direction("codec_mb_per_s") == "higher"
        assert metric_direction("frame_mb_per_s") == "higher"


class TestCompare:
    def test_identical_passes(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"], ["128", "20.0", "5.0"]]))
        assert cmp.ok
        assert cmp.regressions == []
        assert "PASS" in cmp.render()

    def test_throughput_drop_regresses(self):
        cand = payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])
        cmp = compare_bench(BASE, cand, tolerance=0.05)
        assert not cmp.ok
        assert len(cmp.regressions) == 1
        d = cmp.regressions[0]
        assert d.column == "throughput_GBps" and d.row == 0
        assert d.rel_delta == pytest.approx(-0.2)
        assert "FAIL" in cmp.render()

    def test_throughput_gain_improves_never_fails(self):
        cand = payload([["64", "15.0", "5.0"], ["128", "40.0", "5.0"]])
        cmp = compare_bench(BASE, cand)
        assert cmp.ok
        assert len(cmp.improvements) == 2

    def test_overhead_growth_regresses_and_shrink_improves(self):
        worse = payload([["64", "10.0", "6.0"], ["128", "20.0", "5.0"]])
        assert not compare_bench(BASE, worse).ok
        better = payload([["64", "10.0", "4.0"], ["128", "20.0", "5.0"]])
        cmp = compare_bench(BASE, better)
        assert cmp.ok and len(cmp.improvements) == 1

    def test_parameter_drift_regresses_both_directions(self):
        cand = payload([["70", "10.0", "5.0"], ["128", "20.0", "5.0"]])
        cmp = compare_bench(BASE, cand)
        assert not cmp.ok
        assert cmp.regressions[0].column == "writers"

    def test_within_tolerance_is_ok(self):
        cand = payload([["64", "9.8", "5.1"], ["128", "20.0", "5.0"]])
        cmp = compare_bench(BASE, cand, tolerance=0.05)
        assert cmp.ok
        assert cmp.improvements == []

    def test_per_metric_tolerance_overrides_default(self):
        cand = payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])
        loose = compare_bench(BASE, cand, per_metric={"throughput_GBps": 0.3})
        assert loose.ok
        tight = compare_bench(
            BASE, payload([["64", "9.9", "5.0"], ["128", "20.0", "5.0"]]),
            per_metric={"throughput_GBps": 0.001},
        )
        assert not tight.ok

    def test_zero_baseline_handles_divide(self):
        base = payload([["64", "0.0", "5.0"]])
        same = payload([["64", "0.0", "5.0"]])
        assert compare_bench(base, same).ok
        grew = payload([["64", "3.0", "5.0"]])
        cmp = compare_bench(base, grew)
        assert cmp.ok  # higher-better from zero is an improvement
        assert cmp.improvements[0].rel_delta == float("inf")

    def test_textual_cells_must_match(self):
        cols = ("tool", "overhead_pct")
        base = payload([["mpiP", "5.0"]], columns=cols, experiment="fig16")
        ok = payload([["mpiP", "5.0"]], columns=cols, experiment="fig16")
        assert compare_bench(base, ok).ok
        renamed = payload([["Scalasca", "5.0"]], columns=cols, experiment="fig16")
        assert not compare_bench(base, renamed).ok

    def test_elapsed_is_never_compared(self):
        cols = ("writers", "elapsed_s")
        base = payload([["64", "1.0"]], columns=cols)
        cand = payload([["64", "99.0"]], columns=cols)
        assert compare_bench(base, cand).ok


HOST = {
    "python": "3.11.7", "implementation": "CPython",
    "platform": "Linux-x86_64", "machine": "x86_64", "cpu_count": 8,
}


class TestEnvironmentWarnings:
    def test_matching_hosts_are_silent(self):
        base, cand = dict(BASE, host=dict(HOST)), dict(BASE, host=dict(HOST))
        cmp = compare_bench(base, cand)
        assert cmp.ok and cmp.warnings == []

    def test_mismatch_warns_but_never_fails(self):
        other = dict(HOST, python="3.12.1", cpu_count=2)
        cmp = compare_bench(dict(BASE, host=dict(HOST)), dict(BASE, host=other))
        assert cmp.ok  # warnings are informational only
        assert len(cmp.warnings) == 2
        rendered = cmp.render()
        assert "[~] warning" in rendered and "PASS" in rendered
        assert any("python" in w and "3.12.1" in w for w in cmp.warnings)

    def test_artefacts_without_header_compare_silently(self):
        assert compare_bench(BASE, dict(BASE, host=dict(HOST))).warnings == []
        assert compare_bench(dict(BASE, host=dict(HOST)), BASE).warnings == []


class TestStructural:
    def test_experiment_mismatch(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"]], experiment="fig15"))
        assert not cmp.ok
        assert "experiment mismatch" in cmp.structural[0]

    def test_row_count_change(self):
        cmp = compare_bench(BASE, payload([["64", "10.0", "5.0"]]))
        assert not cmp.ok
        assert any("row count" in s for s in cmp.structural)

    def test_column_changes(self):
        cand = payload(
            [["64", "10.0"], ["128", "20.0"]], columns=("writers", "throughput_GBps")
        )
        cmp = compare_bench(BASE, cand)
        assert not cmp.ok
        assert any("lost columns" in s for s in cmp.structural)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            compare_bench(BASE, BASE, tolerance=-1.0)
        with pytest.raises(ConfigError):
            compare_bench(BASE, BASE, per_metric={"x": -0.1})


class TestFiles:
    def test_load_validates_shape(self, tmp_path):
        with pytest.raises(ConfigError):
            load_bench_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            load_bench_json(bad)
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"experiment": "x"}))
        with pytest.raises(ConfigError):
            load_bench_json(partial)

    def test_compare_files_roundtrip(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(BASE))
        b.write_text(json.dumps(payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])))
        assert compare_files(a, a).ok
        assert not compare_files(a, b).ok


class TestCLI:
    def test_compare_exit_codes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(BASE))
        b.write_text(json.dumps(payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])))
        assert bench_main(["compare", str(a), str(a)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert bench_main(["compare", str(a), str(b)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_cli_tolerance_flags(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(BASE))
        b.write_text(json.dumps(payload([["64", "8.0", "5.0"], ["128", "20.0", "5.0"]])))
        assert bench_main(["compare", str(a), str(b), "--tolerance", "0.5"]) == 0
        capsys.readouterr()
        assert bench_main(
            ["compare", str(a), str(b), "--metric-tolerance", "throughput_GBps=0.3"]
        ) == 0

    def test_compare_cli_bad_metric_tolerance(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(BASE))
        rc = bench_main(["compare", str(a), str(a), "--metric-tolerance", "nope"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --metric-tolerance")

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--chaos", "nope"],
            ["compare", "/nope.json", "x.json"],
            ["codec", "--baseline", "/nope.json"],
            ["codec", "--metric-tolerance", "bogus"],
            ["codec", "--metric-tolerance", "ratio=-0.1"],
            ["codec", "--tolerance", "-1"],
        ],
        ids=[
            "unknown-plan", "compare-missing-file", "baseline-missing-file",
            "metric-tolerance-shape", "metric-tolerance-negative", "tolerance-negative",
        ],
    )
    def test_bad_input_is_one_error_line_before_any_run(self, argv, fake_lane, capsys):
        def must_not_run(**kwargs):
            raise AssertionError("the experiment ran before its flags were checked")

        for name in list(LANES):
            fake_lane(name, must_not_run)
        assert bench_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_violated_gate_is_fail_line_and_exit_1(self, fake_lane, capsys):
        def broken(**kwargs):
            raise BenchGateError("writer wire bytes 1 != analyzer wire bytes 2")

        fake_lane("codec", broken)
        assert bench_main(["codec"]) == 1
        assert capsys.readouterr().err.startswith("FAIL codec: writer wire bytes")

    def test_baseline_flag_rejected_with_all(self):
        with pytest.raises(SystemExit):
            bench_main(["all", "--baseline", "benchmarks/baselines/BENCH_fig14.json"])

    # The CI gate in miniature: regenerate at --scale small and self-gate
    # against the committed baseline artefact.  The rows are virtual-time
    # results, so beyond the tolerance gate they must equal the baseline cell
    # for cell as strings: drift in any layer under a lane shows up here.
    @pytest.mark.parametrize("lane", ["fig14", "chaos", "codec", "flow", "metrics"])
    def test_committed_baseline_matches_regeneration(self, lane, tmp_path, capsys):
        baseline = f"benchmarks/baselines/BENCH_{lane}.json"
        rc = bench_main([
            lane, "--scale", "small", "--json",
            "--outdir", str(tmp_path),
            "--baseline", baseline,
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out
        fresh = json.loads((tmp_path / f"BENCH_{lane}.json").read_text())
        assert fresh["rows"] == load_bench_json(baseline)["rows"]


class TestBaselines:
    def test_every_baseline_names_a_lane_and_its_declared_columns(self):
        # Static: no simulation runs.  A renamed column or a retired lane
        # must fail here, not minutes into the CI matrix.
        paths = sorted(Path("benchmarks/baselines").glob("BENCH_*.json"))
        assert paths
        for path in paths:
            payload = load_bench_json(path)
            lane = LANES.get(payload["experiment"])
            assert lane is not None, f"{path}: unknown lane {payload['experiment']!r}"
            assert path.name == f"BENCH_{lane.name.replace('-', '_')}.json"
            assert payload["columns"] == [c.name for c in lane.columns], path
