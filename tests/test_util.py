"""Utility layer: units, RNG derivation, stats, tables."""

import pytest

from repro.errors import ConfigError
from repro.util import (
    GB,
    GIB,
    Histogram,
    KIB,
    MIB,
    RunningStats,
    SeedSequence,
    Table,
    derive_rng,
    fmt_bw,
    fmt_bytes,
    fmt_time,
    parse_size,
)


class TestUnits:
    def test_constants(self):
        assert KIB == 1024 and MIB == 1024**2 and GIB == 1024**3
        assert GB == 10**9

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("1 KB", 1000),
            ("1KiB", 1024),
            ("2.5 MB", 2_500_000),
            ("1 GiB", 1024**3),
            ("3G", 3 * 10**9),
            (4096, 4096),
            (1.5, 1),
        ],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12 XB", "-5 MB", -3])
    def test_parse_size_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_size(bad)

    def test_fmt_bytes_decimal(self):
        assert fmt_bytes(1.2e9) == "1.20 GB"
        assert fmt_bytes(999) == "999 B"
        assert fmt_bytes(0) == "0 B"

    def test_fmt_bytes_binary(self):
        assert fmt_bytes(1024, binary=True) == "1.00 KiB"

    def test_fmt_bytes_negative(self):
        assert fmt_bytes(-1.2e9).startswith("-")

    def test_fmt_bw(self):
        assert fmt_bw(9.85e10) == "98.50 GB/s"

    @pytest.mark.parametrize(
        "seconds,contains",
        [(0, "0 s"), (5e-9, "ns"), (5e-6, "us"), (5e-3, "ms"), (5, "s"), (300, "min"), (8000, "h")],
    )
    def test_fmt_time_units(self, seconds, contains):
        assert contains in fmt_time(seconds)


class TestSeedSequence:
    def test_deterministic(self):
        a = SeedSequence(42).child_seed("x", 1)
        b = SeedSequence(42).child_seed("x", 1)
        assert a == b

    def test_labels_independent(self):
        seq = SeedSequence(42)
        assert seq.child_seed("x") != seq.child_seed("y")

    def test_root_seed_matters(self):
        assert SeedSequence(1).child_seed("x") != SeedSequence(2).child_seed("x")

    def test_child_rngs_reproducible(self):
        r1 = derive_rng(7, "stream", 3)
        r2 = derive_rng(7, "stream", 3)
        assert [r1.random() for _ in range(5)] == [r2.random() for _ in range(5)]

    def test_child_np(self):
        g = SeedSequence(7).child_np("np")
        h = SeedSequence(7).child_np("np")
        assert (g.integers(0, 100, 10) == h.integers(0, 100, 10)).all()


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0 and s.mean == 0.0 and s.variance == 0.0

    def test_basic_moments(self):
        s = RunningStats()
        for v in [1.0, 2.0, 3.0, 4.0]:
            s.add(v)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.total == pytest.approx(10.0)
        assert s.min == 1.0 and s.max == 4.0
        assert s.variance == pytest.approx(1.25)

    def test_merge_equals_sequential(self):
        data = [float(i * i % 17) for i in range(50)]
        whole = RunningStats()
        for v in data:
            whole.add(v)
        left, right = RunningStats(), RunningStats()
        for v in data[:20]:
            left.add(v)
        for v in data[20:]:
            right.add(v)
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean)
        assert left.variance == pytest.approx(whole.variance)
        assert left.min == whole.min and left.max == whole.max

    def test_merge_empty_sides(self):
        a, b = RunningStats(), RunningStats()
        a.add(5.0)
        a.merge(b)
        assert a.count == 1
        b.merge(a)
        assert b.count == 1 and b.mean == 5.0

    def test_as_dict(self):
        s = RunningStats()
        s.add(2.0)
        d = s.as_dict()
        assert d["count"] == 1 and d["mean"] == 2.0


# Expected values printed by the two pre-merge copies (``HistogramMetric.percentile``
# and ``telemetry.flow._percentile``, which agreed) over the samples 1.0 .. n.
_NEAREST_RANK_QS = (0, 50, 95, 99, 100)
_NEAREST_RANK_TABLE = {
    0: (0.0, 0.0, 0.0, 0.0, 0.0),
    1: (1.0, 1.0, 1.0, 1.0, 1.0),
    2: (1.0, 1.0, 2.0, 2.0, 2.0),
    19: (1.0, 10.0, 19.0, 19.0, 19.0),
    20: (1.0, 10.0, 19.0, 20.0, 20.0),
    100: (1.0, 50.0, 95.0, 99.0, 100.0),
}


@pytest.mark.parametrize("n", sorted(_NEAREST_RANK_TABLE))
def test_nearest_rank_table_and_its_two_callers_agree(n):
    from repro.telemetry import Telemetry
    from repro.telemetry.flow import _stats
    from repro.util.stats import nearest_rank

    ordered = [float(v) for v in range(1, n + 1)]
    assert tuple(nearest_rank(ordered, q) for q in _NEAREST_RANK_QS) == _NEAREST_RANK_TABLE[n]
    hist = Telemetry().histogram("x")
    for value in reversed(ordered):  # the histogram sorts its reservoir itself
        hist.observe(value)
    assert tuple(hist.percentile(q) for q in _NEAREST_RANK_QS) == _NEAREST_RANK_TABLE[n]
    stats = _stats(list(reversed(ordered)))
    assert (stats["p50_s"], stats["p95_s"]) == _NEAREST_RANK_TABLE[n][1:3]


class TestHistogram:
    def test_binning(self):
        h = Histogram(0.0, 10.0, nbins=10)
        for v in [0.5, 1.5, 9.99]:
            h.add(v)
        assert h.counts[0] == 1 and h.counts[1] == 1 and h.counts[9] == 1

    def test_overflow_underflow(self):
        h = Histogram(0.0, 1.0, nbins=4)
        h.add(-1.0)
        h.add(2.0)
        assert h.under == 1 and h.over == 1 and h.total == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, nbins=0)

    def test_bin_edges(self):
        h = Histogram(0.0, 1.0, nbins=4)
        assert h.bin_edges() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


class TestTable:
    def test_render_aligns_columns(self):
        t = Table(["name", "value"], title="demo")
        t.add_row("alpha", 1.5)
        t.add_row("b", 20000.123)
        out = t.render()
        assert "demo" in out
        lines = out.splitlines()
        assert len({len(line) for line in lines[1:3]}) == 1  # header == rule width

    def test_row_arity_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_to_csv(self):
        t = Table(["a", "b"])
        t.add_row(1, 2)
        assert t.to_csv() == "a,b\n1,2"

    def test_extend(self):
        t = Table(["a"])
        t.extend([[1], [2]])
        assert len(t.rows) == 2

    def test_float_formatting(self):
        t = Table(["v"])
        t.add_row(0.000001234)
        t.add_row(123456.789)
        t.add_row(0)
        csv = t.to_csv().splitlines()
        assert csv[1] == "1.234e-06"
        assert csv[3] == "0"
