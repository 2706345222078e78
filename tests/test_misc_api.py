"""Coverage for the remaining public API surface: datatypes, status,
CLI driver, harness helpers, stream channels, cost model edges."""

import pytest

from repro.errors import ConfigError
from repro.mpi.datatypes import BYTE, DOUBLE, INT, PREDEFINED, Datatype
from repro.mpi.status import Status


class TestDatatypes:
    def test_sizes(self):
        assert BYTE.size == 1 and INT.size == 4 and DOUBLE.size == 8

    def test_count_bytes(self):
        assert DOUBLE.count_bytes(10) == 80
        with pytest.raises(ValueError):
            DOUBLE.count_bytes(-1)

    def test_registry(self):
        assert PREDEFINED["MPI_DOUBLE"] is DOUBLE
        assert str(INT) == "MPI_INT"

    def test_custom_datatype(self):
        pair = Datatype("PAIR", 16)
        assert pair.count_bytes(2) == 32


class TestStatus:
    def test_count(self):
        st = Status(source=1, tag=2, nbytes=80)
        assert st.count(8) == 10
        with pytest.raises(ValueError):
            st.count(0)

    def test_frozen(self):
        st = Status(source=0, tag=0, nbytes=0)
        with pytest.raises(Exception):
            st.source = 5  # type: ignore[misc]


class TestCLI:
    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_bad_scale_rejected(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig14", "--scale", "huge"])

    def test_runs_a_driver(self, capsys, fake_lane):
        import repro.bench.__main__ as cli
        from repro.bench.lane import Column, LaneResult

        result = LaneResult("fake", (Column("x", lambda p: p),), points=[1])
        fake_lane("fig14", lambda scale, seed: result)
        assert cli.main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "fake" in out and "regenerated" in out

    def test_csv_mode(self, capsys, fake_lane):
        import repro.bench.__main__ as cli
        from repro.bench.lane import Column, LaneResult

        columns = (Column("a", lambda p: p[0]), Column("b", lambda p: p[1]))
        result = LaneResult("", columns, points=[(1, 2)])
        fake_lane("fig15", lambda scale, seed: result)
        cli.main(["fig15", "--csv"])
        assert "a,b\n1,2" in capsys.readouterr().out


class TestHarness:
    def test_overhead_point_properties(self):
        from repro.bench.harness import OverheadPoint

        p = OverheadPoint(
            app="X", nprocs=4, t_reference=2.0, t_instrumented=2.2,
            events=100, modeled_stream_bytes=4400,
        )
        assert p.overhead_pct == pytest.approx(10.0)
        assert p.bi_bandwidth == pytest.approx(2000.0)
        zero = OverheadPoint("X", 1, 0.0, 0.0, 0, 0)
        assert zero.overhead_pct == 0.0 and zero.bi_bandwidth == 0.0


class TestStreamChannels:
    def test_two_channels_between_same_partitions_do_not_mix(self, machine):
        """Independent streams on distinct channels keep their data apart."""
        from repro.vmpi import EOF, ROUND_ROBIN, VMPIMap, VMPIStream, map_partitions
        from repro.vmpi.virtualization import VirtualizedLauncher

        received = {1: [], 2: []}

        def writer(mpi):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
            st1 = VMPIStream(channel=1)
            st2 = VMPIStream(channel=2)
            yield from st1.open_map(mpi, vmap, "w")
            yield from st2.open_map(mpi, vmap, "w")
            yield from st1.write(nbytes=100, payload="one")
            yield from st2.write(nbytes=100, payload="two")
            yield from st1.close()
            yield from st2.close()
            yield from mpi.finalize()

        def reader(mpi):
            yield from mpi.init()
            vmap = VMPIMap()
            yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
            st1 = VMPIStream(channel=1)
            st2 = VMPIStream(channel=2)
            yield from st1.open_map(mpi, vmap, "r")
            yield from st2.open_map(mpi, vmap, "r")
            for channel, st in ((1, st1), (2, st2)):
                while True:
                    n, payload = yield from st.read()
                    if n == EOF:
                        break
                    received[channel].append(payload)
            yield from mpi.finalize()

        launcher = VirtualizedLauncher(machine=machine)
        launcher.add_program("W", nprocs=1, main=writer)
        launcher.add_program("Analyzer", nprocs=1, main=reader)
        launcher.run()
        assert received == {1: ["one"], 2: ["two"]}


class TestCostModelEdges:
    def test_for_machine_uses_occupancy(self, machine):
        from repro.mpi.costmodel import CostModel

        packed = CostModel.for_machine(machine)
        solo = CostModel.for_machine(machine, ranks_per_node=1)
        assert solo.beta <= packed.beta  # a lone rank gets a bigger share

    def test_bad_occupancy_rejected(self, machine):
        from repro.mpi.costmodel import CostModel

        with pytest.raises(ConfigError):
            CostModel.for_machine(machine, ranks_per_node=0)

    def test_negative_bytes_rejected(self):
        from repro.mpi.costmodel import CostModel

        with pytest.raises(ConfigError):
            CostModel().collective_cost("bcast", 4, -1)


class TestFatTreeExtras:
    def test_bisection_links_positive(self):
        from repro.network.fattree import FatTree

        assert FatTree(100, radix=18).bisection_links() > 0

    def test_report_chapter_alerts_render(self):
        from repro.analysis import AlertMonitor
        from repro.analysis.report import ApplicationReport

        monitor = AlertMonitor("x", 2)
        chapter = ApplicationReport(app="x", app_size=2, alerts=monitor)
        assert "Real-time alerts" in chapter.render()
        assert "none raised" in chapter.render()

    def test_report_chapter_proxy_render(self):
        from repro.analysis import OTF2Proxy
        from repro.analysis.report import ApplicationReport

        proxy = OTF2Proxy("x", 2)
        chapter = ApplicationReport(app="x", app_size=2, otf2proxy=proxy)
        text = chapter.render()
        assert "Selective trace" in text and "selectivity" in text
