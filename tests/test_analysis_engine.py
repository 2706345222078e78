"""Analyzer engine wiring, report generation, session integration."""

import pytest

from repro.errors import ConfigError
from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.analysis.report import ApplicationReport, ProfileReport
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord


def _pack(app_id=0, rank=0, n=4, name="MPI_Send"):
    pb = EventPackBuilder(app_id=app_id, rank=rank)
    for i in range(n):
        pb.add(
            CallRecord(
                name, float(i), float(i) + 0.1, 0, rank, 4, peer=(rank + 1) % 4,
                tag=0, nbytes=100,
            )
        )
    return pb.emit()


class TestAnalysisConfig:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert set(cfg.modules) == {"profile", "topology", "density", "waitstate"}

    def test_cpu_cost_linear(self):
        cfg = AnalysisConfig(per_byte_cpu=1e-9, per_pack_cpu=1e-6)
        assert cfg.cpu_cost(1000) == pytest.approx(2e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(per_byte_cpu=-1)
        with pytest.raises(ConfigError):
            AnalysisConfig(modules=("profile", "magic"))
        with pytest.raises(ConfigError):
            AnalysisConfig(modules=())


class TestAnalyzerEngine:
    def test_pipeline_feeds_all_modules(self):
        engine = AnalyzerEngine([("app", 4)], AnalysisConfig())
        engine.ingest(_pack(app_id=0, rank=1))
        states = engine.states["app"]
        assert states["profile"].events_total == 4
        assert (1, 2) in states["topology"].cells
        assert states["density"].map_for("MPI_Send", "hits")[1] == 4

    def test_multi_app_levels_separate(self):
        engine = AnalyzerEngine([("a", 4), ("b", 4)], AnalysisConfig())
        engine.ingest(_pack(app_id=0, rank=0))
        engine.ingest(_pack(app_id=1, rank=0, n=7))
        assert engine.states["a"]["profile"].events_total == 4
        assert engine.states["b"]["profile"].events_total == 7

    def test_merge_states(self):
        left = AnalyzerEngine([("app", 4)], AnalysisConfig())
        right = AnalyzerEngine([("app", 4)], AnalysisConfig())
        left.ingest(_pack(rank=0))
        right.ingest(_pack(rank=2))
        left.merge_states(right.states)
        assert left.states["app"]["profile"].events_total == 8

    def test_merge_unknown_level_rejected(self):
        left = AnalyzerEngine([("app", 4)], AnalysisConfig())
        right = AnalyzerEngine([("other", 4)], AnalysisConfig())
        with pytest.raises(ConfigError):
            left.merge_states(right.states)

    def test_report_chapters(self):
        engine = AnalyzerEngine([("a", 4), ("b", 2)], AnalysisConfig())
        engine.ingest(_pack(app_id=0))
        report = engine.build_report()
        assert isinstance(report, ProfileReport)
        assert "a" in report and "b" in report
        with pytest.raises(KeyError):
            report.chapter("zzz")

    def test_module_subset(self):
        engine = AnalyzerEngine([("app", 4)], AnalysisConfig(modules=("profile",)))
        engine.ingest(_pack())
        assert set(engine.states["app"]) == {"profile"}
        report = engine.build_report()
        chapter = report.chapter("app")
        assert chapter.topology is None and chapter.profile is not None

    def test_needs_apps(self):
        with pytest.raises(ConfigError):
            AnalyzerEngine([], AnalysisConfig())


class TestReportRendering:
    def _full_report(self):
        engine = AnalyzerEngine([("app", 4)], AnalysisConfig())
        for rank in range(4):
            engine.ingest(_pack(rank=rank))
            engine.ingest(_pack(rank=rank, name="MPI_Waitall", n=2))
        return engine.build_report()

    def test_render_contains_sections(self):
        text = self._full_report().render()
        assert "# Online profiling report" in text
        assert "## Application: app (4 ranks)" in text
        assert "### MPI profile" in text
        assert "### Point-to-point topology" in text
        assert "### Density maps" in text
        assert "### Wait-state analysis" in text

    def test_verbose_render_includes_grids_and_dot(self):
        text = self._full_report().render(verbosity=2)
        assert "digraph" in text
        assert "MPI_Send" in text

    def test_empty_chapter_renders(self):
        report = ProfileReport(chapters=[ApplicationReport(app="x", app_size=1)])
        assert "## Application: x" in report.render()


class TestSessionIntegration:
    def test_multi_application_single_report(self, big_machine):
        """The paper's headline: concurrent apps, one report, per-app chapters."""
        from repro.apps.nas.cg import CG
        from repro.apps.nas.ep import EP
        from repro.core.session import CouplingSession

        session = CouplingSession(machine=big_machine, seed=3)
        session.add_application(CG(8, "C", iterations=4))
        session.add_application(EP(4, "C"))
        session.set_analyzer(nprocs=4)
        result = session.run()
        report = result.report
        assert "CG.C" in report and "EP.C" in report
        cg_profile = report.chapter("CG.C").profile
        ep_profile = report.chapter("EP.C").profile
        assert cg_profile.app_size == 8
        assert ep_profile.app_size == 4
        # Per-app event streams were not mixed up.
        assert result.app("CG.C").events == cg_profile.events_total
        assert result.app("EP.C").events == ep_profile.events_total

    def test_analyzer_sizing_rules(self, big_machine):
        from repro.apps.nas.ep import EP
        from repro.core.session import CouplingSession

        session = CouplingSession(machine=big_machine)
        session.add_application(EP(32, "C"))
        assert session.set_analyzer(ratio=10) == 3
        assert session.set_analyzer(ratio=64) == 1  # floor of one reader
        assert session.set_analyzer(nprocs=5) == 5
        with pytest.raises(ConfigError):
            session.set_analyzer()
        with pytest.raises(ConfigError):
            session.set_analyzer(ratio=1, nprocs=2)
        with pytest.raises(ConfigError):
            session.set_analyzer(ratio=-1)

    def test_reserved_analyzer_name(self, big_machine):
        from repro.apps.nas.ep import EP
        from repro.core.session import CouplingSession

        session = CouplingSession(machine=big_machine)
        with pytest.raises(ConfigError):
            session.add_application(EP(4, "C"), name="Analyzer")

    def test_analyzer_stats_exposed(self, big_machine):
        from repro.apps.nas.ep import EP
        from repro.core.session import CouplingSession

        session = CouplingSession(machine=big_machine)
        session.add_application(EP(4, "C"))
        session.set_analyzer(ratio=2.0)
        result = session.run()
        assert result.analyzer_stats["packs"] >= 4
        assert result.analyzer_stats["board"]["jobs_executed"] > 0
