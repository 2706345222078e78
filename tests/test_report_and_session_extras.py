"""Session extension paths: alert/proxy modules end-to-end, posix maps,
report round trips through the full pipeline."""

from repro.analysis.engine import AnalysisConfig
from repro.apps.eulermhd import EulerMHD
from repro.apps.nas.cg import CG
from repro.apps.nas.lu import LU
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


class TestExtensionModulesEndToEnd:
    def test_session_with_all_extension_modules(self):
        cfg = AnalysisConfig(
            modules=("profile", "topology", "density", "waitstate", "otf2proxy", "alerts")
        )
        session = CouplingSession(machine=MACHINE, seed=4, analysis=cfg)
        name = session.add_application(CG(16, "C", iterations=4))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        chapter = result.report.chapter(name)
        # The selective trace retained only the default p2p calls.
        assert chapter.otf2proxy is not None
        assert 0.0 < chapter.otf2proxy.selectivity < 1.0
        assert chapter.otf2proxy.trace_bytes() > 0
        # The alert monitor watched every batch without raising spurious alerts
        # on a healthy app (default thresholds are generous).
        assert chapter.alerts is not None
        text = result.report.render()
        assert "Selective trace" in text
        assert "Real-time alerts" in text

    def test_selective_trace_decodes_after_session(self):
        from repro.analysis.otf2proxy import OTF2Proxy

        cfg = AnalysisConfig(modules=("profile", "otf2proxy"))
        session = CouplingSession(machine=MACHINE, seed=4, analysis=cfg)
        name = session.add_application(LU(16, "C", iterations=1))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        proxy = result.report.chapter(name).otf2proxy
        decoded = OTF2Proxy.deserialize(proxy.serialize())
        assert sum(len(v) for v in decoded.values()) == proxy.events_selected
        # Only p2p-ish calls survive the default selection.
        from repro.instrument.events import CALL_NAMES

        for events in decoded.values():
            for call in set(events["call"].tolist()):
                assert CALL_NAMES[call] in OTF2Proxy.DEFAULT_CALLS

    def test_events_conserved_across_modules(self):
        """profile and otf2proxy see exactly the same stream."""
        cfg = AnalysisConfig(modules=("profile", "otf2proxy"))
        session = CouplingSession(machine=MACHINE, seed=4, analysis=cfg)
        name = session.add_application(CG(16, "C", iterations=3))
        session.set_analyzer(ratio=2.0)
        result = session.run()
        chapter = result.report.chapter(name)
        assert chapter.otf2proxy.events_seen == chapter.profile.events_total


class TestPosixDensity:
    def test_checkpoint_costs_visible_in_profile(self):
        kernel = EulerMHD(16, grid=512, iterations=4, checkpoint_every=2)
        session = CouplingSession(machine=MACHINE, seed=1)
        name = session.add_application(kernel)
        session.set_analyzer(ratio=1.0)
        result = session.run()
        profile = result.report.chapter(name).profile
        rows = {r[0]: r for r in profile.rows()}
        assert rows["write"][1] == 16 * 2  # hits
        assert rows["write"][2] > 0  # time spent writing
        assert rows["open"][1] == rows["close"][1] == 16 * 2

    def test_checkpoint_slows_the_app(self):
        base = EulerMHD(16, grid=512, iterations=4, checkpoint_every=0)
        ckpt = EulerMHD(16, grid=512, iterations=4, checkpoint_every=1)

        def wall(kernel):
            session = CouplingSession(machine=MACHINE, seed=1)
            session.add_application(kernel, name="app")
            session.set_analyzer(nprocs=4)
            return session.run().app("app").walltime

        assert wall(ckpt) > wall(base)


class TestSessionWorldExposure:
    def test_network_accounting_available(self):
        session = CouplingSession(machine=MACHINE, seed=2)
        session.add_application(CG(16, "C", iterations=2))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        cluster = result.world.cluster
        assert cluster.bytes_internode > 0
        assert cluster.placement.nodes_used == 8  # 16 app + 16 analyzer ranks

    def test_mailboxes_drained_at_end(self):
        session = CouplingSession(machine=MACHINE, seed=2)
        session.add_application(CG(8, "C", iterations=2))
        session.set_analyzer(ratio=1.0)
        result = session.run()
        for ctx in result.world.ranks:
            unexpected, _posted = ctx.mailbox.pending_counts()
            assert unexpected == 0, f"rank {ctx.global_rank} left unexpected messages"
