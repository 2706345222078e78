"""Report rendering snapshot checks over a realistic full pipeline run."""

import pytest

from repro.analysis.engine import AnalysisConfig
from repro.apps.nas.lu import LU
from repro.core.session import CouplingSession
from repro.network.machine import small_test_machine

MACHINE = small_test_machine(nodes=256, cores_per_node=4)


@pytest.fixture(scope="module")
def full_report():
    cfg = AnalysisConfig(
        modules=(
            "profile",
            "topology",
            "density",
            "waitstate",
            "otf2proxy",
            "alerts",
            "latesender",
        )
    )
    session = CouplingSession(machine=MACHINE, seed=21, analysis=cfg)
    session.add_application(LU(16, "C", iterations=1), name="LU.C")
    session.set_analyzer(nprocs=4)
    return session.run().report


SECTIONS = [
    "## Application: LU.C (16 ranks)",
    "### MPI profile",
    "### Point-to-point topology",
    "### Density maps",
    "### Wait-state analysis (preliminary)",
    "### Real-time alerts",
    "### Selective trace (OTF2 proxy)",
    "### Late-sender analysis (distributed)",
]


@pytest.mark.parametrize("section", SECTIONS)
def test_every_section_present(full_report, section):
    assert section in full_report.render()


def test_section_ordering(full_report):
    text = full_report.render()
    positions = [text.index(s) for s in SECTIONS]
    assert positions == sorted(positions)


def test_quantities_consistent_across_sections(full_report):
    chapter = full_report.chapter("LU.C")
    # Messages counted by the topology module equal the profile's send hits.
    hits, _size, _time = chapter.topology.totals()
    profile_sends = sum(
        r[1] for r in chapter.profile.rows() if r[0] in ("MPI_Send", "MPI_Isend")
    )
    assert hits == profile_sends
    # The late-sender matcher paired exactly those sends.
    assert chapter.latesender.matched_pairs == profile_sends
    # The proxy's view of the stream equals the profile's.
    assert chapter.otf2proxy.events_seen == chapter.profile.events_total


def test_verbose_render_is_superset(full_report):
    brief = full_report.render(verbosity=1)
    verbose = full_report.render(verbosity=2)
    assert len(verbose) > len(brief)


def test_wait_time_positive_for_wavefront(full_report):
    """LU's pipelined wavefront necessarily produces receive waiting."""
    chapter = full_report.chapter("LU.C")
    assert chapter.waitstate.wait_time.sum() > 0
    assert chapter.latesender.late_send_time.sum() > 0
