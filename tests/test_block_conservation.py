"""Block conservation: every pack sealed is accounted exactly once.

After a full run, under no fault, under each of the six canned fault plans
(16 ranks, 4 readers) and under both dropping overflow policies with a
``write_timeout`` small enough to fire, three identities hold:

* what the writers put on the wire, the readers took off it — read,
  discarded as a drop-oldest tombstone, or discarded at close;
* what the readers read, the analyzer ingested or rejected;
* what the interceptors sealed, they flushed or saw dropped.

Deterministic and quick (nine sessions of ~0.1 s); groundwork for ROADMAP
5(a), which wants the same law under *arbitrary* fault plans.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _pack_sessions as sessions  # noqa: E402

from repro.core.session import CouplingSession
from repro.instrument.overhead import InstrumentationCost
from repro.network.machine import TERA100
from repro.apps.nas.adi import SP
from repro.bench.chaos import load_plan
from repro.faults.plan import CANNED_PLANS  # noqa: E402
from repro.instrument.interceptor import StreamingInstrumentation  # noqa: E402

pytestmark = pytest.mark.chaos


def _faulted(plan: str | None) -> CouplingSession:
    session = CouplingSession(
        TERA100, seed=0, instrumentation=InstrumentationCost(block_size=4096, na_buffers=2)
    )
    session.add_application(SP(16, "C", iterations=3))
    session.set_analyzer(nprocs=4)
    if plan is not None:
        session.inject_faults(load_plan(plan, at=0.05, seed=0))
    return session


SCENARIOS = {
    "healthy": lambda: _faulted(None),
    **{plan: (lambda plan=plan: _faulted(plan)) for plan in CANNED_PLANS},
    "drop-newest": lambda: sessions.overflowing(overflow="drop-newest"),
    "drop-oldest": lambda: sessions.overflowing(overflow="drop-oldest"),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_block_is_accounted_exactly_once(scenario, monkeypatch):
    interceptors = []
    init = StreamingInstrumentation.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        interceptors.append(self)

    monkeypatch.setattr(StreamingInstrumentation, "__init__", recording_init)
    result = SCENARIOS[scenario]().run()

    streams = [st.stats() for _rank, st in result.world.streams]

    def total(mode: str, key: str) -> int:
        return sum(st[key] for st in streams if st["mode"] == mode)

    stats = result.analyzer_stats
    if scenario in CANNED_PLANS:
        assert result.faults["injected"] == result.faults["scheduled"] > 0
    if scenario.startswith("drop-"):
        assert total("w", "write_timeouts") > 0 and total("w", "blocks_dropped") > 0
    if scenario == "drop-oldest":
        assert total("r", "stale_blocks_discarded") == total("w", "blocks_dropped")

    assert total("w", "blocks_written") == (
        total("r", "blocks_read")
        + total("r", "stale_blocks_discarded")
        + total("r", "blocks_discarded_at_close")
    )
    assert total("r", "blocks_read") == stats["packs"] + stats["packs_rejected"]
    assert len(interceptors) == 16
    sealed = sum(i.builder.packs_emitted for i in interceptors)
    assert sum(i.packs_flushed + i.packs_dropped for i in interceptors) == sealed > 0
