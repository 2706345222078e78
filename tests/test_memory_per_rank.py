"""Per-rank state is sized by use (DESIGN 14, "Memory per rank").

A tiny instrumented session records every object of each per-rank class as it
is built: none carries an instance ``__dict__``, and every class the hot-path
lint's rule 15 lists is among them.  A one-sensitivity knowledge source holds
no pending FIFO and no lock, and a pack builder's record buffer grows in
record-aligned quarter steps, so its unused tail stays within a quarter of
the buffer at every size up to the pack capacity.
"""

import importlib
import sys
from pathlib import Path

import pytest

from repro.blackboard.board import Blackboard
from repro.blackboard.entry import DataEntry, TypeRegistry
from repro.blackboard.jobs import JobQueues
from repro.blackboard.ks import KnowledgeSource
from repro.blackboard.multilevel import MultiLevelBlackboard
from repro.core.session import CouplingSession
from repro.apps.nas import nas_kernel
from repro.errors import BlackboardError
from repro.instrument.events import EVENT_RECORD_SIZE
from repro.instrument.interceptor import StreamingInstrumentation
from repro.instrument.overhead import InstrumentationCost
from repro.instrument.packer import PACK_HEADER_SIZE, EventPackBuilder
from repro.mpi.communicator import Comm
from repro.mpi.launcher import RankProcess
from repro.mpi.message import Mailbox
from repro.mpi.pmpi import CallRecord, PMPIStack
from repro.mpi.world import ProgramAPI, RankContext
from repro.network.machine import small_test_machine
from repro.simt.resources import Resource
from repro.vmpi.mapping import VMPIMap
from repro.vmpi.stream import VMPIStream

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from check_hotpath_invariants import RULES  # noqa: E402

PER_RANK = (
    RankContext, Mailbox, PMPIStack, ProgramAPI, Comm, RankProcess, VMPIStream, VMPIMap,
    Resource, StreamingInstrumentation, EventPackBuilder, MultiLevelBlackboard, Blackboard,
    TypeRegistry, JobQueues, KnowledgeSource,
)


@pytest.fixture(scope="module")
def built():
    """Every per-rank object a small CG session with an analyzer builds, by class."""
    seen = {cls: [] for cls in PER_RANK}
    inits = {cls: cls.__init__ for cls in PER_RANK}

    def recording(cls):
        def init(self, *args, **kwargs):
            inits[cls](self, *args, **kwargs)
            if type(self) is cls:
                seen[cls].append(self)
        return init

    with pytest.MonkeyPatch.context() as patch:
        for cls in PER_RANK:
            patch.setattr(cls, "__init__", recording(cls))
        session = CouplingSession(
            machine=small_test_machine(nodes=4, cores_per_node=4),
            seed=0,
            instrumentation=InstrumentationCost(block_size=4096),
        )
        session.add_application(nas_kernel("CG", 4, "C", iterations=1))
        session.set_analyzer(ratio=2.0)
        assert session.run().apps["CG.C"].packs > 0
    return seen


@pytest.mark.parametrize("cls", PER_RANK, ids=lambda cls: cls.__name__)
def test_per_rank_objects_carry_no_instance_dict(built, cls):
    assert built[cls], f"the session built no {cls.__name__}"
    for obj in built[cls]:
        assert not hasattr(obj, "__dict__"), cls.__name__


def test_every_class_the_slotted_rule_lists_is_checked_here():
    (rule,) = [rule for rule in RULES if rule.number == 15]
    listed = {
        getattr(importlib.import_module(".".join(rel.with_suffix("").parts)), name)
        for rel, names in rule.names.items() for name in names
    }
    assert listed <= set(PER_RANK)


def test_one_sensitivity_knowledge_sources_hold_no_pending_fifo(built):
    sources = built[KnowledgeSource]
    assert sources and all(len(ks.sensitivities) == 1 for ks in sources)
    assert all(ks._pending is None and ks._lock is None for ks in sources)


def test_a_one_sensitivity_source_still_refuses_a_foreign_type():
    board = Blackboard()
    mine, other = board.register_type("mine"), board.register_type("other")
    single = board.register_ks("single", [mine], lambda _b, _e: None)
    pair = board.register_ks("pair", [mine, other], lambda _b, _e: None)
    assert single._pending is None and set(pair._pending) == {mine, other}
    entry = DataEntry(other, 1, b"x")
    assert pair.offer(entry) is None
    with pytest.raises(BlackboardError, match="foreign type"):
        single.offer(entry)


@pytest.mark.parametrize("records", [3, 64, 65, 300, 26_214])
def test_record_buffer_tail_stays_within_a_quarter(records):
    """Filled one record at a time to capacity: each growth step is record-aligned,
    happens only when a record does not fit, and leaves at most a quarter unused."""
    builder = EventPackBuilder(
        app_id=0, rank=0, capacity_bytes=PACK_HEADER_SIZE + records * EVENT_RECORD_SIZE
    )
    record = CallRecord("MPI_Send", 0.0, 1.0, 0, 0, 4, peer=1, tag=0, nbytes=8)
    size = len(builder._buf)
    for count in range(1, records + 1):
        builder.add(record)
        grown = len(builder._buf)
        if grown != size:
            assert size == (count - 1) * EVENT_RECORD_SIZE and grown % EVENT_RECORD_SIZE == 0
            assert grown - count * EVENT_RECORD_SIZE <= grown // 4
            size = grown
    assert size == records * EVENT_RECORD_SIZE
