"""An analyzer rank holds only the ranks it serves.

Module state is keyed by the ranks seen, so the same packs leave the same
state whether the application has 64 ranks or 4 096; the vectors over every
rank exist only on query, and the report they render is unchanged.  At
``MPI_Finalize`` each rank's pack builder hands its record buffer back.
"""

import hashlib
import pickle

import pytest

from repro import CouplingSession, InstrumentationCost
from repro.analysis import AnalysisConfig, AnalyzerEngine
from repro.apps import nas_kernel
from repro.errors import InstrumentationError
from repro.instrument.interceptor import StreamingInstrumentation
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord
from repro.network.machine import small_test_machine

MODULES = ("profile", "topology", "density", "waitstate", "otf2proxy", "alerts", "latesender")

#: (rank, [(call, t_start, t_end, peer, tag, nbytes), ...]) per pack, in feed order
PACKS = [
    (3, [("MPI_Init", 0.0, 0.5, -1, -1, 0),
         ("MPI_Send", 1.0, 1.25, 40, 0, 4096),
         ("MPI_Isend", 2.0, 2.0, 40, 1, 512),
         ("MPI_Recv", 2.5, 6.0, 40, 0, 4096),
         ("MPI_Allreduce", 6.0, 6.75, -1, -1, 8)]),
    (40, [("MPI_Init", 0.0, 0.25, -1, -1, 0),
          ("MPI_Recv", 0.5, 4.5, 3, 0, 4096),
          ("MPI_Wait", 0.75, 3.0, 3, 1, 512),
          ("MPI_Send", 5.0, 5.5, 3, 0, 4096),
          ("MPI_Allreduce", 5.5, 6.75, -1, -1, 8)]),
    (3, [("MPI_Waitall", 7.0, 7.5, -1, -1, 0),
         ("MPI_Send", 8.0, 8.125, 63, 2, 100),
         ("MPI_Finalize", 9.0, 9.5, -1, -1, 0)]),
]  # fmt: skip

#: SHA-256 of the 64-rank report as the dense-state analysis rendered it
REPORT_64_SHA256 = "e5550ac99dfc7be9800546eb6fcef2f0fb3749178b52accd8a2eecbae80147e8"


def _blob(rank, rows):
    builder = EventPackBuilder(app_id=0, rank=rank)
    for name, t0, t1, peer, tag, nbytes in rows:
        builder.add(CallRecord(name, t0, t1, 0, rank, 64, peer=peer, tag=tag, nbytes=nbytes))
    return builder.emit()


def _engine(app_size: int) -> AnalyzerEngine:
    engine = AnalyzerEngine([("app", app_size)], AnalysisConfig(modules=MODULES))
    for rank, rows in PACKS:
        assert engine.ingest(_blob(rank, rows))
    states = engine.states["app"]
    states["latesender"].finalize()
    states["alerts"].finalize(20.0)
    return engine


def _held(state) -> bytes:
    """Everything a module state holds but the application size."""
    return pickle.dumps({k: v for k, v in vars(state).items() if k != "app_size"})


def test_state_size_is_independent_of_the_application_size():
    small, large = _engine(64), _engine(4096)
    for mod in MODULES:
        assert _held(small.states["app"][mod]) == _held(large.states["app"][mod]), mod


def test_the_report_is_what_dense_state_rendered():
    report = _engine(64).build_report().render(verbosity=2)
    assert "worst receivers: rank 40 (4.500 s), rank 3 (1.000 s)" in report
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_64_SHA256


def test_a_closed_builder_keeps_its_counters_and_refuses_records():
    builder = EventPackBuilder(app_id=0, rank=0)
    builder.add(CallRecord("MPI_Send", 0.0, 1.0, 0, 0, 4, peer=1, tag=0, nbytes=8))
    with pytest.raises(InstrumentationError, match="unsealed"):
        builder.close()
    builder.emit()
    builder.close()
    assert builder.packs_emitted == 1 and builder.total_events == 1
    with pytest.raises(InstrumentationError, match="closed"):
        builder.add(CallRecord("MPI_Send", 1.0, 2.0, 0, 0, 4, peer=1, tag=0, nbytes=8))


def test_finalize_hands_every_pack_buffer_back(monkeypatch):
    interceptors = []
    init = StreamingInstrumentation.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        interceptors.append(self)

    monkeypatch.setattr(StreamingInstrumentation, "__init__", recording_init)
    session = CouplingSession(
        machine=small_test_machine(nodes=16, cores_per_node=4),
        seed=0,
        instrumentation=InstrumentationCost(block_size=4096),
    )
    session.add_application(nas_kernel("LU", 16, "C", iterations=2))
    session.set_analyzer(ratio=4.0)
    app = session.run().apps["LU.C"]
    assert len(interceptors) == 16
    assert all(len(i.builder._buf) == 0 for i in interceptors)
    # What the dense-buffer pipeline produced for this session.
    assert (app.events, app.packs, app.modeled_stream_bytes) == (4112, 48, 191552)
