"""A CRC-valid pack naming an application, a rank or a send peer outside the
engine is rejected at ingest: ``False``, counted under its own cause, no job
left queued, and the pipeline goes on as if the pack had never arrived."""

import pickle

import pytest

from repro.analysis.engine import AnalysisConfig, AnalyzerEngine
from repro.codec.frame import parse_frame
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord
from repro.telemetry.core import Telemetry

APPS = [("solver", 4), ("io", 2)]


def _pack(app_id=0, rank=0, peer=1):
    builder = EventPackBuilder(app_id=app_id, rank=rank)
    for i in range(4):
        builder.add(CallRecord("MPI_Send", float(i), i + 0.25, 0, rank, 4, peer, 0, 64))
    builder.add(CallRecord("MPI_Barrier", 5.0, 5.5, 0, rank, 4, -1, -1, 0))
    return builder.emit()


#: cause -> a pack that earns it; every one passes the CRC and codec checks
BAD = {
    "AppIdOutOfRange": _pack(app_id=2),
    "RankOutOfRange": _pack(rank=7),
    "RankOutOfRange-second-app": _pack(app_id=1, rank=3, peer=0),  # "io" has 2 ranks
    "PeerOutOfRange": _pack(rank=2, peer=9),
}

GOOD = [_pack(rank=3, peer=0), _pack(app_id=1, rank=1, peer=0)]


def _engine(telemetry=None):
    return AnalyzerEngine(APPS, AnalysisConfig(), telemetry=telemetry)


def _ingest(engine, blob, rider):
    return engine.ingest(blob, parse_frame(blob, verify=False) if rider else None)


@pytest.mark.parametrize("rider", [False, True], ids=["blob", "frame-rider"])
@pytest.mark.parametrize("case", BAD)
def test_an_out_of_range_pack_is_rejected_and_leaves_no_trace(case, rider):
    cause = case.split("-")[0]
    engine, clean = _engine(), _engine()
    assert _ingest(engine, BAD[case], rider) is False
    assert engine.rejects_by_cause == {cause: 1}
    assert (engine.packs_rejected, engine.packs_ingested) == (1, 0)
    board = engine.ml.board.stats()
    assert board["jobs_queued"] == 0 and board["bytes_current"] == 0
    # The next valid packs are analysed as by an engine that never saw the bad one.
    for blob in GOOD:
        assert _ingest(engine, blob, rider) and _ingest(clean, blob, rider)
    assert pickle.dumps(engine.states) == pickle.dumps(clean.states)
    assert engine.build_report().render() == clean.build_report().render()
    assert engine.rejects_by_cause == {cause: 1} and engine.packs_ingested == 2


def test_each_cause_is_counted_apart_and_on_telemetry():
    tel = Telemetry()
    engine = _engine(telemetry=tel)
    for blob in BAD.values():
        assert engine.ingest(blob) is False
    assert engine.rejects_by_cause == {
        "AppIdOutOfRange": 1, "RankOutOfRange": 2, "PeerOutOfRange": 1,
    }
    assert tel.counters["analysis.packs_rejected"].value == 4
    assert tel.counters["analysis.packs_rejected.RankOutOfRange"].value == 2
    assert all(engine.ingest(blob) for blob in GOOD)
    assert engine.packs_ingested == 2
