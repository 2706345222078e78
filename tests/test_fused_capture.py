"""The fused capture path against the generic PMPI path.

A rank whose only interceptor is :class:`StreamingInstrumentation` has its
``PMPIStack.around`` bound to the interceptor's own generator, which hands
each call's fields to ``_capture`` as a plain tuple.  A no-op
:class:`Interceptor` beside it forces the generic ``_intercepted`` walk and a
``CallRecord`` per call.  Both must produce the same packs, counters and
schedule, byte for byte: SP (isend/irecv/waitall), LU (blocking send/recv)
and CG (sendrecv) under ``delta+dict+zlib``, with the chain switched mid-run.
"""

import pytest

from repro.core.session import CouplingSession
from repro.apps.nas import nas_kernel
from repro.core import session as session_module
from repro.instrument.interceptor import StreamingInstrumentation
from repro.instrument.overhead import InstrumentationCost
from repro.instrument.packer import EventPackBuilder
from repro.mpi.pmpi import CallRecord, Interceptor, _unobserved

#: per-rank event count at which the reduction chain switches (and, in the
#: "switched" mode, the no-op interceptor joins the stack)
SWITCH_AT = 12

APPS = (("SP", 3), ("LU", 2), ("CG", 12))


def _run(mode, monkeypatch):
    """One session; ``mode`` is "fused", "generic" (no-op interceptor from
    the start) or "switched" (no-op interceptor attached at SWITCH_AT)."""
    blobs, records, bindings = [], [], []
    emit = EventPackBuilder.emit

    def recording_emit(self, *args, **kwargs):
        blob = emit(self, *args, **kwargs)
        blobs.append((self.app_id, self.rank, bytes(blob)))
        return blob

    capture = StreamingInstrumentation._capture

    def switching_capture(self, record):
        records.append(type(record))
        work = capture(self, record)
        if self.events_captured == SWITCH_AT:
            self.set_reduction("delta+dict")
            if mode == "switched":
                pmpi = self._pmpi
                bindings.append(pmpi.around == self.around)
                pmpi.attach(Interceptor())
                bindings.append(pmpi.around == pmpi._intercepted)
        return work

    instrumented_main = session_module._instrumented_main
    interceptors = []

    def main(mpi, kernel, cost, registry):
        body = instrumented_main(mpi, kernel, cost, registry)
        interceptors.append(registry[-1])
        if mode == "generic":
            mpi.ctx.pmpi.attach(Interceptor())
        return body

    monkeypatch.setattr(EventPackBuilder, "emit", recording_emit)
    monkeypatch.setattr(StreamingInstrumentation, "_capture", switching_capture)
    monkeypatch.setattr(session_module, "_instrumented_main", main)
    session = CouplingSession(
        seed=3, instrumentation=InstrumentationCost(block_size=4096, na_buffers=2)
    )
    for kernel, iterations in APPS:
        session.add_application(nas_kernel(kernel, 16, "C", iterations=iterations))
    session.set_analyzer(nprocs=4)
    session.set_reduction("delta+dict+zlib")
    result = session.run()
    monkeypatch.undo()

    assert all(i._pmpi.around is _unobserved for i in interceptors)  # detached
    counters = sorted(
        (
            i.builder.app_id,
            i.builder.rank,
            i.events_captured,
            i.mpi_time_s,
            i.overhead_s,
            i.packs_flushed,
            i._pmpi.calls_seen,
        )
        for i in interceptors
    )
    walls = {name: app.walltime for name, app in result.apps.items()}
    return {
        "blobs": blobs,
        "counters": counters,
        "walls": walls,
        "kernel_events": result.world.kernel.events_dispatched,
        "records": records,
        "bindings": bindings,
    }


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {mode: _run(mode, monkeypatch) for mode in ("fused", "generic", "switched")}


@pytest.mark.parametrize("mode", ["generic", "switched"])
def test_fused_and_generic_paths_agree_byte_for_byte(runs, mode):
    fused, other = runs["fused"], runs[mode]
    assert len(fused["blobs"]) > 3 * 16  # several packs per rank, both chains
    assert fused["blobs"] == other["blobs"]
    assert fused["counters"] == other["counters"]
    assert fused["walls"] == other["walls"]
    assert fused["kernel_events"] == other["kernel_events"]


def test_each_mode_took_the_path_it_names(runs):
    ranks = 3 * 16
    # Fused: only MPI_Init and MPI_Finalize build a CallRecord.
    fused = runs["fused"]["records"]
    assert fused.count(CallRecord) == 2 * ranks
    assert fused.count(tuple) == len(fused) - 2 * ranks > 0
    # Generic: every capture sees a CallRecord.
    assert set(runs["generic"]["records"]) == {CallRecord}
    # Switched: fused up to SWITCH_AT per rank, generic after it.
    switched = runs["switched"]["records"]
    assert switched.count(tuple) == ranks * (SWITCH_AT - 1)
    # around was the interceptor's own until the mid-run attach, then the walk.
    assert runs["switched"]["bindings"] == [True, True] * ranks
