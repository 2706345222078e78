"""The blocking MPI path cut its schedule; nothing else may have moved.

Two contracts, both with numbers taken **on the parent of PR 19** (the last
commit where ``MPI_Send`` / ``MPI_Recv`` / ``MPI_Sendrecv`` cost five heap
entries per message) and committed here:

* *Virtual times.*  ``tests/fixtures/blocking_path_virtual_times.json`` holds
  ``measure_overhead`` on fourteen LU / CG points (the two kernels that make
  blocking calls) as ``float.hex()``.  DESIGN 14 warns that tie order decides
  who commits to a ``Pipe`` first, and removing a zero-delay hop is exactly
  what could disturb it; this makes "it does not" a tested fact.  Regenerate
  (on a commit whose times are the contract) with
  ``PYTHONPATH=src python tests/test_blocking_path_schedule.py``.
* *Schedule counts.*  A blocking eager message is three dispatches (send CPU,
  arrival, receive overhead); every other path — non-blocking p2p, streams,
  sessions — dispatches exactly what the parent did, because those counts
  are ``kernel_events`` fingerprints in ``benchmarks/e2e/golden.json``.
"""

import json
from pathlib import Path

import pytest

from repro import CouplingSession, InstrumentationCost
from repro.apps import CG, LU, SP
from repro.bench.harness import (
    measure_overhead,
    stream_reader_program,
    stream_writer_program,
)
from repro.mpi import MPMDLauncher
from repro.network.machine import CURIE, TERA100, small_test_machine
from repro.vmpi.virtualization import VirtualizedLauncher

FIXTURE = Path(__file__).parent / "fixtures" / "blocking_path_virtual_times.json"

#: label -> kernel factory; labels are the fixture's keys (with the machine)
POINTS = {
    "LU.C.16x2": lambda: LU(16, "C", iterations=2),
    "LU.C.32x2.pb3": lambda: LU(32, "C", iterations=2, plane_batch=3),
    "LU.C.64x2": lambda: LU(64, "C", iterations=2),
    "LU.C.128x1": lambda: LU(128, "C", iterations=1),
    "LU.D.64x1": lambda: LU(64, "D", iterations=1),
    "CG.C.16x3": lambda: CG(16, "C", iterations=3),
    "CG.C.64x3": lambda: CG(64, "C", iterations=3),
}
MACHINES = {"TERA100": TERA100, "CURIE": CURIE}


def _measure(point: str, machine: str) -> dict:
    p = measure_overhead(POINTS[point](), MACHINES[machine], ratio=1.0, seed=0)
    return {
        "t_reference": p.t_reference.hex(),
        "t_instrumented": p.t_instrumented.hex(),
        "events": p.events,
        "bytes": p.modeled_stream_bytes,
    }


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("point", sorted(POINTS))
def test_virtual_times_match_the_parents(point, machine):
    expected = json.loads(FIXTURE.read_text())["points"][f"{point}@{machine}"]
    assert _measure(point, machine) == expected


# -- exact schedule counts --------------------------------------------------------------

PING_MESSAGES = 50
#: dispatches of the two-rank ping that are not its messages: per rank the
#: process start, ``init``'s and ``finalize``'s zero timeouts, the process end
PING_FIXED = 8
#: ``Kernel.events_dispatched`` of the stream point and the coupled session
#: below, on the parent of PR 19
STREAM_POINT_EVENTS = 740
SESSION_EVENTS = 7004


def _ping(blocking: bool) -> int:
    def main(mpi):
        yield from mpi.init()
        comm = mpi.comm_world
        for i in range(PING_MESSAGES):
            if comm.rank == 0:
                if blocking:
                    yield from comm.send(1, nbytes=4096, tag=i)
                else:
                    req = yield from comm.isend(1, nbytes=4096, tag=i)
                    yield from comm.waitall([req])
            elif blocking:
                yield from comm.recv(source=0, tag=i)
            else:
                req = yield from comm.irecv(source=0, tag=i)
                yield from comm.waitall([req])
        yield from mpi.finalize()

    launcher = MPMDLauncher(machine=small_test_machine())
    launcher.add_program("ping", nprocs=2, main=main)
    return launcher.run().kernel.events_dispatched


def test_a_blocking_eager_message_is_three_dispatches():
    assert _ping(blocking=True) == 3 * PING_MESSAGES + PING_FIXED


def test_the_nonblocking_ping_keeps_the_parents_schedule():
    # send CPU, arrival, isend.eager, waitall's all_of on each side, o_recv
    # timeout, receive completion: seven per message, as on the parent.
    assert _ping(blocking=False) == 7 * PING_MESSAGES + PING_FIXED


def test_a_stream_point_keeps_the_parents_schedule():
    stats = {}
    launcher = VirtualizedLauncher(machine=small_test_machine(), seed=0)
    launcher.add_program(
        "Writers", nprocs=4, main=stream_writer_program, total_bytes=1 << 20,
        block_size=1 << 16, reader_partition="Analyzer", stats=stats,
    )
    launcher.add_program(
        "Analyzer", nprocs=2, main=stream_reader_program, block_size=1 << 16, stats=stats,
    )
    world = launcher.run()
    assert stats["bytes_read"] == 4 << 20
    assert world.kernel.events_dispatched == STREAM_POINT_EVENTS


def test_a_coupled_session_keeps_the_parents_schedule():
    session = CouplingSession(
        small_test_machine(nodes=32, cores_per_node=4),
        seed=1,
        instrumentation=InstrumentationCost(block_size=4096, na_buffers=2),
    )
    session.add_application(SP(16, "C", iterations=2))
    session.set_analyzer(ratio=8.0)
    result = session.run()
    assert result.world.kernel.events_dispatched == SESSION_EVENTS


if __name__ == "__main__":  # regenerate the fixture (see the module docstring)
    points = {
        f"{point}@{machine}": _measure(point, machine)
        for point in sorted(POINTS)
        for machine in sorted(MACHINES)
    }
    doc = {
        "about": "measure_overhead(kernel, machine, ratio=1.0, seed=0); floats as float.hex()",
        "points": points,
    }
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(points)} points to {FIXTURE}")
