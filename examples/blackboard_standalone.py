#!/usr/bin/env python
"""Standalone parallel blackboard: the data-centric task engine by itself.

The analysis engine of the paper (Sections II-B / III-B) is a reusable
component: data entries trigger knowledge sources through a sensitivity
table, jobs flow through an array of locked FIFOs, and a pool of worker
threads drains them with back-off.  This example builds the exact data-flow
of paper Figure 4 — event packs -> unpacker -> {MPI profiler, topological
analysis} -> reduced summaries — over real packed bytes, with real threads.

Run:  python examples/blackboard_standalone.py
"""

import threading

from repro.blackboard.board import Blackboard
from repro.blackboard.workers import ThreadPool
from repro.instrument.events import CALL_IDS, CALL_NAMES
from repro.instrument.packer import EventPackBuilder, decode_pack
from repro.mpi.pmpi import CallRecord
from repro.util.rng import derive_rng


def synthesize_packs(nranks: int = 32, events_per_rank: int = 400) -> list[bytes]:
    """Fake instrumented ranks emitting realistic event packs."""
    rng = derive_rng(123, "standalone")
    packs = []
    for rank in range(nranks):
        builder = EventPackBuilder(app_id=0, rank=rank, capacity_bytes=16 * 1024)
        t = 0.0
        for _ in range(events_per_rank):
            call = rng.choice(("MPI_Send", "MPI_Irecv", "MPI_Waitall", "MPI_Allreduce"))
            dur = rng.uniform(1e-6, 5e-4)
            builder.add(
                CallRecord(
                    name=call,
                    t_start=t,
                    t_end=t + dur,
                    comm_id=0,
                    comm_rank=rank,
                    comm_size=nranks,
                    peer=(rank + rng.choice((1, -1))) % nranks,
                    tag=0,
                    nbytes=rng.randrange(64, 64 * 1024),
                )
            )
            t += dur * 3
            if builder.full:
                packs.append(builder.emit())
        if builder.count:
            packs.append(builder.emit())
    return packs


def main() -> None:
    board = Blackboard(nqueues=8, seed=1)
    t_pack = board.register_type("event_pack")
    t_events = board.register_type("mpi_events")

    lock = threading.Lock()
    profile: dict[str, list[float]] = {}
    matrix: dict[tuple[int, int], int] = {}

    def ks_unpacker(b, entries):
        for entry in entries:
            header, events = decode_pack(entry.payload)
            b.submit(t_events, (header.rank, events), size=events.nbytes)

    def ks_profiler(b, entries):
        for entry in entries:
            _rank, events = entry.payload
            with lock:
                for call_id in set(events["call"].tolist()):
                    name = CALL_NAMES[call_id]
                    mask = events["call"] == call_id
                    slot = profile.setdefault(name, [0, 0.0])
                    slot[0] += int(mask.sum())
                    slot[1] += float((events["t_end"] - events["t_start"])[mask].sum())

    def ks_topology(b, entries):
        send_id = CALL_IDS["MPI_Send"]
        for entry in entries:
            rank, events = entry.payload
            with lock:
                for peer in events["peer"][events["call"] == send_id].tolist():
                    matrix[(rank, peer)] = matrix.get((rank, peer), 0) + 1

    board.register_ks("KS_Unpacker", [t_pack], ks_unpacker)
    board.register_ks("KS_MPIProfiler", [t_events], ks_profiler)
    board.register_ks("KS_Topology", [t_events], ks_topology)

    packs = synthesize_packs()
    print(f"feeding {len(packs)} event packs to 4 worker threads...")
    with ThreadPool(board, nworkers=4, seed=3) as pool:
        for pack in packs:
            board.submit_named("event_pack", pack)

    stats = board.stats()
    print(f"jobs executed: {stats['jobs_executed']}; "
          f"peak blackboard storage: {stats['bytes_peak']} bytes; "
          f"per-worker jobs: {pool.jobs_per_worker}")
    print()
    print("call            hits      total time (s)")
    for name, (hits, total) in sorted(profile.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:<15s} {hits:>6d}      {total:.4f}")
    print()
    print(f"communication matrix: {len(matrix)} pairs, "
          f"{sum(matrix.values())} point-to-point messages")


if __name__ == "__main__":
    main()
