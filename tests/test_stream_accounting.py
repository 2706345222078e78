"""Stream accounting held to the parent's: over a small grid of writer counts,
writer/reader ratios, overflow policies and payload kinds, every endpoint's full
``stats()``, the kernel's dispatch count and the first-write / last-read instants
equal ``fixtures/stream_stats_parent.json`` exactly.

Regenerate only on a commit whose values are the contract::

    PYTHONPATH=src python tests/test_stream_accounting.py
"""

import json
from pathlib import Path

import pytest

from repro.codec.frame import build_frame
from repro.network.machine import small_test_machine
from repro.util.units import KIB
from repro.vmpi.mapping import ROUND_ROBIN, VMPIMap, map_partitions
from repro.vmpi.stream import EAGAIN, EOF, OVERFLOW_BLOCK, OVERFLOW_DROP_OLDEST, VMPIStream
from repro.vmpi.virtualization import VirtualizedLauncher

FIXTURE = Path(__file__).parent / "fixtures" / "stream_stats_parent.json"
MACHINE = small_test_machine(nodes=16, cores_per_node=4)
BLOCK = 128 * KIB  # above the eager threshold: rendezvous sends, physical backpressure
BLOCKS = 8
READ_CPU = 300e-6  # per block: the readers fall behind, so writers stall or drop
#: a real EVF2 frame: the stream reads its content size for the wire/content ratio
FRAME = build_frame(0, 0, 16, bytes(range(256)) * 4)
PAYLOADS = {"none": None, "frame": FRAME}
OVERFLOWS = {
    OVERFLOW_BLOCK: {},
    OVERFLOW_DROP_OLDEST: {"write_timeout": 50e-6, "max_retries": 1},
}
GRID = [
    (writers, ratio, overflow, payload)
    for writers in (4, 16)
    for ratio in (1, 4)
    for overflow in OVERFLOWS
    for payload in PAYLOADS
]
ABOUT = (
    "Taken on the tree before the stream and communicator resolved their per-block "
    "lookups at open (the parent of that change), by running this module as a script. "
    "Keys are writers/ratio/overflow/payload; each point runs a VirtualizedLauncher job "
    f"of `writers` writers and writers/ratio readers on small_test_machine(16, 4), seed 3: "
    f"every writer writes {BLOCKS} blocks of {BLOCK} bytes (payload None or one real "
    "EVF2 frame), every reader runs the Figure 12 loop and computes "
    f"{READ_CPU} s per block. Recorded: every endpoint's stats() in open order, "
    "kernel.events_dispatched, t_first_write and t_last_read."
)


def _point(writers: int, ratio: int, overflow: str, payload: str) -> dict:
    times: dict[str, float] = {}
    blob = PAYLOADS[payload]

    def writer(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, "Analyzer", ROUND_ROBIN)
        stream = VMPIStream(block_size=BLOCK, na_buffers=2, overflow=overflow,
                            **OVERFLOWS[overflow])
        yield from stream.open_map(mpi, vmap, "w")
        times.setdefault("t_first_write", mpi.now)
        for _ in range(BLOCKS):
            yield from stream.write(nbytes=BLOCK, payload=blob)
        yield from stream.close()
        yield from mpi.finalize()

    def reader(mpi):
        yield from mpi.init()
        vmap = VMPIMap()
        yield from map_partitions(mpi, vmap, 0, ROUND_ROBIN)
        stream = VMPIStream(block_size=BLOCK, na_buffers=2)
        yield from stream.open_map(mpi, vmap, "r")
        while True:
            nbytes, _ = yield from stream.read(nonblock=True)
            if nbytes == EAGAIN:
                nbytes, _ = yield from stream.read()
            if nbytes == EOF:
                break
            yield from mpi.compute(READ_CPU)
        times["t_last_read"] = max(times.get("t_last_read", 0.0), mpi.now)
        yield from stream.close()
        yield from mpi.finalize()

    launcher = VirtualizedLauncher(machine=MACHINE, seed=3)
    launcher.add_program("W", nprocs=writers, main=writer)
    launcher.add_program("Analyzer", nprocs=writers // ratio, main=reader)
    world = launcher.run()
    return {
        "streams": [[rank, stream.stats()] for rank, stream in world.streams],
        "events_dispatched": world.kernel.events_dispatched,
        **times,
    }


def _key(point: tuple) -> str:
    return "/".join(map(str, point))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_grid_exercises_backpressure_drops_and_frames(expected):
    assert set(expected) == {"about", *map(_key, GRID)}
    stats = [s for point in map(_key, GRID) for _rank, s in expected[point]["streams"]]
    assert any(s["write_stall_s"] > 0 for s in stats)
    assert any(s["blocks_dropped"] > 0 and s["mode"] == "w" for s in stats)
    assert any(s["stale_blocks_discarded"] > 0 for s in stats)
    assert any(s["pack_ratio"] > 0 for s in stats)


@pytest.mark.parametrize("point", GRID, ids=_key)
def test_stream_accounting_matches_the_parents(expected, point):
    got = json.loads(json.dumps(_point(*point)))  # the fixture's own round trip
    assert got == expected[_key(point)]


if __name__ == "__main__":
    points = {"about": ABOUT, **{_key(p): _point(*p) for p in GRID}}
    FIXTURE.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(k)}: " + json.dumps(v, sort_keys=True, separators=(",", ":"))
            for k, v in points.items()
        )
        + "\n}\n"
    )
    print(f"wrote {FIXTURE}")
