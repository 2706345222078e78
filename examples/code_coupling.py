#!/usr/bin/env python
"""General code coupling with VMPI: an ocean-atmosphere style exchange.

The paper's coupling layer is not specific to instrumentation: it is a
generic *code coupling* mechanism (Section III-A shows the generic N-to-one
mapping of Figure 10).  This example couples two simulated physics codes of
different sizes through VMPI maps and streams — each atmosphere rank
streams its boundary fluxes to its mapped ocean rank every step, while both
codes keep their own private MPI_COMM_WORLD thanks to virtualization.

Run:  python examples/code_coupling.py
"""

from repro.util.units import KIB, fmt_time
from repro.vmpi.mapping import ROUND_ROBIN, VMPIMap, map_partitions
from repro.vmpi.stream import EOF, VMPIStream
from repro.vmpi.virtualization import VirtualizedLauncher

STEPS = 20
FLUX_BYTES = 256 * KIB


def atmosphere(mpi, stats):
    """The fine-grid code: computes and streams boundary fluxes."""
    yield from mpi.init()
    comm = mpi.comm_world

    vmap = VMPIMap()
    yield from map_partitions(mpi, vmap, "ocean", policy=ROUND_ROBIN)
    stream = VMPIStream(block_size=FLUX_BYTES)
    yield from stream.open_map(mpi, vmap, "w")

    for step in range(STEPS):
        yield from mpi.compute(2e-3)  # dynamics + physics
        # Halo exchange with atmosphere neighbours (its own world).
        partner = (comm.rank + 1) % comm.size
        yield from comm.sendrecv(partner, send_nbytes=64 * KIB, source=(comm.rank - 1) % comm.size)
        # Stream the coupling fluxes down to the ocean.
        yield from stream.write(payload=("flux", comm.rank, step))
        # Global diagnostics stay inside the virtualized world.
        yield from comm.allreduce(nbytes=8)
    yield from stream.close()
    stats["atm_done"] = mpi.now
    yield from mpi.finalize()


def ocean(mpi, stats):
    """The coarse-grid code: consumes fluxes from its mapped partners."""
    yield from mpi.init()
    comm = mpi.comm_world

    vmap = VMPIMap()
    yield from map_partitions(mpi, vmap, "atmosphere", policy=ROUND_ROBIN)
    stream = VMPIStream(block_size=FLUX_BYTES)
    yield from stream.open_map(mpi, vmap, "r")

    received = 0
    while True:
        nbytes, payload = yield from stream.read()
        if nbytes == EOF:
            break
        received += 1
        yield from mpi.compute(1e-3)  # assimilate the flux
    total = yield from comm.allreduce(nbytes=8, payload=received)
    if comm.rank == 0:
        stats["fluxes"] = total
        stats["ocean_done"] = mpi.now
    yield from mpi.finalize()


def main() -> None:
    stats: dict = {}
    launcher = VirtualizedLauncher(seed=3)  # Tera 100 model
    launcher.add_program("atmosphere", nprocs=48, main=atmosphere, stats=stats)
    launcher.add_program("ocean", nprocs=12, main=ocean, stats=stats)
    world = launcher.run()

    expected = 48 * STEPS
    print(f"coupled {expected} flux blocks ({stats['fluxes']} received)")
    assert stats["fluxes"] == expected
    print(f"atmosphere finished at {fmt_time(stats['atm_done'])}")
    print(f"ocean finished at      {fmt_time(stats['ocean_done'])}")
    print(f"atmosphere wall-time   {fmt_time(world.app_walltime('atmosphere'))}")
    print(f"ocean wall-time        {fmt_time(world.app_walltime('ocean'))}")
    print("each code ran in its own MPI_COMM_WORLD; coupling used the universe")


if __name__ == "__main__":
    main()
