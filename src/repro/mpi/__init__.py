"""Simulated MPI runtime.

A deterministic MPI-like runtime executing on the discrete-event kernel:
every rank is a coroutine process, point-to-point messages move through the
flow-level network model with correct tag/source matching semantics, and
collectives are synchronizing operations with standard log-tree cost models.
Programs are launched MPMD-style — exactly the substrate the paper's VMPI
layer needs.

Application code is written against :class:`~repro.mpi.world.ProgramAPI`
(the per-rank handle) and :class:`~repro.mpi.communicator.Comm`::

    def main(mpi):
        comm = mpi.comm_world
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024, tag=7)
        elif comm.rank == 1:
            status = yield from comm.recv(source=0, tag=7)
        yield from comm.barrier()

    from repro.mpi.launcher import MPMDLauncher
    from repro.network.machine import TERA100

    launcher = MPMDLauncher(machine=TERA100)
    launcher.add_program("hello", nprocs=2, main=main)
    world = launcher.launch()
    world.run()
"""
