"""Discrete-event simulation kernel.

Processes are plain Python generators that ``yield`` *waitables* or
non-negative ``float`` delays; the kernel advances virtual time and resumes
processes when their waitables fire or their delays are over.  This is the
execution substrate for the simulated MPI runtime: every simulated MPI rank
is one :class:`~repro.simt.process.Process`.

Quick example::

    from repro.simt import Kernel

    k = Kernel()

    def pinger(k):
        yield 1.5                                   # a pure delay: just the seconds
        yield k.any_of([gone, k.timeout(2.0)])      # an event object, to compose it
        return "done at %.1f" % k.now

    gone = k.event("never")
    p = k.spawn(pinger(k), name="pinger")
    k.run()
    assert k.now == 3.5 and p.value.startswith("done")
"""

from repro.simt.kernel import Kernel

__all__ = ["Kernel"]
