"""NAS-MPI benchmark communication skeletons (classes C and D).

Problem classes carry the published NPB grid sizes, iteration counts and
total operation counts; communication patterns follow each benchmark's
documented structure (BT/SP multi-partition sweeps, LU wavefront pipeline,
CG butterfly exchanges, FT transpose all-to-all, MG V-cycle halos).
"""

from repro.apps.nas.adi import BT, SP
from repro.apps.nas.lu import LU
from repro.apps.nas.cg import CG
from repro.apps.nas.ft import FT
from repro.apps.nas.mg import MG
from repro.apps.nas.ep import EP

KERNELS = {k.name: k for k in (BT, SP, LU, CG, FT, MG, EP)}


def nas_kernel(name: str, nprocs: int, klass: str = "C", iterations: int = 5):
    """Factory: ``nas_kernel("SP", 900, "D")``."""
    try:
        cls = KERNELS[name.upper()]
    except KeyError:
        raise KeyError(f"unknown NAS kernel {name!r}; have {sorted(KERNELS)}") from None
    return cls(nprocs=nprocs, klass=klass, iterations=iterations)


__all__ = ["KERNELS", "nas_kernel"]
