"""Bench lanes regenerating every figure and table of the paper.

Importing the package fills :data:`LANES`, the one registry of lanes: each
lane module registers its driver with ``@lane(...)`` next to the row schema
it declares (see :mod:`repro.bench.lane` for the shape).  A driver returns
a :class:`~repro.bench.lane.LaneResult` — titled points rendered through
the lane's columns, printing the same rows the paper plots — and accepts a
``scale``:

* ``"small"`` — reduced process counts / volumes, minutes of CPU; the
  default for the pytest-benchmark suite;
* ``"paper"`` — the paper's own parameter grid (2560-writer streams,
  4096-rank SP.D, 8281-rank BT.D); expect long runtimes.

Drivers and result classes are imported from the module that defines them
(``repro.bench.figures``, ``repro.bench.tables``, ``repro.bench.codec``, ...).
"""

# importing a lane module registers its lanes
from repro.bench import chaos, codec, figures, flow, metrics, obs  # noqa: F401
from repro.bench import selfperf, steering, tables  # noqa: F401
from repro.bench.chaos import load_plan
from repro.bench.harness import measure_overhead
from repro.bench.lane import LANES

__all__ = ["LANES", "load_plan", "measure_overhead"]
