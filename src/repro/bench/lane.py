"""The one lane shape: a row schema, a result container, a registry.

A bench lane is a driver function plus three declarations made where it is
defined:

* its **row schema**, a tuple of :class:`Column` — header, where the cell
  comes from on a point, how it is formatted — written once and used for
  the printed table, the ``BENCH_<lane>.json`` ``columns``/``rows`` and the
  static baseline check alike;
* its **result**, a :class:`LaneResult`: title, points, ``extras`` merged
  into the JSON payload, ``artifacts`` written beside it under ``--json``;
* its **registration**, ``@lane(name, columns=..., tolerances=..., flags=...)``
  (a :class:`Lane` applied as a decorator), which files it in :data:`LANES` —
  the only list of lanes there is.  The CLI iterates it; nothing else knows
  a lane by name.

Gates live in the lane body (or in :mod:`repro.bench.harness` when two
lanes share one) and raise :class:`~repro.errors.BenchGateError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from repro.util.tables import Table


class Column(NamedTuple):
    """One column of a lane's row schema.

    ``attr`` names the point attribute the cell is read from (default: the
    column's own name) or is a callable taking the point; ``scale``
    multiplies the value into the column's unit; ``fmt`` is a format spec
    (``".4f"``) — without one the value reaches :class:`Table` as is and
    takes its default cell formatting.
    """

    name: str
    attr: str | Callable[[Any], Any] | None = None
    fmt: str | None = None
    scale: float | None = None

    def cell(self, point: Any) -> Any:
        attr = self.attr or self.name
        value = attr(point) if callable(attr) else getattr(point, attr)
        if self.scale is not None:
            value = value * self.scale
        return value if self.fmt is None else format(value, self.fmt)


@dataclass
class LaneResult:
    """What every lane returns: titled points rendered through its columns."""

    title: str
    columns: tuple[Column, ...]
    points: list[Any] = field(default_factory=list)
    #: extra top-level keys of the ``BENCH_<lane>.json`` payload
    extras: dict[str, Any] = field(default_factory=dict)
    #: file name -> ``write(path)``, written beside the JSON under ``--json``
    artifacts: dict[str, Callable[[Path], object]] = field(default_factory=dict)

    def table(self) -> Table:
        t = Table([c.name for c in self.columns], title=self.title)
        t.extend([c.cell(point) for c in self.columns] for point in self.points)
        return t


#: every bench lane, by CLI name; filled by :class:`Lane` at definition site
LANES: dict[str, Lane] = {}


@dataclass
class Lane:
    """One lane's declaration; applied as a decorator it registers the driver.

    ``@lane("codec", columns=COLUMNS)`` above a driver files the lane in
    :data:`LANES` under its CLI name and returns the driver unchanged.
    """

    name: str
    columns: tuple[Column, ...]
    #: per-column ``--baseline`` tolerances the lane's noisy columns need
    tolerances: Mapping[str, float] = field(default_factory=dict)
    #: driver keyword -> ``(flag, argparse add_argument keywords)``
    flags: Mapping[str, tuple[str, dict[str, Any]]] = field(default_factory=dict)
    #: False: the lane builds its own per-run ``Telemetry`` and takes none
    telemetry: bool = True
    run: Callable[..., LaneResult] | None = None

    def __call__(self, run: Callable[..., LaneResult]) -> Callable[..., LaneResult]:
        self.run = run
        LANES[self.name] = self
        return run


#: the decorator spelling
lane = Lane
