"""Span tracing in virtual time.

A span is one named interval on one track (``pid`` = one simulated rank, or
:data:`~repro.telemetry.core.KERNEL_PID` for the kernel itself).  Spans nest
freely on a track — the Chrome trace-event viewer infers nesting from
containment of complete (``"X"``) events — and work both as explicit
``begin``/``end`` pairs (the natural shape inside generator-based simulation
code) and as context managers for host-side code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry


class Span:
    """One open interval; ``end()`` stamps the close time and records it.

    While open, the span is tracked in ``Telemetry.open_spans()`` so a
    mid-run export (the online monitor's view) still sees in-flight work.
    """

    __slots__ = ("name", "cat", "pid", "tid", "t0", "t1", "args", "_tel")

    def __init__(
        self,
        tel: "Telemetry",
        name: str,
        pid: int,
        tid: int,
        cat: str,
        args: dict[str, Any] | None,
    ):
        self._tel = tel
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.t0 = tel.now()
        self.t1: float | None = None
        self.args = args
        tel._open_span(self)

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise RuntimeError(f"span {self.name!r} not ended")
        return self.t1 - self.t0

    def end(self, **extra: Any) -> "Span":
        """Close the span; extra keywords are merged into its args."""
        if self.t1 is not None:
            raise RuntimeError(f"span {self.name!r} ended twice")
        self.t1 = self._tel.now()
        if extra:
            self.args = {**(self.args or {}), **extra}
        self._tel._record_span(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.t1 is None:
            self.end()


class NullSpan:
    """Shared no-op span returned by disabled telemetry."""

    __slots__ = ()
    name = "null"
    t0 = 0.0
    t1 = 0.0
    duration = 0.0

    def end(self, **extra: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = NullSpan()
