"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class ProcessCrashError(SimulationError):
    """A process crashed with no other process joining it.

    Carries the crashed process name and the original exception (also
    chained as ``__cause__``) so callers can distinguish a genuine crash
    from a deadlock or a kernel bug.
    """

    def __init__(self, process_name: str, original: BaseException):
        self.process_name = process_name
        self.original = original
        super().__init__(
            f"unhandled crash in process {process_name}: {original!r}"
        )


class DeadlockError(SimulationError):
    """The kernel ran out of events while processes were still blocked."""

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        preview = ", ".join(blocked[:8])
        more = "" if len(blocked) <= 8 else f" (+{len(blocked) - 8} more)"
        super().__init__(f"deadlock: {len(blocked)} blocked process(es): {preview}{more}")


class MPIError(ReproError):
    """Errors raised by the simulated MPI runtime."""


class CommunicatorError(MPIError):
    """Invalid communicator usage (bad rank, freed communicator, ...)."""


class VMPIError(ReproError):
    """Errors raised by the VMPI virtualization / mapping / stream layer."""


class MappingError(VMPIError):
    """Invalid partition mapping request."""


class StreamClosedError(VMPIError):
    """Operation attempted on a closed VMPI stream."""


class BlackboardError(ReproError):
    """Errors raised by the parallel blackboard engine."""


class UnknownTypeError(BlackboardError):
    """A data entry referenced an unregistered data type."""


class InstrumentationError(ReproError):
    """Errors raised by the event instrumentation layer."""


class PackFormatError(InstrumentationError):
    """An event pack failed to decode (corrupt header or payload)."""


class FrameTruncatedError(PackFormatError):
    """A pack frame ended before its declared sections did."""


class SectionLengthError(PackFormatError):
    """A frame section declared a length inconsistent with its type or blob."""


class ChecksumError(PackFormatError):
    """A frame's CRC-32 section is missing or does not match its bytes."""


class UnknownCodecError(PackFormatError):
    """A frame's codec descriptor names a reduction stage this build lacks."""


class IOSimError(ReproError):
    """Errors raised by the parallel file-system model."""


class ConfigError(ReproError):
    """Invalid user-facing configuration."""


class BenchGateError(ReproError):
    """A bench lane's own acceptance gate was violated by the run it gated."""
