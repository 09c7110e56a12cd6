"""Exception types shared across the package."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EngineError, ValueError):
    """An argument lies outside the physical or numerical domain of an operation."""


class StateError(EngineError, ValueError):
    """A population-vector invariant (normalization, ordering, weight range) is violated."""


class IsothermRangeError(DomainError):
    """Requested width lies outside the validity window of an isotherm."""


class CycleGeometryError(DomainError):
    """Cycle endpoints would produce a self-intersecting (negative-work) cycle."""


class ScaleError(EngineError):
    """Energies or forces of the inputs would over- or underflow binary64."""


class QuadratureError(EngineError):
    """A cycle's quadrature works disagree with its closed forms by more
    than ``cycle.QUADRATURE_REL_TOL`` of ``Q_H``; the message names the
    stroke whose two works differ most."""


class TruncationError(EngineError):
    """A series truncation could not certify the requested tolerance within
    budget; the message names the budget and the cutoff or bound it missed."""


class VerificationError(EngineError):
    """A numerical identity check failed; carries the full truncation report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SpecFormatError(EngineError, ValueError):
    """Spec-file parse or validation failure; a message about one line of the
    file starts with ``line N: ``."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
