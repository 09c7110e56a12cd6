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
    """Adaptive quadrature could not meet its tolerance within the subdivision budget.

    Carries the partial integral and the accumulated error estimate at the
    point of failure.
    """

    def __init__(self, message, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class TruncationError(EngineError):
    """A series truncation could not certify the requested tolerance within budget."""

    def __init__(self, message, terms_used=None, tail_bound=None):
        super().__init__(message)
        self.terms_used = terms_used
        self.tail_bound = tail_bound


class VerificationError(EngineError):
    """A numerical identity check failed; carries the full truncation report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SpecFormatError(EngineError, ValueError):
    """Spec-file parse or validation failure with a source line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
