"""Exception hierarchy shared by all arcseq modules."""

__all__ = [
    "ArcseqError",
    "ValidationError",
    "WrongSolverError",
    "CapabilityError",
    "BudgetError",
    "FormatError",
]


class ArcseqError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ArcseqError, ValueError):
    """An object or argument violates its declared invariants."""


class WrongSolverError(ArcseqError):
    """A solver was invoked on an instance outside its scope."""


class CapabilityError(ArcseqError):
    """The requested operation cannot handle this instance shape.

    The message names the solver that can.
    """


class BudgetError(ArcseqError):
    """An exact computation would exceed its configured search budget.

    Raised instead of silently truncating or approximating.
    """


class FormatError(ArcseqError):
    """A text file does not conform to its declared format.

    Attributes:
        line: 1-based line number of the offending line, if known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
