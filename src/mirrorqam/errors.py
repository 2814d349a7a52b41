"""Exception types; each user-error class carries its CLI exit code.

The CLI exits with exc.exit_code for the four classes below: 2 parse
error, 3 dimension error, 4 zero retrievable mass, 5 infeasible cloning.
"""


class PatternParseError(ValueError):
    """Malformed pattern input. Carries the offending line number when known."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionError(ValueError):
    """Width mismatch between patterns, inputs, or register layouts."""

    exit_code = 3


class ZeroMassError(ValueError):
    """Every stored pattern has vanishing retrieval weight; retrieval is impossible."""

    exit_code = 4


class CloningError(ValueError):
    """Base class for failures of the cloning-efficiency constraint."""

    exit_code = 5


class SingularOverlapError(CloningError):
    """Overlap is zero, so the efficiency constraint divides by zero."""


class InfeasibleCloningError(CloningError):
    """A retrieval mode required cloning efficiencies that do not exist."""
