"""Exception hierarchy shared across the package.

Each class carries the exit code of the CLI's contract: parameter problems
are usage errors (exit 2), violated mathematical hypotheses are precondition
failures (exit 3), cases where the spectral characterization simply does not
apply exit with 4, and any other package error with 1.
"""


class WcoError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParameterError(WcoError, ValueError):
    """An argument is outside its admissible range or malformed."""

    exit_code = 2


class PreconditionError(WcoError):
    """A documented mathematical hypothesis of an operation is violated."""

    exit_code = 3


class InapplicableError(WcoError):
    """The requested conclusion is not covered by the implemented theory."""

    exit_code = 4


class FixedPointInconclusive(PreconditionError):
    """Fixed-point iteration neither settled in the disc nor escaped."""


class NumericsError(WcoError):
    """A numerical routine failed to converge."""
