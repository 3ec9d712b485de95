"""Exception types shared across the library, and the integer check that
raises them."""

import numbers


class HidimError(Exception):
    """Base class for all hidim-specific errors."""


class NotPositiveSemidefinite(HidimError):
    """Matrix has no plain Cholesky factor, so no sample is drawn from it."""


class TooLarge(HidimError):
    """Requested enumeration exceeds the configured size guard."""


class IndexOutOfRange(HidimError, IndexError):
    """Variable index outside the matrix dimension."""


class DomainError(HidimError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateColumn(HidimError):
    """A column has zero variance, so its correlations are undefined."""

    def __init__(self, columns):
        self.columns = tuple(int(c) for c in columns)
        cols = ", ".join(str(c) for c in self.columns)
        super().__init__(f"zero-variance column(s): {cols}")


class DimensionMismatch(HidimError):
    """Data and correlation matrix dimensions disagree."""


class Unachievable(HidimError):
    """No admissible parameter attains the requested signal size."""


class ConfigError(HidimError, ValueError):
    """Simulation configuration violates an invariant."""


def require_integer(name: str, value, error=DomainError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer; a
    bool is not one."""
    # an int is one; the exact type test spares the common case the ABC check
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise error(f"{name} must be an integer, got {value!r}")
