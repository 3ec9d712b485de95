"""Exception types shared across the library, and one check per kind of
argument: an integer, a count >= a floor, a signal b, a level alpha and a
correlation rho."""

import math
import numbers
import sys


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


def require_count(name: str, value, floor: int, error=DomainError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``floor``."""
    require_integer(name, value, error)
    if value < floor:
        raise error(f"{name} must be an integer >= {floor}, got {value!r}")


def _require_real(name: str, value, error) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")


def require_signal(b, error=DomainError) -> None:
    """Raise ``error`` unless ``b`` is a finite real >= 0 with its sign bit clear."""
    _require_real("b", b, error)
    if not abs(b) <= sys.float_info.max:     # a NaN, and an int past the floats, too
        raise error("b must be finite and nonnegative")
    if b < 0.0 or math.copysign(1.0, b) < 0.0:     # -0.0 too
        raise error("b must be nonnegative")


def require_level(alpha, error=DomainError) -> None:
    """Raise ``error`` unless the level ``alpha`` is a real inside (0, 1)."""
    _require_real("alpha", alpha, error)
    if not 0.0 < alpha < 1.0:     # a NaN fails it too
        raise error("alpha must lie strictly inside (0, 1)")


def require_correlation(rho, error=DomainError) -> None:
    """Raise ``error`` unless the correlation ``rho`` is a real inside [-1, 1]."""
    _require_real("rho", rho, error)
    if not abs(rho) <= 1.0:     # a NaN fails it too
        raise error("rho must lie in [-1, 1]")
