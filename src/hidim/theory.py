"""Standard normal CDF/quantile and the asymptotic power curve of the test.

Algorithm notes
---------------
``normal_cdf`` evaluates Phi(x) = erfc(-x / sqrt(2)) / 2 through the
complementary error function, which is accurate to a few ulp across the
double range (far inside the 1e-10 absolute contract).  ``normal_tail`` is
Phi(-x), so both share that one expression.

``normal_quantile`` returns the *upper-tail* inverse: the x solving
tail(x) = p, as ``-scipy.special.ndtri(p)`` (Cephes' probit).  The tests
hold it to 50-digit reference values and round-trip it through
``normal_tail``.

Each function imports its ``scipy.special`` ufunc when it is called, not
when this module loads: that import costs more than half of a fresh
``import hidim``, and a process that never takes a normal CDF or quantile
(``hidim verify``, ``hidim gen``, a usage error) never pays it.  After the
first call the import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_level, require_signal

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Phi(x) for a scalar or array argument."""
    from scipy.special import erfc
    arr = np.asarray(x, dtype=float)
    out = 0.5 * erfc(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def normal_tail(x):
    """Upper-tail probability 1 - Phi(x) = Phi(-x), evaluated without
    cancellation."""
    return normal_cdf(np.negative(np.asarray(x, dtype=float)))


def normal_quantile(p):
    """Upper-tail quantile: the x with 1 - Phi(x) = p, for p in (0, 1)."""
    arr = np.asarray(p, dtype=float)
    # Two reductions and no boolean temporaries; a NaN fails both comparisons.
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    from scipy.special import ndtri
    result = ndtri(arr)
    return -float(result) if arr.ndim == 0 else np.negative(result, out=result)


def asymptotic_power(alpha: float, b: float) -> float:
    """Limiting power tail(z_alpha - b^2 / 2) at level ``alpha`` and signal ``b``.

    ``b`` scales the minimum Frobenius signal b * sqrt(m/n) of the
    alternative class; b = 0 recovers the level alpha itself.
    """
    require_level(alpha)
    require_signal(b)
    return normal_tail(normal_quantile(alpha) - 0.5 * b * b)
