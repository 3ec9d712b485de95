"""Degree-4 symmetric kernels behind the same-sample component II1.

Each kernel is stored once as a structural description and everything else
is derived from it: numeric evaluation on four bivariate samples (used by
the Monte Carlo harness), the exact expectation via Wick expansion (the
in-repo replacement for a symbolic-algebra step, and the trusted oracle
for the closed forms in :func:`hidim.moments.kernel_expectations`), and
the full U-statistic aggregation on small samples (used to validate the
transcription against the centered-covariance power terms).

Structure
---------
A kernel is ``(power, addends)``.  Each addend is ``(mult, slots)`` where
``slots`` is a tuple of per-sample factor products; each factor is either
``"A"`` (x^2 - 1, the centered variance term) or ``"B"`` (x*y - rho, the
centered covariance term).  The addend contributes

    mult * sum over injective assignments of slots to the 4 arguments
           of the product over slots of its factors,

and the group coefficient is C(n,4) / (n^power * C(n - r, 4 - r)) with
r = len(slots); the binomial divisor undoes the multiple counting of a
base term across the C(n - r, 4 - r) quadruples containing its r distinct
sample indices.  The swapped variants exchange the roles of x and y,
which only affects "A" since "B" is symmetric.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from .errors import DomainError, TooLarge
from .moments import pair_partitions

KERNELS = {
    # (1/(4n)) * sum_a B(a)^2
    "h1": (2, (
        (1, (("B", "B"),)),
    )),
    # one A slot against a B*B mass, split by how many samples coincide
    "h2": (3, (
        (1, (("A",), ("B",), ("B",))),
        (1, (("A",), ("B", "B"))),
        (2, (("A", "B"), ("B",))),
        (1, (("A", "B", "B"),)),
    )),
    # two A slots against a B*B mass
    "h3": (4, (
        (1, (("A",), ("A",), ("B",), ("B",))),
        (1, (("B", "B"), ("A",), ("A",))),
        (1, (("A", "A"), ("B",), ("B",))),
        (4, (("A", "B"), ("A",), ("B",))),
        (1, (("A", "A"), ("B", "B"))),
        (2, (("A",), ("A", "B", "B"))),
        (2, (("B",), ("B", "A", "A"))),
        (2, (("A", "B"), ("A", "B"))),
        (1, (("A", "A", "B", "B"),)),
    )),
}

KERNEL_NAMES = ("h1", "h2", "h3")


def _coef(n: int, power: int, r: int) -> float:
    return comb(n, 4) / (float(n) ** power * comb(n - r, 4 - r))


def _factor_values(factors, x, y, rho):
    val = None
    for f in factors:
        term = x * x if f == "A" else x * y
        term -= 1.0 if f == "A" else rho
        if val is None:
            val = term
        else:
            val *= term
    return val


def evaluate(name: str, x, y, rho: float, n: int, swapped: bool = False):
    """Evaluate a kernel on four samples.

    ``x`` and ``y`` hold the two coordinates of the four sample vectors,
    shape (4,) for a single evaluation or (4, reps) for a batch; the
    result is a float or an array of length reps.  ``swapped`` evaluates
    the mirrored kernel (coordinates exchanged).
    """
    if n < 4:
        raise DomainError("kernels are degree 4, so n >= 4 is required")
    power, addends = KERNELS[name]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if swapped:
        x, y = y, x
    if x.shape[0] != 4 or y.shape != x.shape:
        raise DomainError("expected four samples in the leading axis")

    # Slot values are reused across permutations, so nothing below writes
    # into an array that slot_value returned; every sum and product is
    # accumulated in an array the loop allocated itself.
    cache = {}

    def slot_value(factors, slot):
        key = (factors, slot)
        if key not in cache:
            cache[key] = _factor_values(factors, x[slot], y[slot], rho)
        return cache[key]

    total = np.zeros_like(x[0])
    for mult, slots in addends:
        r = len(slots)
        part = np.zeros_like(x[0])
        for assign in permutations(range(4), r):
            prod = slot_value(slots[0], assign[0])
            if r > 1:
                prod = prod * slot_value(slots[1], assign[1])
                for lbl in range(2, r):
                    prod *= slot_value(slots[lbl], assign[lbl])
            part += prod
        part *= _coef(n, power, r) * mult
        total += part
    if np.ndim(total) == 0:
        return float(total)
    return total


def _poly_mul(p1, p2):
    out = {}
    for (a1, b1), c1 in p1.items():
        for (a2, b2), c2 in p2.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _factor_poly(f, rho, swapped):
    if f == "A":
        return {(0, 2) if swapped else (2, 0): 1.0, (0, 0): -1.0}
    return {(1, 1): 1.0, (0, 0): -rho}


@lru_cache(maxsize=None)
def _wick_xy_moment(a: int, b: int, rho: float) -> float:
    """E[X^a Y^b] for a standard bivariate normal pair with correlation rho."""
    total_deg = a + b
    if total_deg % 2 == 1:
        return 0.0
    if total_deg == 0:
        return 1.0
    idx = (0,) * a + (1,) * b
    cov = ((1.0, rho), (rho, 1.0))
    total = 0.0
    for partition in pair_partitions(total_deg // 2):
        prod = 1.0
        for i, j in partition:
            prod *= cov[idx[i]][idx[j]]
        total += prod
    return total


def expectation_by_expansion(name: str, rho: float, n: int, swapped: bool = False) -> float:
    """Exact kernel mean by expanding its per-sample polynomials.

    Sample slots are i.i.d., so an addend's expectation factorizes into a
    product of per-slot expectations, each a finite Wick sum; every
    injective slot assignment contributes the same value.
    """
    if abs(rho) > 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    if n < 4:
        raise DomainError("kernels are degree 4, so n >= 4 is required")
    power, addends = KERNELS[name]
    total = 0.0
    for mult, slots in addends:
        r = len(slots)
        n_assign = 1
        for v in range(4, 4 - r, -1):
            n_assign *= v
        prod = 1.0
        for factors in slots:
            poly = {(0, 0): 1.0}
            for f in factors:
                poly = _poly_mul(poly, _factor_poly(f, rho, swapped))
            prod *= sum(c * _wick_xy_moment(a, b, rho) for (a, b), c in poly.items())
        total += _coef(n, power, r) * mult * n_assign * prod
    return total


def u_statistic(name: str, x, y, rho: float, swapped: bool = False) -> float:
    """C(n,4)^{-1}-weighted sum of the kernel over all sample quadruples.

    Test-scale only (n <= 12 guard): reproduces the centered-covariance
    power term the kernel represents, e.g. the h1 aggregate equals
    n^{-2} sum_i (x_i y_i - rho)^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise DomainError("need at least 4 samples")
    if n > 12:
        raise TooLarge("u_statistic enumeration limited to n <= 12")
    total = 0.0
    for quad in combinations(range(n), 4):
        total += evaluate(name, x[list(quad)], y[list(quad)], rho, n, swapped=swapped)
    return total / comb(n, 4)
