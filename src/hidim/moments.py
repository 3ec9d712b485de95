"""Exact Gaussian moment engine.

Everything here is closed-form or finite enumeration: pair-partition
(Wick) expansion of Gaussian product moments, central moments of products
of centered pair terms, partial derivatives of the squared-correlation map
f(u1, u2, u3) = u3^2 / (u1 u2), the exact cardinality-split sums S(k)
feeding the exact variance of the leading decomposition term, and the
closed-form expectations of the three degree-4 kernels underlying the
same-sample component (see :mod:`hidim.kernels` for the kernels
themselves and the independent expansion-based oracle).  ``identity_rows``
is the battery of exact identity gates that ``hidim verify`` prints and
the acceptance suite asserts.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import (DomainError, IndexOutOfRange, TooLarge, require_correlation, require_count,
                     require_integer)
from .matrix import CorrMatrix, pair_offsets

# Enumeration guards, sized so worst-case desk runtime stays under ~10 s.
MAX_PARTITION_K = 8
MAX_M_S = 60

PairPartition = Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=None, typed=True)
def pair_partitions(k: int) -> Tuple[PairPartition, ...]:
    """All perfect matchings of {0, ..., 2k-1}; there are (2k)!/(2^k k!).
    The cache is typed, so that a bool k is checked, not served as its int."""
    require_count("k", k, 1)
    if k > MAX_PARTITION_K:
        raise TooLarge(f"pair partitions limited to k <= {MAX_PARTITION_K}")

    def rec(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for i, other in enumerate(rest):
            head = (first, other)
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield (head,) + tail

    return tuple(rec(tuple(range(2 * k))))


def _require_index(i, m: int) -> None:
    """Raise unless ``i`` is an integer index into m variables: a float or
    a bool is a DomainError, not read as the integer it truncates to."""
    require_integer("index", i)
    if i < 0 or i >= m:
        raise IndexOutOfRange(f"index {i} outside [0, {m})")


def _require_indices(indices, m: int) -> None:
    """``_require_index`` of each index in turn; an int in range, the
    common case, is passed without the call."""
    for i in indices:
        if type(i) is not int or not 0 <= i < m:
            _require_index(i, m)


def isserlis_moment(indices: Sequence[int], r: CorrMatrix) -> float:
    """E[Z_{i1} ... Z_{i2k}] for a centered Gaussian vector with correlation R.

    Sum over all pair partitions of the product of paired correlations.
    An odd number of indices gives 0 by symmetry.  Indices are 0-based and
    may repeat.
    """
    idx = tuple(indices)
    _require_indices(idx, r.m)
    return _wick_sum(idx, r.rho)


def _wick_sum(idx: Tuple[int, ...], rho: np.ndarray) -> float:
    """``isserlis_moment`` of indices already checked against ``rho``."""
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0
    total = 0.0
    for partition in pair_partitions(len(idx) // 2):
        prod = 1.0
        for a, b in partition:
            prod *= rho.item(idx[a], idx[b])
        total += prod
    return total


def central_pair_moment(p1: int, q1: int, p2: int, q2: int, r: CorrMatrix) -> float:
    """E[(X_p1 X_q1 - rho_p1q1)(X_p2 X_q2 - rho_p2q2)] in closed form.

    Equals rho_{p1 q2} rho_{q1 p2} + rho_{p1 p2} rho_{q1 q2}.  The indices
    may be integer arrays that broadcast together; the moment is then taken
    elementwise.
    """
    _require_indices([end for i in (p1, q1, p2, q2)
                      for end in ((i.min(), i.max()) if isinstance(i, np.ndarray) else (i,))],
                     r.m)
    rho = r.rho
    return rho[p1, q2] * rho[q1, p2] + rho[p1, p2] * rho[q1, q2]


def central_product_moment(duples: Sequence[Tuple[int, int]], r: CorrMatrix) -> float:
    """E[prod_d (X_{p_d} X_{q_d} - rho_{p_d q_d})] by termwise expansion.

    The product is expanded over subsets of duples and each mixed moment
    is evaluated with ``isserlis_moment``; with at most 4 duples that is
    at most 16 Wick sums of order <= 8, whose indices are checked once,
    here.
    """
    duples = list(duples)
    for duple in duples:
        _require_indices(duple, r.m)
    if len(duples) < 1:
        raise DomainError("need at least one duple")
    if len(duples) > 4:
        raise TooLarge("central product moments limited to 4 duples")
    rho = r.rho
    total = 0.0
    for mask in range(1 << len(duples)):
        coeff = 1.0
        indices: Tuple[int, ...] = ()
        for d, (p, q) in enumerate(duples):
            if mask & (1 << d):
                indices += (p, q)
            else:
                coeff *= -rho.item(p, q)
        total += coeff * _wick_sum(indices, rho)
    return total


def f_partial(lam: Sequence[int], u1: float, u2: float, u3: float) -> float:
    """Partial derivative of f(u1, u2, u3) = u3^2 / (u1 u2) of multi-order lam:
    the exact quotient rounded once, or a DomainError past the largest float.
    Orders above 2 in the third argument vanish because f is quadratic in u3.
    """
    lam = tuple(lam)
    if len(lam) != 3:
        raise DomainError("lam must be three nonnegative integers")
    for k, order in enumerate(lam):
        require_count(f"lam[{k}]", order, 0)
    for name, u in (("u1", u1), ("u2", u2)):
        if not 0.0 < u < math.inf:     # a NaN fails it too
            raise DomainError(f"{name} must be finite and positive, got {u!r}")
    if not math.isfinite(u3):
        raise DomainError(f"u3 must be finite, got {u3!r}")
    l1, l2, l3 = lam
    if l3 > 2:
        return 0.0
    # numpy integers have no as_integer_ratio, so every value but an int goes through float
    (n1, d1), (n2, d2), (n3, d3) = (u.as_integer_ratio() if isinstance(u, int)
                                    else float(u).as_integer_ratio() for u in (u1, u2, u3))
    coeff = (-1) ** (l1 + l2) * (1 if l3 == 0 else 2) * math.factorial(l1) * math.factorial(l2)
    try:     # int / int is correctly rounded, to a subnormal or 0.0 below the floats
        return (coeff * n3 ** (2 - l3) * d1 ** (1 + l1) * d2 ** (1 + l2)
                / (d3 ** (2 - l3) * n1 ** (1 + l1) * n2 ** (1 + l2)))
    except OverflowError:
        raise DomainError(f"f_partial of order lam = {lam} at (u1, u2, u3) = "
                          f"({u1!r}, {u2!r}, {u3!r}) is too large for a float") from None


def s_sum(k: int, r: CorrMatrix) -> float:
    """Sum of central_pair_moment(p, q, p', q', R)^2 over the ordered pairs
    of duples p < q, p' < q' whose index union has k elements (k = 2, 3 or
    4).  One enumeration of all O(m^4) duple pairs, a block of first duples
    at a time, binned by union size (4 minus the coincident indices); it is
    guarded by m <= MAX_M_S for every k.
    """
    if k not in (2, 3, 4):
        raise DomainError("k must be 2, 3 or 4")
    if r.m > MAX_M_S:
        raise TooLarge(f"s_sum limited to m <= {MAX_M_S}")
    p, q = divmod(pair_offsets(r.m), r.m)
    rows = 2 ** 14 // (p.size + 1) + 1    # about 16k duple pairs a block
    total = 0.0
    for start in range(0, p.size, rows):
        p1, q1 = p[start:start + rows, None], q[start:start + rows, None]
        moment = central_pair_moment(p1, q1, p, q, r)
        union = 4 - (p1 == p) - (p1 == q) - (q1 == p) - (q1 == q)
        total += float(np.sum(moment[union == k] ** 2))
    return total


def var_i_exact(r: CorrMatrix, n: int) -> float:
    """Exact variance of the leading (cross-sample) decomposition term.

    Equals 2 n (n-1) / n^4 times S(2) + S(3) + S(4); exact at every finite
    n, not an asymptotic statement.  The sum is taken in O(m^3) by its trace
    form: with A = R o R (entrywise square),
    S(2) + S(3) + S(4) = [2 (sum A)^2 + 2 ||R^2||_F^2 - 8 ||A 1||^2
    + 4 sum A o A] / 4.  ``s_sum``, which enumerates the duple pairs, is its
    independent oracle.
    """
    require_count("n", n, 1)
    rho = r.rho
    a = rho * rho
    r_sq = rho @ rho
    rows = a.sum(axis=1)
    total = (2.0 * a.sum() ** 2 + 2.0 * np.sum(r_sq * r_sq) - 8.0 * (rows @ rows)
             + 4.0 * np.sum(a * a)) / 4.0
    return 2.0 * n * (n - 1) / float(n) ** 4 * float(total)


def kernel_expectations(rho: float, n: int) -> Dict[str, float]:
    """Closed-form means of the three degree-4 kernels, keyed by kernel
    name: h1 (1+rho^2)/n, h2 2(1+3 rho^2)/n^2, h3 2(4+n)(1+5 rho^2)/n^3.

    The independent oracle for these is
    :func:`hidim.kernels.expectation_by_expansion`, which takes the same
    names and expands each kernel's addends into per-sample slot means,
    each a ``central_product_moment``.
    """
    require_correlation(rho)
    require_count("n", n, 4)
    r2 = rho * rho
    nf = float(n)
    return {"h1": (1.0 + r2) / nf,
            "h2": 2.0 * (1.0 + 3.0 * r2) / nf ** 2,
            "h3": 2.0 * (4.0 + nf) * (1.0 + 5.0 * r2) / nf ** 3}


def expected_ii1(r: CorrMatrix, n: int) -> float:
    """Exact mean of the same-sample component II1 of the decomposition.

    Sum over p < q of (16 + n^2 + (80 + 8n + n^2) rho_pq^2) / n^3; its
    n -> infinity limit is the centering constant m(m-1)/(2n).
    """
    require_count("n", n, 1)
    nf = float(n)
    rho2 = r.rho.ravel()[pair_offsets(r.m)] ** 2
    return float(np.sum((16.0 + nf * nf + (80.0 + 8.0 * nf + nf * nf) * rho2) / nf ** 3))


IDENTITY_BOUND = 1e-12


def random_corr(rng: np.random.Generator, m: int) -> CorrMatrix:
    """The correlation matrix of a random m x m Wishart draw with m + 3
    degrees of freedom.  The Gram matrix of m + 3 Gaussian columns is finite
    and symmetric, and scaling it by its own diagonal leaves that diagonal
    within rounding of 1, so the constructor's structure checks are
    skipped."""
    a = rng.standard_normal((m, m + 3))
    cov = a @ a.T
    d = np.sqrt(cov.diagonal())
    return CorrMatrix._unchecked(cov / (d[:, None] * d))


def identity_rows():
    """(quantity, error label, error) of each of the 12 deterministic
    identity gates, each held to IDENTITY_BOUND: closed forms of this module
    against a second route, on matrices drawn from the fixed rng seed
    20240817."""
    from . import kernels  # kernels imports this module
    rng = np.random.default_rng(20240817)
    rows = []

    for k in range(1, 7):
        closed = math.factorial(2 * k) // (2 ** k * math.factorial(k))
        oracle = len(pair_partitions(k))
        rows.append((f"partition count k={k}", "|rel err|", abs(closed - oracle) / closed))

    worst = 0.0
    for _ in range(200):
        r = random_corr(rng, int(rng.integers(2, 8)))
        p1, q1, p2, q2 = rng.integers(0, r.m, size=4).tolist()
        closed = central_pair_moment(p1, q1, p2, q2, r)
        oracle = central_product_moment([(p1, q1), (p2, q2)], r)
        # absolute: O(1) Wick terms cancel to closed forms from ~1e-4 up to 2
        worst = max(worst, abs(closed - oracle))
    rows.append(("pair moment identity (200 random)", "|err|", worst))

    worst = 0.0
    for _ in range(25):
        r = random_corr(rng, int(rng.integers(2, 15)))
        off = r.rho.ravel()[pair_offsets(r.m)]     # the entries above the diagonal
        closed = float(np.sum(1.0 + 2.0 * off ** 2 + off ** 4))
        oracle = s_sum(2, r)
        worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-12))
    rows.append(("S(2) closed form (25 random)", "|rel err|", worst))

    worst = 0.0
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
        for n in (4, 6, 10, 25):
            for name, closed in kernel_expectations(rho, n).items():
                oracle = kernels.expectation_by_expansion(name, rho, n)
                worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-12))
    rows.append(("kernel means vs expansion (grid)", "|rel err|", worst))

    # partial-derivative spot identities at a few exactly-known points
    for name, got, want in (("f(1,1,rho)", f_partial((0, 0, 0), 1.0, 1.0, 0.7), 0.49),
                            ("d2f/du3^2", f_partial((0, 0, 2), 1.0, 1.0, 0.7), 2.0),
                            ("d2f/du1du3", f_partial((1, 0, 1), 1.0, 1.0, 0.7), -1.4)):
        rows.append((name, "|err|", abs(got - want)))
    return rows
