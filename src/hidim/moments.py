"""Exact Gaussian moment engine.

Everything here is closed-form or finite enumeration: pair-partition
(Wick) expansion of Gaussian product moments, central moments of products
of centered pair terms, partial derivatives of the squared-correlation map
f(u1, u2, u3) = u3^2 / (u1 u2), the exact cardinality-split sums S(k)
feeding the exact variance of the leading decomposition term, and the
closed-form expectations of the three degree-4 kernels underlying the
same-sample component (see :mod:`hidim.kernels` for the kernels
themselves and the independent expansion-based oracle).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import DomainError, IndexOutOfRange, TooLarge
from .matrix import CorrMatrix

# Enumeration guards, sized so worst-case desk runtime stays under ~10 s.
MAX_PARTITION_K = 8
MAX_M_S3 = 200
MAX_M_S4 = 60

PairPartition = Tuple[Tuple[int, int], ...]


@lru_cache(maxsize=None)
def pair_partitions(k: int) -> Tuple[PairPartition, ...]:
    """All perfect matchings of {0, ..., 2k-1}; there are (2k)!/(2^k k!)."""
    if k < 1:
        raise DomainError("k must be a positive integer")
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


def isserlis_moment(indices: Sequence[int], r: CorrMatrix) -> float:
    """E[Z_{i1} ... Z_{i2k}] for a centered Gaussian vector with correlation R.

    Sum over all pair partitions of the product of paired correlations.
    An odd number of indices gives 0 by symmetry.  Indices are 0-based and
    may repeat.
    """
    idx = tuple(int(i) for i in indices)
    for i in idx:
        if i < 0 or i >= r.m:
            raise IndexOutOfRange(f"index {i} outside [0, {r.m})")
    if len(idx) % 2 == 1:
        return 0.0
    if not idx:
        return 1.0
    rho = r.rho
    total = 0.0
    for partition in pair_partitions(len(idx) // 2):
        prod = 1.0
        for a, b in partition:
            prod *= rho[idx[a], idx[b]]
        total += prod
    return total


def central_pair_moment(p1: int, q1: int, p2: int, q2: int, r: CorrMatrix) -> float:
    """E[(X_p1 X_q1 - rho_p1q1)(X_p2 X_q2 - rho_p2q2)] in closed form.

    Equals rho_{p1 q2} rho_{q1 p2} + rho_{p1 p2} rho_{q1 q2}.
    """
    for i in (p1, q1, p2, q2):
        if i < 0 or i >= r.m:
            raise IndexOutOfRange(f"index {i} outside [0, {r.m})")
    rho = r.rho
    return rho[p1, q2] * rho[q1, p2] + rho[p1, p2] * rho[q1, q2]


def central_product_moment(duples: Sequence[Tuple[int, int]], r: CorrMatrix) -> float:
    """E[prod_d (X_{p_d} X_{q_d} - rho_{p_d q_d})] by termwise expansion.

    The product is expanded over subsets of duples and each mixed moment
    is evaluated with ``isserlis_moment``; with at most 4 duples that is
    at most 16 Wick sums of order <= 8.
    """
    duples = [(int(p), int(q)) for p, q in duples]
    if len(duples) < 1:
        raise DomainError("need at least one duple")
    if len(duples) > 4:
        raise TooLarge("central product moments limited to 4 duples")
    rho = r.rho
    total = 0.0
    for mask in range(1 << len(duples)):
        coeff = 1.0
        indices: list[int] = []
        for d, (p, q) in enumerate(duples):
            if mask & (1 << d):
                indices.extend((p, q))
            else:
                coeff *= -rho[p, q]
        total += coeff * isserlis_moment(indices, r)
    return total


def f_partial(lam: Sequence[int], u1: float, u2: float, u3: float) -> float:
    """Partial derivative of f(u1, u2, u3) = u3^2 / (u1 u2) of multi-order lam.

    Orders above 2 in the third argument vanish because f is quadratic in u3.
    """
    lam = tuple(int(v) for v in lam)
    if len(lam) != 3 or any(v < 0 for v in lam):
        raise DomainError("lam must be three nonnegative integers")
    if u1 <= 0.0 or u2 <= 0.0:
        raise DomainError("u1 and u2 must be positive")
    l1, l2, l3 = lam
    if l3 > 2:
        return 0.0
    mult = 1.0 if l3 == 0 else 2.0
    sign = -1.0 if (l1 + l2) % 2 else 1.0
    return (mult * sign * math.factorial(l1) * math.factorial(l2)
            * u3 ** (2 - l3) / (u1 ** (1 + l1) * u2 ** (1 + l2)))


def _s2(rho: np.ndarray) -> float:
    iu = np.triu_indices(rho.shape[0], 1)
    off = rho[iu]
    m2 = off * off + 1.0
    return float(np.sum(m2 * m2))


def _s3(rho: np.ndarray) -> float:
    # Ordered pairs of duples sharing exactly one index s: the shared index
    # determines the pair, so loop over s with vectorized partners.
    m = rho.shape[0]
    total = 0.0
    for s in range(m):
        idx = np.concatenate((np.arange(s), np.arange(s + 1, m)))
        v = rho[s, idx]
        msub = np.outer(v, v) + rho[np.ix_(idx, idx)]
        np.fill_diagonal(msub, 0.0)
        total += float(np.sum(msub * msub))
    return total


def _s4(rho: np.ndarray) -> float:
    p, q = np.triu_indices(rho.shape[0], 1)
    total = 0.0
    for i in range(p.size):
        p1, q1 = p[i], q[i]
        mrow = rho[p1, q] * rho[q1, p] + rho[p1, p] * rho[q1, q]
        disjoint = (p != p1) & (p != q1) & (q != p1) & (q != q1)
        total += float(np.sum(mrow[disjoint] ** 2))
    return total


def s_sum(k: int, r: CorrMatrix) -> float:
    """Sum of squared central pair moments over ordered duple pairs whose
    index union has cardinality k (k = 2, 3 or 4).

    Enumeration guards: unlimited m for k=2, m <= 200 for k=3, m <= 60
    for k=4 (the k=4 enumeration is O(m^4) duple pairs).
    """
    if k == 2:
        return _s2(r.rho)
    if k == 3:
        if r.m > MAX_M_S3:
            raise TooLarge(f"s_sum(3, .) limited to m <= {MAX_M_S3}")
        return _s3(r.rho)
    if k == 4:
        if r.m > MAX_M_S4:
            raise TooLarge(f"s_sum(4, .) limited to m <= {MAX_M_S4}")
        return _s4(r.rho)
    raise DomainError("k must be 2, 3 or 4")


def var_i_exact(r: CorrMatrix, n: int) -> float:
    """Exact variance of the leading (cross-sample) decomposition term.

    Equals 2 n (n-1) / n^4 times S(2) + S(3) + S(4); exact at every finite
    n, not an asymptotic statement.  The sum is taken in O(m^3) by its trace
    form: with A = R o R (entrywise square),
    S(2) + S(3) + S(4) = [2 (sum A)^2 + 2 ||R^2||_F^2 - 8 ||A 1||^2
    + 4 sum A o A] / 4.  ``s_sum``, which enumerates the duple pairs, is its
    independent oracle.
    """
    if n < 1:
        raise DomainError("n must be a positive integer")
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
    names, expands each kernel's polynomial terms and evaluates them
    through the Wick sum.
    """
    if not abs(rho) <= 1.0:
        raise DomainError("rho must lie in [-1, 1]")
    if n < 4:
        raise DomainError("kernels have degree 4, so n >= 4 is required")
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
    if n < 1:
        raise DomainError("n must be a positive integer")
    nf = float(n)
    iu = np.triu_indices(r.m, 1)
    rho2 = r.rho[iu] ** 2
    return float(np.sum((16.0 + nf * nf + (80.0 + 8.0 * nf + nf * nf) * rho2) / nf ** 3))
