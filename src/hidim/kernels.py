"""Degree-4 symmetric kernels behind the same-sample component II1.

Each kernel is stored once as a structural description and everything else
is derived from it: numeric evaluation on four bivariate samples (used by
the Monte Carlo harness), the exact expectation by expansion into
per-sample slot means, each a :func:`hidim.moments.central_product_moment`
(the in-repo replacement for a symbolic-algebra step, and the trusted oracle
for the closed forms in :func:`hidim.moments.kernel_expectations`).  The
tests aggregate the evaluation into the full U-statistic on small samples
to validate the transcription against the centered-covariance power terms.

Structure
---------
A kernel is ``(power, addends)``.  Each addend is ``(mult, slots)`` where
``slots`` is a tuple of per-sample factor products; each factor is either
``"A"`` (x^2 - 1, the centered duple (0, 0) of (x, y)) or ``"B"``
(x*y - rho, the centered duple (0, 1)).  The addend contributes

    mult * sum over injective assignments of slots to the 4 arguments
           of the product over slots of its factors,

and the group coefficient w(r) = C(n,4) / (n^power * C(n - r, 4 - r)) with
r = len(slots); the binomial divisor undoes the multiple counting of a
base term across the C(n - r, 4 - r) quadruples containing its r distinct
sample indices.  The swapped variants exchange the roles of x and y,
which only affects "A" since "B" is symmetric.

Evaluation
----------
Label the factors of the one-slot addend (``a`` A's and ``b`` B's).  For
each r, the r-slot addends are either absent or all the set partitions of
the labelled factors into r blocks, ``mult`` counting the partitions of
one block type.  A kernel is therefore the sum over all maps of its factors
to the four samples of the factor product, weighted by w(number of samples
hit), with w(r) = 0 where no r-slot addend exists.  Moebius inversion over
the subsets T of the samples turns that into subset sums:

    h = sum over nonempty T of g(|T|) (sum_{j in T} A_j)^a (sum_{j in T} B_j)^b,
    g(k) = sum_{u=k..4} (-1)^(u-k) C(4-k, u-k) w(u).

All variants share the 15 subset sums of A (for x and for y) and of B.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, perm

import numpy as np

from .errors import DomainError, require_correlation, require_count
from .matrix import CorrMatrix
from .moments import central_product_moment

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

# (kernel, swapped) pairs the Monte Carlo checks; h1 is its own mirror.
VARIANTS = (("h1", False), ("h2", False), ("h2", True), ("h3", False), ("h3", True))


def _coef(n: int, power: int, r: int) -> float:
    return comb(n, 4) / (float(n) ** power * comb(n - r, 4 - r))


def _a_power(name: str) -> int:
    """a, the number of A factors, read off the one-slot addend; every kernel
    has two B factors, so on a subset it is (sum A)^a (sum B)^2."""
    (factors,) = next(slots for _, slots in KERNELS[name][1] if len(slots) == 1)
    return factors.count("A")


@lru_cache(maxsize=None)
def _size_weights(name: str, n: int) -> tuple:
    """g(1..4), the weight of a subset sum term by the size of its subset;
    cached, because every block of a Monte Carlo run asks for the same
    (name, n)."""
    power, addends = KERNELS[name]
    present = {len(slots) for _, slots in addends}
    w = [_coef(n, power, r) if r in present else 0.0 for r in range(5)]
    return tuple(sum((-1) ** (u - k) * comb(4 - k, u - k) * w[u] for u in range(k, 5))
                 for k in range(1, 5))


def evaluate_variants(x, y, rho: float, n: int, variants=VARIANTS) -> np.ndarray:
    """Evaluate several kernel variants on the same four samples.

    ``x`` and ``y`` hold the two coordinates of the four sample vectors,
    shape (4,) or (4, reps); ``variants`` lists (name, swapped) pairs.  The
    result has shape (len(variants),) or (len(variants), reps).
    """
    require_correlation(rho)
    require_count("n", n, 4)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != 4 or y.shape != x.shape:
        raise DomainError("expected four samples in the leading axis")
    shape = (len(variants),) + x.shape[1:]
    x = x.reshape(4, -1)
    y = y.reshape(4, -1)
    draws = x.shape[1]
    # factor[j]: A of x, A of y and B of sample j
    factor = np.empty((4, 3, draws))
    for f, (u, v, shift) in enumerate(((x, x, 1.0), (y, y, 1.0), (x, y, rho))):
        np.multiply(u, v, out=factor[:, f])
        factor[:, f] -= shift
    keys = [(_a_power(name), int(swapped)) for name, swapped in variants]
    weights = [_size_weights(name, n) for name, _ in variants]
    out = np.zeros((len(variants), draws))
    by_size = np.empty_like(out)
    subset_sum = np.empty((3, draws))
    for k in range(1, 5):
        by_size[...] = 0.0
        for t in combinations(range(4), k):
            sums = factor[t[0]]
            if k > 1:
                sums = np.add(sums, factor[t[1]], out=subset_sum)
                for j in t[2:]:
                    sums += factor[j]
            # chains[side][a] = (sum A)^a (sum B)^2, A of x on side 0 and of y
            # on side 1: B^2 once, then one product per power of A needed
            bb = sums[2] * sums[2]
            chains = [[bb], [bb]]
            for acc, (a, side) in zip(by_size, keys):
                chain = chains[side]
                while len(chain) <= a:
                    chain.append(sums[side] * chain[-1])
                acc += chain[a]
        for total, acc, g in zip(out, by_size, weights):
            if g[k - 1]:
                acc *= g[k - 1]
                total += acc
    return out.reshape(shape)


def evaluate(name: str, x, y, rho: float, n: int, swapped: bool = False):
    """Evaluate a kernel on four samples.

    ``x`` and ``y`` hold the two coordinates of the four sample vectors,
    shape (4,) for a single evaluation or (4, reps) for a batch; the
    result is a float or an array of length reps.  ``swapped`` evaluates
    the mirrored kernel (coordinates exchanged).
    """
    total = evaluate_variants(x, y, rho, n, ((name, swapped),))[0]
    if np.ndim(total) == 0:
        return float(total)
    return total


@lru_cache(maxsize=64)     # bounded, as rho is any caller's float; the battery uses 40 keys
def _slot_mean(factors: tuple, rho: float, swapped: bool) -> float:
    """The mean of one sample's product of ``factors``, each a centered
    duple of (x, y): A = (0, 0), or (1, 1) when swapped, and B = (0, 1)."""
    a = (1, 1) if swapped else (0, 0)
    duples = [a if f == "A" else (0, 1) for f in factors]
    return central_product_moment(duples, CorrMatrix([[1.0, rho], [rho, 1.0]]))


def expectation_by_expansion(name: str, rho: float, n: int, swapped: bool = False) -> float:
    """Exact kernel mean by expanding its per-sample products.

    Sample slots are i.i.d., so an addend's expectation factorizes into a
    product of per-slot means, each a ``central_product_moment``; every one
    of the perm(4, r) injective slot assignments contributes the same value.
    """
    require_correlation(rho)
    require_count("n", n, 4)
    power, addends = KERNELS[name]
    total = 0.0
    for mult, slots in addends:
        r = len(slots)
        prod = 1.0
        for factors in slots:
            prod *= _slot_mean(factors, rho, swapped)
        total += _coef(n, power, r) * mult * perm(4, r) * prod
    return total
