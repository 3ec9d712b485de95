"""Kernel evaluation against its definition: each addend summed over the
injective assignments of its slots to the four samples."""

from collections import Counter
from itertools import permutations
from math import comb

import numpy as np
import pytest

from hidim import kernels, moments
from hidim.errors import DomainError


def permutation_sum(name, x, y, rho, n, swapped=False):
    """The kernel as KERNELS defines it: for every addend, mult times the sum
    over injective slot -> sample assignments of the slots' factor products,
    scaled by C(n,4) / (n^power C(n - r, 4 - r))."""
    power, addends = kernels.KERNELS[name]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if swapped:
        x, y = y, x
    factor = {"A": x * x - 1.0, "B": x * y - rho}
    total = np.zeros_like(x[0])
    for mult, slots in addends:
        r = len(slots)
        part = np.zeros_like(x[0])
        for assign in permutations(range(4), r):
            prod = np.ones_like(x[0])
            for factors, sample in zip(slots, assign):
                for f in factors:
                    prod = prod * factor[f][sample]
            part = part + prod
        total = total + comb(n, 4) / (float(n) ** power * comb(n - r, 4 - r)) * mult * part
    return total


def set_partitions(items):
    """Every partition of ``items`` into nonempty blocks (lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for k in range(len(partition)):
            yield partition[:k] + [[first] + partition[k]] + partition[k + 1:]


def block_types(blocks):
    return tuple(sorted(tuple(sorted(block)) for block in blocks))


@pytest.mark.parametrize("name", list(kernels.KERNELS))
def test_addends_are_the_set_partitions_of_the_factors(name):
    # the evaluation's subset-sum form holds because every r-slot group of
    # addends is all the partitions of the labelled factors into r blocks
    _, addends = kernels.KERNELS[name]
    (factors,) = next(slots for _, slots in addends if len(slots) == 1)
    by_blocks = {}
    for partition in set_partitions(list(enumerate(factors))):
        blocks = [[f for _, f in block] for block in partition]
        by_blocks.setdefault(len(blocks), Counter())[block_types(blocks)] += 1
    stored = {}
    for mult, slots in addends:
        stored.setdefault(len(slots), Counter())[block_types(slots)] += mult
    assert stored
    for r, types in stored.items():
        assert types == by_blocks[r], (name, r)


@pytest.mark.parametrize("n", [4, 10, 37])
@pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5])
def test_evaluation_matches_the_permutation_sum(n, rho):
    rng = np.random.default_rng(1000 * n + int(10 * rho))
    z = rng.standard_normal((2, 4, 500))
    x = z[0]
    y = rho * x + np.sqrt(1.0 - rho * rho) * z[1]
    every = kernels.evaluate_variants(x, y, rho, n)
    assert every.shape == (len(kernels.VARIANTS), 500)
    for row, (name, swapped) in zip(every, kernels.VARIANTS):
        oracle = permutation_sum(name, x, y, rho, n, swapped)
        assert np.all(np.abs(row - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle)))
        # one variant is the same arithmetic as all five
        assert np.array_equal(kernels.evaluate(name, x, y, rho, n, swapped), row)
        single = kernels.evaluate(name, x[:, 3], y[:, 3], rho, n, swapped)
        assert isinstance(single, float) and single == row[3]
    assert np.array_equal(kernels.evaluate_variants(x[:, 3], y[:, 3], rho, n), every[:, 3])
    assert np.array_equal(kernels.evaluate("h1", x, y, rho, n, swapped=True), every[0])


def test_evaluation_rejects_bad_shapes():
    x = np.zeros((4, 3))
    with pytest.raises(DomainError, match="^n must be an integer >= 4, got 3$"):
        kernels.evaluate("h2", x, x, 0.0, 3)
    with pytest.raises(DomainError, match="four samples"):
        kernels.evaluate_variants(x[:3], x[:3], 0.0, 10)
    with pytest.raises(DomainError, match="four samples"):
        kernels.evaluate("h3", x, x[:, :2], 0.0, 10)


@pytest.mark.parametrize("rho", [1.5, -2.0, float("nan")])
def test_the_oracle_rejects_a_rho_outside_its_range(rho):
    with pytest.raises(DomainError, match=r"rho must lie in \[-1, 1\]"):
        kernels.expectation_by_expansion("h1", rho, 10)


def test_slot_means_are_cached_within_a_bound():
    """The battery's per-slot means all stay cached: a second identity_rows
    takes none of them anew; a sweep over many rho keeps the cache bounded."""
    moments.identity_rows()
    misses = kernels._slot_mean.cache_info().misses
    moments.identity_rows()
    assert kernels._slot_mean.cache_info().misses == misses
    for rho in np.linspace(-0.99, 0.99, 500):
        kernels.expectation_by_expansion("h3", float(rho), 10)
    info = kernels._slot_mean.cache_info()
    assert info.currsize <= info.maxsize == 64
