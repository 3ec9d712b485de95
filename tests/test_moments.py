import math
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest

from hidim import (AlternativeFamily, CorrMatrix, DomainError, IndexOutOfRange,
                   TooLarge, central_pair_moment, central_product_moment,
                   expected_ii1, f_partial, isserlis_moment,
                   kernel_expectations, make_family_matrix, pair_partitions,
                   s_sum, var_i_exact)
from hidim import kernels, moments
from conftest import random_corr

PARTITION_COUNTS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}


@pytest.mark.parametrize("k,count", sorted(PARTITION_COUNTS.items()))
def test_partition_counts(k, count):
    parts = pair_partitions(k)
    assert len(parts) == count
    assert len(set(parts)) == count
    for part in parts[:50]:
        flat = sorted(i for pair in part for i in pair)
        assert flat == list(range(2 * k))


def test_partition_guard():
    with pytest.raises(TooLarge):
        pair_partitions(9)
    with pytest.raises(DomainError):
        pair_partitions(0)


def test_isserlis_examples(rng):
    r = random_corr(rng, 4)
    rho = r.rho
    expected = (rho[0, 1] * rho[2, 3] + rho[0, 2] * rho[1, 3] + rho[0, 3] * rho[1, 2])
    assert isserlis_moment([0, 1, 2, 3], r) == pytest.approx(expected, rel=1e-14)
    assert isserlis_moment([0, 0], r) == 1.0
    assert isserlis_moment([0, 1, 2], r) == 0.0
    identity = CorrMatrix.identity(3)
    assert isserlis_moment([0, 0, 1, 1], identity) == 1.0
    assert isserlis_moment([0, 0, 1, 1, 2, 2], identity) == 1.0
    assert isserlis_moment([0, 1, 1, 2], identity) == 0.0
    # matched-pair reduction under the identity: E[Z^6] = 15
    assert isserlis_moment([0] * 6, identity) == 15.0
    with pytest.raises(IndexOutOfRange):
        isserlis_moment([0, 3], identity)


def test_central_pair_moment_examples(rng):
    identity = CorrMatrix.identity(5)
    assert central_pair_moment(0, 1, 0, 1, identity) == 1.0
    assert central_pair_moment(0, 1, 2, 3, identity) == 0.0
    r = CorrMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
    assert central_pair_moment(0, 1, 0, 1, r) == pytest.approx(1.09, abs=1e-15)
    for args, bad in (((0, 5, 1, 2), 5), ((0, 1, -1, 2), -1)):
        with pytest.raises(IndexOutOfRange, match=f"^index {bad} outside"):
            central_pair_moment(*args, identity)


def test_central_pair_moment_on_index_arrays(rng):
    # index arrays that broadcast give the scalar moments elementwise
    r = random_corr(rng, 6)
    p1, q1 = rng.integers(0, 6, size=(2, 7, 1))
    p2, q2 = rng.integers(0, 6, size=(2, 9))
    got = central_pair_moment(p1, q1, p2, q2, r)
    assert got.shape == (7, 9)
    for i in range(7):
        for j in range(9):
            assert got[i, j] == central_pair_moment(int(p1[i, 0]), int(q1[i, 0]),
                                                    int(p2[j]), int(q2[j]), r)
    # one index out of range anywhere in an array fails the whole call
    for bad, value in ((-1, -1), (6, 6)):
        p2[4] = bad
        with pytest.raises(IndexOutOfRange, match=f"^index {value} outside"):
            central_pair_moment(p1, q1, p2, q2, r)


def test_central_product_moment_basics(rng):
    r = random_corr(rng, 4)
    assert central_product_moment([(0, 1)], r) == 0.0
    with pytest.raises(TooLarge):
        central_product_moment([(0, 1)] * 5, r)
    with pytest.raises(DomainError):
        central_product_moment([], r)


def test_central_product_vs_pair_moment(rng):
    # two independent routes to the same two-duple moment
    for _ in range(10000):
        m = int(rng.integers(2, 7))
        r = random_corr(rng, m)
        p1, q1, p2, q2 = (int(v) for v in rng.integers(0, m, size=4))
        closed = central_pair_moment(p1, q1, p2, q2, r)
        expanded = central_product_moment([(p1, q1), (p2, q2)], r)
        assert expanded == pytest.approx(closed, rel=1e-12, abs=1e-13)


def test_the_pair_moment_gate_holds_an_absolute_error(monkeypatch):
    # the oracle's O(1) Wick terms cancel to closed forms as small as ~1e-4,
    # so the gate takes the absolute error, which the correct closed forms
    # keep near one rounding while a closed form scaled by 1 + 1e-9 misses
    # by ~1e-9; no closed form here exceeds 2 in magnitude
    def pair_row():
        return next(row for row in moments.identity_rows()
                    if row[0] == "pair moment identity (200 random)")

    _, label, err = pair_row()
    assert label == "|err|" and err <= 1e-15
    closed = moments.central_pair_moment
    monkeypatch.setattr(moments, "central_pair_moment",
                        lambda *args: closed(*args) * (1.0 + 1e-9))
    _, _, err = pair_row()
    assert err > 1e-10 > moments.IDENTITY_BOUND


def test_central_product_fourth_power_independent():
    # four identical centered products at rho = 0: E[(XY)^4] = E[X^4] E[Y^4] = 9
    identity = CorrMatrix.identity(2)
    got = central_product_moment([(0, 1)] * 4, identity)
    assert got == pytest.approx(9.0, rel=1e-13)


def test_f_partial_examples():
    assert f_partial((0, 0, 0), 1.0, 1.0, 0.7) == pytest.approx(0.49, abs=1e-15)
    assert f_partial((0, 0, 2), 1.0, 1.0, 0.7) == 2.0
    assert f_partial((1, 0, 1), 1.0, 1.0, 0.7) == pytest.approx(-1.4, abs=1e-15)
    assert f_partial((0, 0, 3), 1.0, 1.0, 0.7) == 0.0
    assert f_partial((2, 1, 5), 0.5, 2.0, -0.9) == 0.0
    with pytest.raises(DomainError):
        f_partial((0, 0, 0), 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        f_partial((0, 0, 0), 1.0, -1.0, 0.5)
    with pytest.raises(DomainError):
        f_partial((0, -1, 0), 1.0, 1.0, 0.5)


_FD_STENCILS = {
    0: ((0, "1"),),
    1: ((1, "0.5"), (-1, "-0.5")),
    2: ((1, "1"), (0, "-2"), (-1, "1")),
    3: ((2, "0.5"), (1, "-1"), (-1, "1"), (-2, "-0.5")),
    4: ((2, "1"), (1, "-4"), (0, "6"), (-1, "-4"), (-2, "1")),
}


def fd_partial(lam, u1, u2, u3, h):
    """Second-order central finite differences of f in 50-digit arithmetic."""

    def f(a, b, c):
        return c ** 2 / (a * b)

    total = mp.mpf(0)
    for o1, c1 in _FD_STENCILS[lam[0]]:
        for o2, c2 in _FD_STENCILS[lam[1]]:
            for o3, c3 in _FD_STENCILS[lam[2]]:
                coeff = mp.mpf(c1) * mp.mpf(c2) * mp.mpf(c3)
                total += coeff * f(u1 + o1 * h, u2 + o2 * h, u3 + o3 * h)
    return total / h ** sum(lam)


GRID_U12 = ("0.5", "1", "2")
GRID_U3 = ("-0.9", "0", "0.9")
LAMS_UP_TO_4 = [(l1, l2, l3) for l1 in range(5) for l2 in range(5) for l3 in range(5)
                if 1 <= l1 + l2 + l3 <= 4]


@pytest.mark.parametrize("step,tol", [
    # step 1e-6: stencil truncation h^2 f^(6) / 6 is ~2.5e-8 at the worst
    # grid corner, so the 1e-6 gate tests the implementation, not the oracle
    ("1e-6", 1e-6),
    # at step 1e-5 the oracle's own truncation reaches 2.49e-6 at the
    # (u=0.5, order-4) corners; 3e-6 covers it
    ("1e-5", 3e-6),
])
def test_f_partial_vs_finite_differences(step, tol):
    mp.mp.dps = 50
    h = mp.mpf(step)
    for u1s in GRID_U12:
        for u2s in GRID_U12:
            for u3s in GRID_U3:
                u1, u2, u3 = mp.mpf(u1s), mp.mpf(u2s), mp.mpf(u3s)
                for lam in LAMS_UP_TO_4:
                    got = f_partial(lam, float(u1), float(u2), float(u3))
                    want = fd_partial(lam, u1, u2, u3, h)
                    assert abs(got - float(want)) <= tol, (lam, u1s, u2s, u3s)


def test_s_sum_identity_matrix():
    identity = CorrMatrix.identity(6)
    assert s_sum(2, identity) == 15.0
    assert s_sum(3, identity) == 0.0
    assert s_sum(4, identity) == 0.0


def test_s2_closed_form(rng):
    # the ordered duple pairs whose index union has 2 elements are the pairs
    # (d, d), p < q, each with central pair moment 1 + rho_pq^2
    for _ in range(100):
        r = random_corr(rng, int(rng.integers(2, 31)))
        closed = math.fsum((1.0 + rho * rho) ** 2 for rho in r.rho[np.triu_indices(r.m, 1)])
        assert s_sum(2, r) == pytest.approx(closed, rel=1e-12)


def test_s_sum_brute_force(rng):
    # independent brute force: a scalar double loop over all ordered duple
    # pairs, each put in the bin of its index union's size
    cases = [CorrMatrix(np.full((3, 3), 0.5) + 0.5 * np.eye(3))]
    cases += [random_corr(rng, m) for m in (2, 4, 5, 7)]
    for r in cases:
        duples = list(combinations(range(r.m), 2))
        brute = {2: 0.0, 3: 0.0, 4: 0.0}
        for d1 in duples:
            for d2 in duples:
                brute[len(set(d1 + d2))] += central_pair_moment(*d1, *d2, r) ** 2
        for k, want in brute.items():
            assert s_sum(k, r) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_s_sum_guards(rng):
    with pytest.raises(DomainError):
        s_sum(5, CorrMatrix.identity(3))
    # one guard for every k: the enumeration is O(m^4) duple pairs
    big = CorrMatrix.identity(61)
    for k in (2, 3, 4):
        with pytest.raises(TooLarge):
            s_sum(k, big)
    assert [s_sum(k, CorrMatrix.identity(1)) for k in (2, 3, 4)] == [0.0, 0.0, 0.0]


def test_var_i_exact_examples(rng):
    identity3 = CorrMatrix.identity(3)
    assert var_i_exact(identity3, 4) == pytest.approx(0.28125, abs=1e-15)
    # identity case reduces to m(m-1) n(n-1) / n^4, close to m^2/n^2
    m, n = 40, 200
    identity = CorrMatrix.identity(m)
    exact = var_i_exact(identity, n)
    assert exact == pytest.approx(m * (m - 1) * n * (n - 1) / n ** 4, rel=1e-12)
    assert exact == pytest.approx((m / n) ** 2, rel=0.06)


def test_var_i_exact_properties(rng):
    for _ in range(10):
        r = random_corr(rng, int(rng.integers(2, 10)))
        values = [var_i_exact(r, n) for n in range(2, 40)]
        assert all(v >= 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


def test_kernel_expectation_examples():
    ex = kernel_expectations(0.0, 10)
    assert list(ex) == ["h1", "h2", "h3"]
    assert (ex["h1"], ex["h2"], ex["h3"]) == pytest.approx((0.1, 0.02, 0.028), abs=1e-15)
    assert kernel_expectations(0.5, 10)["h1"] == pytest.approx(0.125, abs=1e-15)
    for rho in (1.2, float("nan")):
        with pytest.raises(DomainError):
            kernel_expectations(rho, 10)
    with pytest.raises(DomainError):
        kernel_expectations(0.2, 3)


def test_kernel_closed_forms_vs_expansion():
    # the expansion path is the trusted oracle replacing symbolic algebra
    for rho in (-0.9, -0.3, 0.0, 0.4, 0.8):
        for n in (4, 5, 10, 37):
            for name, closed in kernel_expectations(rho, n).items():
                oracle = kernels.expectation_by_expansion(name, rho, n)
                mirrored = kernels.expectation_by_expansion(name, rho, n, swapped=True)
                assert closed == pytest.approx(oracle, rel=1e-12)
                assert closed == pytest.approx(mirrored, rel=1e-12)


def u_statistic(name, x, y, rho, swapped=False):
    """C(n,4)^{-1}-weighted sum of the kernel over all quadruples of the n
    samples (x, y)."""
    n = len(x)
    quads = [list(quad) for quad in combinations(range(n), 4)]
    return sum(kernels.evaluate(name, x[quad], y[quad], rho, n, swapped=swapped)
               for quad in quads) / math.comb(n, 4)


def test_kernel_u_statistic_reproduces_power_terms(rng):
    # aggregating each kernel over all quadruples must rebuild the
    # centered-covariance power term it encodes
    for n in (4, 5, 7):
        for rho in (0.0, 0.35, -0.6):
            x = rng.standard_normal(n)
            y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
            c = x * y - rho
            sbar_pp = float(np.mean(x * x - 1.0))
            sbar_qq = float(np.mean(y * y - 1.0))
            sbar_pq = float(np.mean(c))
            targets = {
                ("h1", False): float(np.sum(c * c)) / n ** 2,
                ("h2", False): sbar_pp * sbar_pq ** 2,
                ("h2", True): sbar_qq * sbar_pq ** 2,
                ("h3", False): sbar_pp ** 2 * sbar_pq ** 2,
                ("h3", True): sbar_qq ** 2 * sbar_pq ** 2,
            }
            for (name, swapped), want in targets.items():
                got = u_statistic(name, x, y, rho, swapped=swapped)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-14)


def test_expected_ii1_examples():
    identity = CorrMatrix.identity(5)
    n = 30
    want = 10 * (16 + n * n) / n ** 3
    assert expected_ii1(identity, n) == pytest.approx(want, rel=1e-14)
    r = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert expected_ii1(r, 20) == pytest.approx(0.072, abs=1e-15)
    # large-n limit is the centering constant m(m-1)/(2n)
    big_n = 10 ** 4
    centering = 5 * 4 / (2.0 * big_n)
    assert expected_ii1(identity, big_n) == pytest.approx(centering, rel=1e-6)


def test_expected_ii1_is_the_kernel_combination_per_pair(rng):
    # per pair, E[II1] = h1 - 2 h2 + 2 h3 in the kernel means, taken both
    # from the closed forms and from the kernels' polynomial expansion
    for m in (2, 3, 7, 15):
        for r in (CorrMatrix.identity(m), random_corr(rng, m)):
            rhos = [float(r.rho[p, q]) for p, q in combinations(range(m), 2)]
            for n in (4, 5, 12, 80):
                closed = [kernel_expectations(rho, n) for rho in rhos]
                expanded = [{name: kernels.expectation_by_expansion(name, rho, n)
                             for name in ("h1", "h2", "h3")} for rho in rhos]
                for means in (closed, expanded):
                    want = math.fsum(h["h1"] - 2.0 * h["h2"] + 2.0 * h["h3"] for h in means)
                    assert expected_ii1(r, n) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_var_i_exact_trace_form_matches_enumeration(rng):
    # s_sum enumerates the duple pairs; var_i_exact takes the O(m^3) trace form
    n = 80
    scale = 2.0 * n * (n - 1) / float(n) ** 4
    for m in (3, 4, 7, 12, 25, 40, 60):
        cases = [CorrMatrix.identity(m), random_corr(rng, m),
                 make_family_matrix(AlternativeFamily.equicorrelation(), 0.4, m),
                 make_family_matrix(AlternativeFamily.banded(2), 0.3, m)]
        for r in cases:
            oracle = scale * (s_sum(2, r) + s_sum(3, r) + s_sum(4, r))
            assert var_i_exact(r, n) == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda: var_i_exact(CorrMatrix.identity(3), 2.5),
    lambda: expected_ii1(CorrMatrix.identity(3), True),
    lambda: kernel_expectations(0.5, 4.5),
    lambda: kernels.expectation_by_expansion("h2", 0.5, 10.0),
    lambda: kernels.evaluate("h1", np.ones(4), np.ones(4), 0.5, True),
    lambda: AlternativeFamily.banded(1).pattern(3.5),
    lambda: AlternativeFamily.banded(1).signal_coefficient(3.5),
], ids=["var_i_exact", "expected_ii1", "kernel_expectations", "expectation_by_expansion",
        "evaluate", "pattern", "signal_coefficient"])
def test_a_non_integer_size_is_a_domain_error(call):
    with pytest.raises(DomainError, match="^[mn] must be an integer, got "):
        call()


def test_var_i_exact_past_the_enumeration_guard():
    m, n = 80, 160
    with pytest.raises(TooLarge):
        s_sum(4, CorrMatrix.identity(m))
    exact = var_i_exact(CorrMatrix.identity(m), n)
    assert exact == pytest.approx(m * (m - 1) * n * (n - 1) / n ** 4, rel=1e-14)
    r = make_family_matrix(AlternativeFamily.equicorrelation(), 0.05, m)
    assert var_i_exact(r, n) > exact
