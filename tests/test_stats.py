import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidim import (AlternativeFamily, CorrMatrix, CovMode, DataMatrix,
                   DegenerateColumn, DimensionMismatch, DomainError, Seed,
                   cholesky, decompose, f_partial, make_family_matrix,
                   rao_score_test, sample_gaussian, statistic_t, term_i,
                   report_from_statistic, normal_quantile)
from hidim.stats import _Cells, _as_stack, _cov_matrix
from conftest import martingale_differences, random_corr

ZM = CovMode.KNOWN_ZERO_MEAN
SC = CovMode.SAMPLE_CENTERED


def test_datamatrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError, match="sample 0, variable 1 is inf"):
        DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))
    bad = np.ones((6, 4))
    bad[4, 2] = bad[5, 0] = np.nan
    with pytest.raises(ValueError, match="finite: sample 4, variable 2 is nan$"):
        DataMatrix(bad)


def test_a_datamatrix_copies_its_data_and_a_stack_is_not_copied():
    values = np.ones((5, 3))
    data = DataMatrix(values)
    assert not np.shares_memory(data.values, values) and not data.values.flags.writeable
    assert values.flags.writeable
    stack = np.ones((2, 5, 3))
    assert _as_stack(stack)[0] is stack
    assert _as_stack(data)[0].base is data.values


def test_sample_cov_hand_examples():
    # the covariance matrix that statistic_t and decompose are built on
    data = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert _cov_matrix(data, ZM)[0, 1] == -1.0
    assert _cov_matrix(data, SC)[0, 1] == -2.0
    same = np.column_stack([np.arange(1.0, 5.0), np.arange(1.0, 5.0)])
    for mode in (ZM, SC):
        cov = _cov_matrix(same, mode)
        assert cov[0, 1] == cov[0, 0] == cov[1, 1]
        assert cov[1, 0] == cov[0, 1]
    with pytest.raises(DomainError):
        _cov_matrix(np.array([[1.0, 2.0]]), SC)


def test_a_cov_mode_is_not_coerced_from_its_value():
    # the string "zero-mean" would otherwise take the centered branch
    data = DataMatrix(np.random.default_rng(0).standard_normal((10, 3)))
    for mode in ("zero-mean", "centered", None):
        with pytest.raises(DomainError, match="must be of type CovMode"):
            statistic_t(data, mode)
        with pytest.raises(DomainError, match="must be of type CovMode"):
            rao_score_test(data, 0.05, mode)


def _pair_rho_hat_sq(x: np.ndarray, p: int, q: int) -> float:
    """Zero-mean squared correlation of columns p and q, pair by pair."""
    xp, xq = x[:, p], x[:, q]
    return float((xp @ xq) ** 2 / ((xp @ xp) * (xq @ xq)))


# On two columns T is the single squared correlation rho_hat^2.

def test_rho_hat_sq_examples():
    flipped = DataMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert statistic_t(flipped, ZM) == 1.0
    assert statistic_t(flipped, SC) == 1.0
    same = DataMatrix(np.column_stack([np.arange(1.0, 6.0), np.arange(1.0, 6.0)]))
    assert statistic_t(same, ZM) == pytest.approx(1.0, rel=1e-14)
    assert statistic_t(same, SC) == pytest.approx(1.0, rel=1e-14)
    ortho = DataMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert statistic_t(ortho, ZM) == 0.0
    hand = DataMatrix(np.array([[1.0, 2.0], [2.0, 1.0], [-3.0, -3.0]]))
    assert statistic_t(hand, ZM) == pytest.approx(169.0 / 196.0, rel=1e-14)
    assert statistic_t(hand, SC) == pytest.approx(169.0 / 196.0, rel=1e-14)
    # column means 2 and 2: centering changes the answer
    shifted = DataMatrix(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]]))
    assert statistic_t(shifted, ZM) == pytest.approx(169.0 / 196.0, rel=1e-14)
    assert statistic_t(shifted, SC) == pytest.approx(0.25, rel=1e-14)


def test_rho_hat_sq_degenerate():
    data = DataMatrix(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(DegenerateColumn) as info:
        statistic_t(data, ZM)
    assert info.value.columns == (0,)
    const = DataMatrix(np.array([[3.0, 1.0], [3.0, 2.0]]))
    with pytest.raises(DegenerateColumn):
        statistic_t(const, SC)


def test_centered_near_constant_column_is_degenerate():
    # 0.1 has no exact binary form: centering leaves rounding noise, not 0
    rng = np.random.default_rng(8)
    values = rng.standard_normal((30, 4))
    values[:, 2] = 0.1
    assert np.any(values[:, 2] - values[:, 2].mean() != 0.0)
    for data in (DataMatrix(values), np.stack([values, values])):
        with pytest.raises(DegenerateColumn) as info:
            statistic_t(data, SC)
        assert info.value.columns == (2,)
    assert statistic_t(DataMatrix(values), ZM) > 0.0
    # a small spread on a large mean is still data
    values[:, 2] = 1e6 + 1e-3 * rng.standard_normal(30)
    assert np.isfinite(statistic_t(DataMatrix(values), SC))


@pytest.mark.parametrize("mode", [ZM, SC])
def test_overflowing_column_fails_clearly(mode):
    values = np.random.default_rng(9).standard_normal((30, 4))
    values[:, 1] *= 1e200
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="T is nan: .*overflow"):
        statistic_t(DataMatrix(values), mode)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.01, 100.0), flip=st.booleans(),
       seed=st.integers(0, 10 ** 6))
def test_rho_hat_sq_scale_invariance(scale, flip, seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((8, 2))
    factor = -scale if flip else scale
    scaled = base.copy()
    scaled[:, 1] *= factor
    for mode in (ZM, SC):
        a = statistic_t(DataMatrix(base), mode)
        b = statistic_t(DataMatrix(scaled), mode)
        assert b == pytest.approx(a, rel=1e-10)


def test_statistic_t_examples(rng):
    col = rng.standard_normal(6)
    same = DataMatrix(np.column_stack([col, col, col, col]))
    assert statistic_t(same, ZM) == pytest.approx(6.0, rel=1e-12)
    two = DataMatrix(rng.standard_normal((9, 2)))
    assert statistic_t(two, ZM) == pytest.approx(_pair_rho_hat_sq(two.values, 0, 1),
                                                 rel=1e-14)


def test_statistic_t_brute_force(rng):
    data = DataMatrix(rng.standard_normal((15, 6)))
    pairs = list(itertools.combinations(range(6), 2))
    zero_mean = sum(_pair_rho_hat_sq(data.values, p, q) for p, q in pairs)
    corr = np.corrcoef(data.values, rowvar=False)
    centered = sum(corr[p, q] ** 2 for p, q in pairs)
    assert statistic_t(data, ZM) == pytest.approx(zero_mean, rel=1e-12)
    assert statistic_t(data, SC) == pytest.approx(centered, rel=1e-12)


def test_statistic_t_permutation_invariant(rng):
    data = rng.standard_normal((20, 5))
    t0 = statistic_t(DataMatrix(data), ZM)
    for _ in range(5):
        perm = rng.permutation(5)
        assert statistic_t(DataMatrix(data[:, perm]), ZM) == pytest.approx(t0, rel=1e-12)


def test_report_boundary_and_median():
    n, m = 50, 6
    centering = m * (m - 1) / (2.0 * n)
    # alpha = 0.5 places the threshold exactly at zero, making the strict
    # boundary inequality testable without rounding luck
    at_boundary = report_from_statistic(centering, n, m, 0.5)
    assert at_boundary.centered == 0.0
    assert not at_boundary.reject
    assert report_from_statistic(centering + 1e-9, n, m, 0.5).reject
    assert not report_from_statistic(centering - 0.3, n, m, 0.5).reject
    # away from the boundary, both sides at a conventional level
    threshold = (m / n) * normal_quantile(0.05)
    assert report_from_statistic(centering + threshold * 1.01, n, m, 0.05).reject
    assert not report_from_statistic(centering + threshold * 0.99, n, m, 0.05).reject
    with pytest.raises(DomainError):
        report_from_statistic(1.0, n, m, 0.0)
    # an array of T is decided elementwise, exactly as each scalar; the
    # second entry sits exactly on the alpha = 0.5 threshold
    t = centering + np.array([-0.3, 0.0, 1e-9, threshold * 0.99, threshold * 1.01])
    for alpha in (0.5, 0.05):
        many = report_from_statistic(t, n, m, alpha)
        assert many.reject.dtype == bool and many.alpha == alpha
        for k, tk in enumerate(t):
            one = report_from_statistic(float(tk), n, m, alpha)
            assert isinstance(one.reject, bool)
            assert ((many.t_value[k], many.centered[k], many.z_value[k], many.p_value[k],
                     many.reject[k]) ==
                    (one.t_value, one.centered, one.z_value, one.p_value, one.reject))
    assert not report_from_statistic(t, n, m, 0.5).reject[1]


@pytest.mark.parametrize("n, m, message", [
    (0, 3, "n must be an integer >= 1"),
    (3, 0, "m must be an integer >= 2"),
    (3, 1, "m must be an integer >= 2"),
    (2.5, 3, "n must be an integer"),
    (True, 3, "n must be an integer"),
    (3, 3.0, "m must be an integer"),
])
def test_report_rejects_a_bad_size(n, m, message):
    # a size the rule is not defined at fails before z or the decision
    with pytest.raises(DomainError, match=message):
        report_from_statistic(1.0, n, m, 0.05)


def test_report_consistency(rng):
    for _ in range(50):
        data = DataMatrix(rng.standard_normal((30, 8)))
        alpha = float(rng.uniform(0.01, 0.5))
        rep = rao_score_test(data, alpha, ZM)
        assert rep.z_value == pytest.approx(data.n * rep.centered / data.m, rel=1e-12)
        # reject <=> z > z_alpha <=> p < alpha, up to CDF round-trip wobble
        if abs(rep.p_value - alpha) > 1e-9:
            assert rep.reject == (rep.p_value < alpha)


def test_term_i_single_sample(rng):
    r = random_corr(rng, 3)
    data = DataMatrix(rng.standard_normal((1, 3)))
    assert term_i(data, r) == 0.0


def test_term_i_brute_force(rng):
    m, n = 4, 12
    r = random_corr(rng, m)
    data = DataMatrix(rng.standard_normal((n, m)))
    v = data.values
    brute = 0.0
    for p in range(m):
        for q in range(p + 1, m):
            for i in range(n):
                for j in range(i + 1, n):
                    brute += (2.0 / n ** 2 * (v[i, p] * v[i, q] - r.rho[p, q])
                              * (v[j, p] * v[j, q] - r.rho[p, q]))
    assert term_i(data, r) == pytest.approx(brute, rel=1e-12)


def test_term_i_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        term_i(DataMatrix(rng.standard_normal((5, 3))), CorrMatrix.identity(4))


def test_martingale_differences(rng):
    m, n = 5, 30
    r = random_corr(rng, m)
    data = DataMatrix(rng.standard_normal((n, m)))
    y = martingale_differences(data, r)
    assert y.shape == (n + 1,)
    assert y[0] == 0.0 and y[1] == 0.0
    ti = term_i(data, r)
    assert float(y.sum()) == pytest.approx(ti, rel=1e-12)


def test_martingale_conditional_mean_zero():
    # freeze the history, redraw only sample i: the mean of Y_i over
    # redraws estimates E[Y_i | past] = 0
    m, n, i = 3, 6, 4
    r = CorrMatrix(np.full((m, m), 0.3) + 0.7 * np.eye(m))
    factor = cholesky(r)
    past = sample_gaussian(factor, i - 1, Seed(42), 0).values
    iu = np.triu_indices(m, 1)
    past_sum = np.sum([np.outer(row, row) - r.rho for row in past], axis=0)[iu]
    trials = 20000
    fresh = sample_gaussian(factor, trials, Seed(43), 0).values
    scale = 2.0 / n ** 2
    samples = scale * (np.array([(np.outer(row, row) - r.rho)[iu] for row in fresh])
                       @ past_sum)
    stderr = samples.std(ddof=1) / np.sqrt(trials)
    assert abs(samples.mean()) <= 3.0 * stderr


def test_term_ii_split(rng):
    for _ in range(10):
        m, n = int(rng.integers(2, 8)), int(rng.integers(4, 40))
        r = random_corr(rng, m)
        dec = decompose(DataMatrix(rng.standard_normal((n, m))), r)
        assert dec.term_ii == pytest.approx(dec.term_ii1 + dec.term_ii2,
                                            rel=1e-10, abs=1e-12)


def test_term_ii2_identity_matrix_reduction(rng):
    # under R = I all lower-order coefficients vanish and only the
    # (1,1,2)-direction term survives in the second split component
    m, n = 4, 25
    r = CorrMatrix.identity(m)
    data = DataMatrix(rng.standard_normal((n, m)))
    ii2 = decompose(data, r).term_ii2
    s = data.values.T @ data.values / n
    sbar = s - r.rho
    direct = sum(sbar[p, p] * sbar[q, q] * sbar[p, q] ** 2
                 for p in range(m) for q in range(p + 1, m))
    assert ii2 == pytest.approx(direct, rel=1e-10, abs=1e-15)


# Taylor directions of f(u1, u2, u3) = u3^2 / (u1 u2) around (1, 1, rho) that
# make up II: orders 1..4 with l3 <= 2, except (0, 0, 2), whose w^2 is
# replaced by its same-sample part sum_i c_i^2 / n^2.
II_DIRECTIONS = [lam for lam in itertools.product(range(5), range(5), range(3))
                 if 1 <= sum(lam) <= 4 and lam != (0, 0, 2)]


def _term_ii_oracle(x: np.ndarray, rho: np.ndarray):
    """II summed pair by pair from f_partial, and the sum of the absolute
    values of its summands (the scale its rounding error grows with)."""
    n, m = x.shape
    sbar = x.T @ x / n - rho
    total = magnitude = 0.0
    for p, q in itertools.combinations(range(m), 2):
        c = x[:, p] * x[:, q] - rho[p, q]
        terms = [float(c @ c) / n ** 2]
        u, v, w = sbar[p, p], sbar[q, q], sbar[p, q]
        for l1, l2, l3 in II_DIRECTIONS:
            coeff = f_partial((l1, l2, l3), 1.0, 1.0, rho[p, q])
            terms.append(coeff / (math.factorial(l1) * math.factorial(l2)
                                  * math.factorial(l3)) * u ** l1 * v ** l2 * w ** l3)
        total += math.fsum(terms)
        magnitude += math.fsum(abs(t) for t in terms)
    return total, magnitude


def test_term_ii_matches_taylor_oracle(rng):
    for _ in range(40):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 60))
        r = random_corr(rng, m)
        data = DataMatrix(rng.standard_normal((n, m)) @ np.linalg.cholesky(r.rho).T)
        oracle, magnitude = _term_ii_oracle(data.values, r.rho)
        assert abs(decompose(data, r).term_ii - oracle) <= 1e-12 * magnitude


def _per_pair_taylor(x: np.ndarray, r):
    """T, I, II1, II2 and III of a (B, n, m) stack of samples of R pair by
    pair: the Taylor terms on the m(m-1)/2 pair vectors, with G_k built by
    the recurrence h_j = -u h_{j-1} + (-v)^j over the complete homogeneous
    sums, and III the per-pair leftover (rho_hat^2 - rho^2) - i - ii.  T
    uses the same operations as decompose; I, II and III are summed
    differently, the sums of c_i^2 from the per-pair fourth-moment Gram
    (X*X)'(X*X)."""
    n, m = x.shape[1], x.shape[2]
    p, q = np.triu_indices(m, 1)
    flat = p * m + q
    take = lambda a, idx: np.take(a, idx, axis=1)
    upper = lambda mats: take(mats.reshape(len(mats), m * m), flat)
    rhos = r.rho[None]
    rho = upper(rhos)
    g = np.matmul(x.transpose(0, 2, 1), x)
    sq = x * x
    g_pairs = upper(g)
    sum_c = g_pairs - n * rho
    sum_c2 = (upper(np.matmul(sq.transpose(0, 2, 1), sq)) - 2.0 * rho * g_pairs
              + n * rho * rho)
    d = np.diagonal(g, axis1=1, axis2=2) / n
    s = g_pairs / n
    r2_hat = (s * s) / (take(d, p) * take(d, q))
    n2 = float(n) ** 2
    i_pairs = (np.zeros_like(sum_c) if n == 1
               else (sum_c * sum_c - sum_c2) / n2)
    neg_diag = -(d - np.diagonal(rhos, axis1=1, axis2=2))
    sbar = s - rho
    neg_u, neg_v = take(neg_diag, p), take(neg_diag, q)
    u, v = -neg_u, -neg_v
    w2 = sbar * sbar
    rho2 = rho * rho
    h = g_k = np.ones_like(rho)
    for j in range(1, 5):
        g3 = g_k
        h = neg_u * h + take(neg_diag ** j, q)
        g_k = g_k + h
    ii1 = sum_c2 / n2 + (neg_u - v + u * u + v * v) * w2
    ii2 = u * v * w2 + rho2 * (g_k - 1.0) + 2.0 * rho * sbar * g3
    iii = (r2_hat - rho2) - i_pairs - (ii1 + ii2)
    return tuple(a.sum(axis=1) for a in (r2_hat, i_pairs, ii1, ii2, iii))


@pytest.mark.parametrize("m", [2, 3, 7, 40])
def test_decompose_matches_the_per_pair_taylor_recurrence(rng, m):
    equi = make_family_matrix(AlternativeFamily.equicorrelation(), 0.3, m)
    rs = [CorrMatrix.identity(m), equi, random_corr(rng, m)]
    for n in (1, 2, 80):
        z = rng.standard_normal((n, m))
        for r in rs:
            stack = (z @ cholesky(r).lower.T)[None]
            dec = decompose(stack, r)
            t, t_i, ii1, ii2, iii = _per_pair_taylor(stack, r)
            assert np.array_equal(dec.t_value, t)
            tol = 1e-13 * np.maximum(1.0, np.abs(t))
            for name, oracle in (("term_i", t_i), ("term_ii1", ii1), ("term_ii2", ii2),
                                 ("term_iii", iii)):
                assert np.all(np.abs(getattr(dec, name) - oracle) <= tol), (name, n)


def test_decompose_identity(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 201))
        r = random_corr(rng, m)
        data = DataMatrix(rng.standard_normal((n, m)))
        dec = decompose(data, r)
        t = statistic_t(data, ZM)
        assert dec.t_value == t
        worst = max(worst, dec.residual / max(1.0, abs(t)))
        assert dec.term_ii == pytest.approx(dec.term_ii1 + dec.term_ii2,
                                            rel=1e-10, abs=1e-12)
    assert worst <= 1e-9


def test_decompose_per_pair_identity(rng):
    # single pair: rho_hat^2 - rho^2 must equal i + ii + iii exactly
    r = random_corr(rng, 2)
    data = DataMatrix(rng.standard_normal((12, 2)))
    dec = decompose(data, r)
    lhs = _pair_rho_hat_sq(data.values, 0, 1) - r.rho[0, 1] ** 2
    assert lhs == pytest.approx(dec.term_i + dec.term_ii + dec.term_iii,
                                rel=1e-12, abs=1e-15)


def test_decompose_third_term_shrinks_with_n(rng):
    r = CorrMatrix.identity(8)
    factor = cholesky(r)
    sizes = (20, 80, 320)
    means = []
    for n in sizes:
        vals = [abs(decompose(sample_gaussian(factor, n, Seed(7), t), r).term_iii)
                for t in range(200)]
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def test_decompose_i_dominates_under_null():
    # the centered statistic is essentially the cross-sample term at scale
    m, n, trials = 50, 100, 300
    r = CorrMatrix.identity(m)
    factor = cholesky(r)
    centering = m * (m - 1) / (2.0 * n)
    ts, tis = [], []
    for t in range(trials):
        data = sample_gaussian(factor, n, Seed(11), t)
        ts.append(statistic_t(data, ZM) - centering)
        tis.append(decompose(data, r).term_i)
    assert np.corrcoef(ts, tis)[0, 1] > 0.95


def test_decompose_stack_equals_its_slices(rng):
    m, n = 7, 30
    r = random_corr(rng, m)
    z = rng.standard_normal((3, n, m))
    stack = np.concatenate([z, z[1:2]]) @ cholesky(r).lower.T
    dec = decompose(stack, r)
    for k in range(len(stack)):
        one = decompose(DataMatrix(stack[k]), r)
        for field in dataclasses.fields(one):
            assert getattr(dec, field.name)[k] == getattr(one, field.name), field.name
    assert dec.t_value[1] == dec.t_value[3]
    # the statistics of a stack are those of its slices, in both conventions
    assert np.array_equal(statistic_t(stack, ZM), dec.t_value)
    for mode in (ZM, SC):
        t = statistic_t(stack, mode)
        assert t.shape == (len(stack),)
        for k in range(len(stack)):
            assert t[k] == statistic_t(DataMatrix(stack[k]), mode)
    # the constants of R, built once, serve any stack of its samples
    cells = _Cells.of(r)
    built = decompose(stack, cells)
    shared = decompose(stack[[1, 3]], cells)
    for field in dataclasses.fields(dec):
        assert np.array_equal(getattr(built, field.name), getattr(dec, field.name))
        assert np.array_equal(getattr(shared, field.name), getattr(dec, field.name)[[1, 3]])


def test_decompose_stack_errors(rng):
    m, n = 5, 20
    r = random_corr(rng, m)
    stack = rng.standard_normal((2, n, m))
    zeroed = stack.copy()
    zeroed[1, :, 3] = 0.0
    with pytest.raises(DegenerateColumn) as info:
        decompose(zeroed, r)
    assert info.value.columns == (3,)
    # the error names the columns of the first degenerate slice only
    later = np.concatenate([zeroed, stack[:1]])
    later[2][:, [0, 4]] = 0.0
    for mode in (ZM, SC):
        with pytest.raises(DegenerateColumn) as info:
            statistic_t(later, mode)
        assert info.value.columns == (3,)
    with pytest.raises(DimensionMismatch):
        decompose(stack, CorrMatrix.identity(m + 1))
    with pytest.raises(DimensionMismatch):
        decompose(stack, _Cells.of(CorrMatrix.identity(m + 1)))
    bad = stack.copy()
    bad[0, 4, 2] = np.nan
    with pytest.raises(ValueError, match="slice 0, sample 4, variable 2 is nan"):
        decompose(bad, r)
    for mode in (ZM, SC):
        with pytest.raises(ValueError, match="slice 0, sample 4, variable 2 is nan"):
            statistic_t(bad, mode)


def test_term_i_stack_equals_its_slices(rng):
    m, n = 6, 25
    r = random_corr(rng, m)
    stack = rng.standard_normal((5, n, m)) @ cholesky(r).lower.T
    values = term_i(stack, r)
    assert values.shape == (5,)
    for k in range(5):
        assert values[k] == term_i(DataMatrix(stack[k]), r)
    assert isinstance(term_i(DataMatrix(stack[0]), r), float)


def test_term_i_stack_errors(rng):
    m, n = 5, 20
    stack = rng.standard_normal((3, n, m))
    with pytest.raises(DimensionMismatch):
        term_i(stack, CorrMatrix.identity(m + 1))
    bad = stack.copy()
    bad[2, 7, 1] = np.nan
    with pytest.raises(ValueError, match="slice 2, sample 7, variable 1 is nan"):
        term_i(bad, CorrMatrix.identity(m))
