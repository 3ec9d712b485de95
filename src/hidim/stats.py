"""Sample-level statistics: covariances, squared correlations, the score
statistic, the level-alpha test, and the exact
I / II / III decomposition of the centered statistic around a known
population correlation matrix.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import theory
from .errors import (DegenerateColumn, DimensionMismatch, DomainError, require_count,
                     require_level)
from .matrix import CorrMatrix, frobenius_signal, pair_offsets


class CovMode(enum.Enum):
    """Covariance convention.

    KNOWN_ZERO_MEAN: divisor n, no mean subtraction (the convention all
    exact decomposition formulas are written in).  SAMPLE_CENTERED:
    subtract column means, divisor n - 1 (the usual Pearson form).  Under
    independent normal columns each squared correlation is
    Beta(1/2, (n-1)/2), mean 1/n, for zero-mean data and Beta(1/2, (n-2)/2),
    mean 1/(n-1), for centered data.  ``report_from_statistic``, the one
    place T is centered, centers it at the zero-mean mean m(m-1)/(2n) in
    both conventions.  For centered data the null mean of T is about
    m(m-1)/(2(n-1)), so the paper's z sits (m-1)/(2(n-1)) too high and the
    test rejects more often than alpha: at m = 80, n = 40 the shift of 1.01
    predicts a size of about 0.26, and 1000 null trials gave 0.265.
    """

    KNOWN_ZERO_MEAN = "zero-mean"
    SAMPLE_CENTERED = "centered"


def _non_finite(arr: np.ndarray) -> ValueError:
    """The error for data with a non-finite entry, naming the first one by
    its 0-based (slice,) sample and variable; called only once a finiteness
    check has failed."""
    *where, sample, variable = (int(i) for i in np.argwhere(~np.isfinite(arr))[0])
    stack = f"slice {where[0]}, " if where else ""
    return ValueError(f"data entries must be finite: {stack}sample {sample}, "
                      f"variable {variable} is {arr[(*where, sample, variable)]}")


def _checked_data(values, ndim: int, copy: bool = False) -> np.ndarray:
    """``values`` as an ``ndim``-D float array of (..., n, m), n >= 1 and m >= 2,
    all finite; a copy only if ``copy`` or the cast needs one.  Complex values
    are refused before the cast, which would drop their imaginary parts."""
    if np.iscomplexobj(values):
        raise ValueError("data must be real, got complex values")
    arr = (np.array if copy else np.asarray)(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"data must be a {ndim}-D array with samples x variables last, "
                         f"got shape {arr.shape}")
    if arr.shape[-2] < 1 or arr.shape[-1] < 2:
        raise ValueError("data needs at least 1 sample and 2 variables")
    if not np.all(np.isfinite(arr)):
        raise _non_finite(arr)
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """n samples (rows) by m variables (columns) of finite observations."""

    values: np.ndarray

    def __post_init__(self):
        arr = _checked_data(self.values, 2, copy=True)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class TestReport:
    """Outcome of the level-alpha independence test on n samples of m
    variables.  The z and p values are derived from ``centered`` when read,
    so a caller that needs only the decision computes neither."""

    t_value: float
    centered: float
    alpha: float
    reject: bool
    n: int
    m: int

    @property
    def z_value(self):
        return self.n * self.centered / self.m

    @property
    def p_value(self):
        return theory.normal_tail(self.z_value)


@dataclass(frozen=True)
class Decomposition:
    """Aggregated decomposition terms and the reconstruction residual.

    term_i is the cross-sample (martingale) component, term_ii the
    same-sample component split as term_ii1 + term_ii2, and term_iii the
    aggregate Taylor remainder, so the identity
    T - ||R - I||_F^2 / 2 = I + II + III holds by construction; residual
    reports its floating-point defect.  t_value is T, from the same Gram
    matrix as the terms.  Each field is a float for one sample and a
    length-B array for a stack of B samples.
    """

    t_value: float
    term_i: float
    term_ii: float
    term_ii1: float
    term_ii2: float
    term_iii: float
    residual: float


def _cov_matrix(values: np.ndarray, mode: CovMode) -> np.ndarray:
    """Covariance matrices of the (..., n, m) samples ``values``.  Centering
    leaves a constant column with rounding noise of up to n eps |mean|; a
    centered variance within the square of that is set to exactly 0."""
    n, m = values.shape[-2:]
    if not isinstance(mode, CovMode):
        raise DomainError(f"cov mode must be of type CovMode, got {mode!r}")
    if mode is CovMode.KNOWN_ZERO_MEAN:
        return np.matmul(np.swapaxes(values, -1, -2), values) / n
    if n < 2:
        raise DomainError("centered covariances need at least 2 samples")
    mean = values.mean(axis=-2, keepdims=True)
    centered = values - mean
    s = np.matmul(np.swapaxes(centered, -1, -2), centered) / (n - 1)
    var = s.reshape(*s.shape[:-2], m * m)[..., ::m + 1]
    var[np.sqrt(var) <= n * np.finfo(float).eps * np.abs(mean[..., 0, :])] = 0.0
    return s


def _check_dims(columns: int, m: int) -> None:
    if columns != m:
        raise DimensionMismatch(f"data has {columns} columns, matrix is {m} x {m}")


def _upper(mats: np.ndarray) -> np.ndarray:
    """The entries p < q of a (B, m, m) stack as a C-contiguous (B, m(m-1)/2)
    array.  Row sums of it use numpy's pairwise summation; those of the
    strided gather mats[:, p, q] do not, and differ in the last bits."""
    b, m = mats.shape[0], mats.shape[-1]
    return np.take(mats.reshape(b, m * m), pair_offsets(m), axis=1)


def _squared_correlations(s: np.ndarray, pairs: Optional[np.ndarray] = None):
    """The (B, m(m-1)/2) squared correlations S_pq^2 / (S_pp S_qq), p < q, of
    a (B, m, m) covariance stack S, and a copy of its (B, m) diagonal.
    ``pairs`` is _upper(S) when the caller has it already.  A zero variance
    raises DegenerateColumn naming the columns of the first slice that has
    one."""
    d = np.diagonal(s, axis1=1, axis2=2).copy()
    slices, columns = np.nonzero(d == 0.0)
    if slices.size:
        raise DegenerateColumn(columns[slices == slices[0]])
    if pairs is None:
        pairs = _upper(s)
    return pairs * pairs / _upper(d[:, :, None] * d[:, None, :]), d


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values``, unless one of them is not finite: then the DomainError
    that names it, as covariances that overflow or underflow float64."""
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{name} is {values[~np.isfinite(values)][0]}: the covariances "
                          "overflow or underflow float64; rescale the columns")
    return values


def _as_stack(data: Union[DataMatrix, np.ndarray]):
    """The (B, n, m) stack of ``data`` and the function that shapes a
    length-B result for the caller: a float for one DataMatrix (B = 1),
    the array itself for a stack."""
    if isinstance(data, DataMatrix):
        return data.values[None], lambda values: float(values[0])
    return _checked_data(data, 3), lambda values: values


def statistic_t(data: Union[DataMatrix, np.ndarray], mode: CovMode):
    """Sum of squared sample correlations over all pairs p < q.

    A float for one DataMatrix; for a (B, n, m) stack, a length-B array
    whose k-th entry equals statistic_t(DataMatrix(data[k]), mode).
    """
    x, shape = _as_stack(data)
    t_value = _squared_correlations(_cov_matrix(x, mode))[0].sum(axis=1)
    return shape(_finite(t_value, "T"))


@functools.lru_cache(maxsize=16, typed=True)
def _level_rule(n: int, m: int, alpha: float):
    """The center m(m-1)/(2n) of T and the bound (m/n) z_alpha that the
    centered T must exceed to reject, built once per (n, m, alpha); typed,
    so that a bool or float size is checked, not served as its int."""
    require_count("n", n, 1)
    require_count("m", m, 2)
    require_level(alpha)
    return m * (m - 1) / (2.0 * n), (m / n) * theory.normal_quantile(alpha)


def report_from_statistic(t_value, n: int, m: int, alpha: float) -> TestReport:
    """Build the level-alpha report from an already-computed statistic.

    Rejects iff T - m(m-1)/(2n) strictly exceeds (m/n) z_alpha.  This is
    the one place that centers T and decides.  For an array of T values
    the statistic, z and p values and decision are elementwise arrays; a
    scalar T gives floats and a bool decision.
    """
    center, bound = _level_rule(n, m, alpha)
    centered = t_value - center
    reject = centered > bound
    return TestReport(
        t_value=t_value,
        centered=centered,
        alpha=alpha,
        reject=reject if np.ndim(reject) else bool(reject),
        n=n,
        m=m,
    )


def rao_score_test(data: DataMatrix, alpha: float, mode: CovMode) -> TestReport:
    """Level-alpha independence test based on the sum of squared correlations."""
    return report_from_statistic(statistic_t(data, mode), data.n, data.m, alpha)


def _pair_sums(x: np.ndarray, rho: np.ndarray):
    """For a (B, n, m) stack with the m(m-1)/2 pair correlations rho: the
    Gram matrices X'X, their pair entries G_pq, the pair sums sum_i c_i of
    c_i = X_pi X_qi - rho_pq, and per slice the total of sum_i c_i^2 over
    the pairs.  That total needs no fourth-moment Gram matrix:
    sum_{p<q} sum_i X_pi^2 X_qi^2 = (sum_i s_i^2 - sum_{i,p} X_pi^4) / 2 with
    the row sums s_i = sum_p X_pi^2, and sum_{p<q} rho (n rho - 2 G_pq) is
    added.  When one column's scale dominates the others, the two quartic
    sums nearly cancel and the total loses the digits of that ratio."""
    size, n, m = x.shape
    g = np.matmul(x.transpose(0, 2, 1), x)
    g_pairs = _upper(g)
    sum_c = g_pairs - n * rho
    sq = x * x
    rows = (sq.reshape(size * n, m) @ np.ones(m)).reshape(size, 1, n)
    flat = sq.reshape(size, 1, n * m)
    # per-slice dot products, as (1, k) @ (k, 1) products
    quartic = (np.matmul(rows, rows.transpose(0, 2, 1))
               - np.matmul(flat, flat.transpose(0, 2, 1)))[:, 0, 0]
    total = 0.5 * quartic - (rho * (g_pairs + sum_c)).sum(axis=1)
    return g, g_pairs, sum_c, total


def _cross_sample(sum_c: np.ndarray, sum_c2: np.ndarray, n: int) -> np.ndarray:
    """Per-slice cross-sample term (sum_pairs (sum_i c_i)^2 - sum_c2) / n^2,
    with sum_c2 the slice's total of sum_i c_i^2 over the pairs."""
    if n == 1:
        return np.zeros(len(sum_c))  # empty cross-sample sum
    return ((sum_c * sum_c).sum(axis=1) - sum_c2) / float(n) ** 2


def term_i(data: Union[DataMatrix, np.ndarray], r: CorrMatrix):
    """Cross-sample component: (2/n^2) sum_{p<q} sum_{i<j} c_i c_j.

    Computed as sum_{p<q} ((sum_i c_i)^2 - sum_i c_i^2) / n^2, avoiding the
    O(n^2) double loop; the second total comes from row sums (``_pair_sums``).
    A float for one DataMatrix; for a (B, n, m) stack of samples from the
    same R, a length-B array whose k-th entry equals
    term_i(DataMatrix(data[k]), r).
    """
    x, shape = _as_stack(data)
    _check_dims(x.shape[2], r.m)
    rho = _upper(r.rho[None])
    _, _, sum_c, sum_c2 = _pair_sums(x, rho)
    return shape(_cross_sample(sum_c, sum_c2, x.shape[1]))


def _ii_weights() -> np.ndarray:
    """Weights of the bilinear forms M_K[l1, l2] in II1 (row 0) and II2
    (row 1), indexed [row, l1, K, l2] with K = 0, 1, 2 for W, P, RW (the
    layout of the forms in ``decompose``), flattened to (2, 75)."""
    weights = np.zeros((2, 5, 3, 5))
    weights[0, 1:3, 0, 0] = 1.0                 # (-u - v + u^2 + v^2) w^2
    weights[1, 1, 0, 1] = 0.5                   # u v w^2
    for l1 in range(5):
        for l2 in range(5):
            if 1 <= l1 + l2 <= 4:
                weights[1, l1, 1, l2] = 0.5     # rho^2 (G_4 - 1)
            if l1 + l2 <= 3:
                weights[1, l1, 2, l2] = 1.0     # 2 rho w G_3
    weights.flags.writeable = False
    return weights.reshape(2, 75)


_II_WEIGHTS = _ii_weights()


@dataclass(frozen=True)
class _Cells:
    """The constants ``decompose`` needs of one correlation matrix, built
    once per run: R and P = R * R (P with a zero diagonal) as (m, m)
    arrays, the m(m-1)/2 pair correlations rho and ||R - I||_F^2 / 2."""

    matrix: np.ndarray
    rho_sq: np.ndarray
    rho: np.ndarray
    half_signal: float

    @classmethod
    def of(cls, r: CorrMatrix) -> "_Cells":
        rho_sq = r.rho * r.rho
        np.fill_diagonal(rho_sq, 0.0)
        signal = frobenius_signal(r)
        return cls(matrix=r.rho, rho_sq=rho_sq, rho=_upper(r.rho[None])[0],
                   half_signal=0.5 * signal * signal)


def decompose(data: Union[DataMatrix, np.ndarray],
              r: Union[CorrMatrix, _Cells]) -> Decomposition:
    """Exact decomposition of the centered statistic around a known R.

    Per pair, with u = Sbar_pp, v = Sbar_qq and w = Sbar_pq for
    Sbar = S - R, the order-4 Taylor expansion of f(u1, u2, u3) =
    u3^2 / (u1 u2) around (1, 1, rho) gives the same-sample component
    ii1 = sum_i c_i^2 / n^2 + (-u - v + u^2 + v^2) w^2 and
    ii2 = u v w^2 + rho^2 (G_4 - 1) + 2 rho w G_3, where
    G_k = sum_{l1 + l2 <= k} (-u)^l1 (-v)^l2.

    All but sum_i c_i^2 / n^2 is summed over the pairs through 5 x 5
    bilinear forms of per-variable powers.  With a = -Sbar_pp = 1 - S_pp,
    V = [1, a, a^2, a^3, a^4] (m x 5), the elementwise products
    W = Sbar * Sbar, RW = R * Sbar and P = R * R with their diagonals
    zeroed, and M_K = V' K V (m x m matrices, 5 x 5 forms):

        sum_{p<q} (-u - v + u^2 + v^2) w^2 = M_W[1, 0] + M_W[2, 0]
        sum_{p<q} u v w^2                  = M_W[1, 1] / 2
        sum_{p<q} rho^2 (G_4 - 1)          = sum_{1 <= l1 + l2 <= 4} M_P[l1, l2] / 2
        sum_{p<q} 2 rho w G_3              = sum_{l1 + l2 <= 3} M_RW[l1, l2]

    T is computed on the m(m-1)/2 pairs, so t_value equals statistic_t bit
    for bit.  Term I takes its pair sums sum_i c_i from the Gram matrix
    X'X and, like II1, the total of sum_i c_i^2 over the pairs from the
    O(nm) row sums of X^2 and the sum of X^4 (``_pair_sums``), which lose
    digits when one column's scale dominates the others.  The third term is the exact
    aggregate residual (T - ||R - I||_F^2 / 2) - I - II, so the identity
    holds by construction; ``residual`` reports the floating-point defect
    of T - ||R - I||_F^2 / 2 - (I + II + III).  One Gram matrix feeds every
    term and T itself.

    ``data`` is one DataMatrix, giving float fields, or a (B, n, m) stack
    of samples, giving length-B arrays whose k-th entries equal those of
    decompose(DataMatrix(data[k]), r).  One matrix ``r`` serves every
    slice; it may also be given as its ``_Cells``, built once per run.
    """
    x, shape = _as_stack(data)
    size, n, m = x.shape
    cells = r if isinstance(r, _Cells) else _Cells.of(r)
    _check_dims(m, len(cells.matrix))
    g, g_pairs, sum_c, sum_c2 = _pair_sums(x, cells.rho)
    # S and its pairs overwrite the spent Gram matrices and their pairs.
    s = np.divide(g, n, out=g)
    r2_hat, d = _squared_correlations(s, np.divide(g_pairs, n, out=g_pairs))
    t_value = r2_hat.sum(axis=1)                   # d: S_pp per variable
    t_i = _cross_sample(sum_c, sum_c2, n)

    # Sbar and then RW overwrite S, which is spent.
    sbar = np.subtract(s, cells.matrix, out=s)
    sbar.reshape(size, m * m)[:, ::m + 1] = 0.0
    w = sbar * sbar
    rw = np.multiply(sbar, cells.matrix, out=sbar)
    powers = np.empty((size, m, 5))                # V per variable
    powers[..., 0] = 1.0
    a = np.subtract(1.0, d, out=powers[..., 1])
    a2 = np.multiply(a, a, out=powers[..., 2])
    np.multiply(a2, a, out=powers[..., 3])
    np.multiply(a2, a2, out=powers[..., 4])
    kv = np.concatenate([np.matmul(w, powers), np.matmul(cells.rho_sq, powers),
                         np.matmul(rw, powers)], axis=2)
    forms = np.matmul(powers.transpose(0, 2, 1), kv)   # [l1, K, l2] per slice
    t_ii1, t_ii2 = (forms.reshape(size, 1, 75) * _II_WEIGHTS).sum(axis=2).T
    t_ii1 = t_ii1 + sum_c2 / float(n) ** 2
    t_iii = (t_value - cells.half_signal) - t_i - (t_ii1 + t_ii2)
    residual = np.abs(t_value - cells.half_signal - (t_i + t_ii1 + t_ii2 + t_iii))
    return Decomposition(*map(shape, (t_value, t_i, t_ii1 + t_ii2, t_ii1, t_ii2,
                                      t_iii, residual)))
