"""Sample-level statistics: covariances, squared correlations, the score
statistic, the max statistic, the level-alpha test, and the exact
I / II / III decomposition of the centered statistic around a known
population correlation matrix.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import theory
from .errors import DegenerateColumn, DimensionMismatch, DomainError
from .matrix import CorrMatrix, off_diagonal_norm


class CovMode(enum.Enum):
    """Covariance convention.

    KNOWN_ZERO_MEAN: divisor n, no mean subtraction (the convention all
    exact decomposition formulas are written in).  SAMPLE_CENTERED:
    subtract column means, divisor n - 1 (the usual Pearson form; the two
    give the same squared-correlation distribution under normality).
    """

    KNOWN_ZERO_MEAN = "zero-mean"
    SAMPLE_CENTERED = "centered"


@dataclass(frozen=True)
class DataMatrix:
    """n samples (rows) by m variables (columns) of finite observations."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError("data must be a 2-D array of samples x variables")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValueError("data needs at least 1 sample and 2 variables")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_csv(cls, path, header: bool = False) -> "DataMatrix":
        arr = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        return cls(arr)


@dataclass(frozen=True)
class TestReport:
    """Outcome of the level-alpha independence test."""

    t_value: float
    centered: float
    z_value: float
    p_value: float
    alpha: float
    reject: bool

    def to_json_obj(self) -> dict:
        return {
            "t_value": self.t_value,
            "centered": self.centered,
            "z_value": self.z_value,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
        }


@dataclass(frozen=True)
class Decomposition:
    """Aggregated decomposition terms and the reconstruction residual.

    term_i is the cross-sample (martingale) component, term_ii the
    same-sample component split as term_ii1 + term_ii2, and term_iii the
    per-pair Taylor residual, so the identity
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
    n = values.shape[0]
    if mode is CovMode.KNOWN_ZERO_MEAN:
        return values.T @ values / n
    if n < 2:
        raise DomainError("centered covariances need at least 2 samples")
    centered = values - values.mean(axis=0)
    return centered.T @ centered / (n - 1)


def _check_dims(columns: int, r: CorrMatrix) -> None:
    if columns != r.m:
        raise DimensionMismatch(f"data has {columns} columns, matrix is {r.m} x {r.m}")


def _squared_correlations(s: np.ndarray) -> np.ndarray:
    """Matrix of S_pq^2 / (S_pp S_qq) from a covariance matrix S."""
    d = np.diag(s)
    bad = np.flatnonzero(d == 0.0)
    if bad.size:
        raise DegenerateColumn(bad)
    return (s * s) / np.outer(d, d)


@functools.lru_cache(maxsize=16)
def _pair_offsets(m: int) -> np.ndarray:
    """Flat offsets p * m + q of the pairs p < q of m variables in row-major
    order; built once per m and read-only, because every caller shares it."""
    p, q = np.triu_indices(m, 1)
    flat = p * m + q
    flat.flags.writeable = False
    return flat


def _upper(mats: np.ndarray) -> np.ndarray:
    """The entries p < q of a (B, m, m) stack as a C-contiguous (B, m(m-1)/2)
    array.  Row sums of it use numpy's pairwise summation; those of the
    strided gather mats[:, p, q] do not, and differ in the last bits."""
    b, m = mats.shape[0], mats.shape[-1]
    return np.take(mats.reshape(b, m * m), _pair_offsets(m), axis=1)


def statistic_t(data: DataMatrix, mode: CovMode) -> float:
    """Sum of squared sample correlations over all pairs p < q."""
    r2 = _squared_correlations(_cov_matrix(data.values, mode))
    return float(np.sum(np.take(r2, _pair_offsets(data.m))))


def max_statistic(data: DataMatrix, mode: CovMode) -> float:
    """Largest squared sample correlation over all pairs p < q."""
    r2 = _squared_correlations(_cov_matrix(data.values, mode))
    return float(np.max(np.take(r2, _pair_offsets(data.m))))


def report_from_statistic(t_value: float, n: int, m: int, alpha: float) -> TestReport:
    """Build the level-alpha report from an already-computed statistic.

    Rejects iff T - m(m-1)/(2n) strictly exceeds (m/n) z_alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly inside (0, 1)")
    z_alpha = theory.normal_quantile(alpha)
    centered = t_value - m * (m - 1) / (2.0 * n)
    z_value = n * centered / m
    return TestReport(
        t_value=t_value,
        centered=centered,
        z_value=z_value,
        p_value=theory.normal_tail(z_value),
        alpha=alpha,
        reject=bool(centered > (m / n) * z_alpha),
    )


def rao_score_test(data: DataMatrix, alpha: float, mode: CovMode) -> TestReport:
    """Level-alpha independence test based on the sum of squared correlations."""
    return report_from_statistic(statistic_t(data, mode), data.n, data.m, alpha)


def _pair_sums(x: np.ndarray, rho: np.ndarray):
    """For a (B, n, m) stack and its (B, m(m-1)/2) pair correlations: the
    Gram matrices X'X, their pair entries, and per pair the sums of
    c_i = X_pi X_qi - rho_pq and of c_i^2."""
    n = x.shape[1]
    g = np.matmul(x.transpose(0, 2, 1), x)
    sq = x * x
    g_pairs = _upper(g)
    sum_c = g_pairs - n * rho
    sum_c2 = (_upper(np.matmul(sq.transpose(0, 2, 1), sq)) - 2.0 * rho * g_pairs
              + n * rho * rho)
    return g, g_pairs, sum_c, sum_c2


def _cross_sample(sum_c: np.ndarray, sum_c2: np.ndarray, n: int) -> np.ndarray:
    """Per-pair cross-sample term ((sum_i c_i)^2 - sum_i c_i^2) / n^2."""
    if n == 1:
        return np.zeros_like(sum_c)  # empty cross-sample sum
    return (sum_c * sum_c - sum_c2) / float(n) ** 2


def term_i(data: Union[DataMatrix, np.ndarray], r: CorrMatrix):
    """Cross-sample component: (2/n^2) sum_{p<q} sum_{i<j} c_i c_j.

    Computed as ((sum_i c_i)^2 - sum_i c_i^2) / n^2 per pair, avoiding the
    O(n^2) double loop.  A float for one DataMatrix; for a (B, n, m) stack
    of samples from the same R, a length-B array whose k-th entry equals
    term_i(DataMatrix(data[k]), r).
    """
    single = isinstance(data, DataMatrix)
    x = data.values[None] if single else _checked_stack(data)
    _check_dims(x.shape[2], r)
    _, _, sum_c, sum_c2 = _pair_sums(x, _upper(r.rho[None]))
    values = _cross_sample(sum_c, sum_c2, x.shape[1]).sum(axis=1)
    return float(values[0]) if single else values


def martingale_differences(data: DataMatrix, r: CorrMatrix) -> np.ndarray:
    """The n+1 martingale differences Y_0..Y_n whose sum is term_i.

    Y_0 = Y_1 = 0 and, for samples i >= 2 (1-based),
    Y_i = (2/n^2) sum_{p<q} c_i (c_1 + ... + c_{i-1}).
    """
    _check_dims(data.m, r)
    n = data.n
    flat = _pair_offsets(data.m)
    y = np.zeros(n + 1)
    running = np.zeros(flat.size)
    scale = 2.0 / float(n) ** 2
    for i in range(1, n + 1):
        xi = data.values[i - 1]
        ci = np.take(np.outer(xi, xi) - r.rho, flat)
        if i >= 2:
            y[i] = scale * float(ci @ running)
        running += ci
    return y


def _checked_stack(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.ndim != 3 or x.shape[1] < 1 or x.shape[2] < 2:
        raise ValueError("a data stack must be a (B, n, m) array with n >= 1 and m >= 2")
    if not np.all(np.isfinite(x)):
        raise ValueError("data entries must be finite")
    return x


def decompose(data: Union[DataMatrix, np.ndarray],
              r: Union[CorrMatrix, Sequence[CorrMatrix]]) -> Decomposition:
    """Exact decomposition of the centered statistic around a known R.

    Per pair, with u = Sbar_pp, v = Sbar_qq and w = Sbar_pq for
    Sbar = S - R, the order-4 Taylor expansion of f(u1, u2, u3) =
    u3^2 / (u1 u2) around (1, 1, rho) gives the same-sample component
    ii1 = sum_i c_i^2 / n^2 + (-u - v + u^2 + v^2) w^2 and
    ii2 = u v w^2 + rho^2 (G_4 - 1) + 2 rho w G_3, where
    G_k = sum_{l1 + l2 <= k} (-u)^l1 (-v)^l2.  The third term is the exact
    algebraic residual (rho_hat^2 - rho^2) - i - ii, so the aggregate
    identity holds by construction; ``residual`` reports the floating-point
    defect of T - ||R - I||_F^2 / 2 - (I + II + III).  One Gram matrix
    feeds every term and T itself.

    ``data`` is one DataMatrix with one CorrMatrix, giving float fields, or
    a (B, n, m) stack of samples with B CorrMatrix, giving length-B arrays
    whose k-th entries equal those of decompose(DataMatrix(data[k]), r[k]).
    """
    single = isinstance(data, DataMatrix)
    if single:
        x, rs = data.values[None], [r]
    else:
        x, rs = _checked_stack(data), list(r)
        if len(rs) != x.shape[0]:
            raise DimensionMismatch(f"{x.shape[0]} samples, {len(rs)} matrices")
    for rk in rs:
        _check_dims(x.shape[2], rk)
    n, m = x.shape[1], x.shape[2]
    p, q = np.divmod(_pair_offsets(m), m)
    take = functools.partial(np.take, axis=1)   # C-contiguous, unlike [:, p]
    rhos = np.stack([rk.rho for rk in rs])
    rho = _upper(rhos)
    g, g_pairs, sum_c, sum_c2 = _pair_sums(x, rho)
    d = np.diagonal(g, axis1=1, axis2=2) / n       # S_pp per variable
    slices, columns = np.nonzero(d == 0.0)
    if slices.size:
        raise DegenerateColumn(columns[slices == slices[0]])
    s = g_pairs / n
    r2_hat = (s * s) / (take(d, p) * take(d, q))
    n2 = float(n) ** 2
    i_pairs = _cross_sample(sum_c, sum_c2, n)

    neg_diag = -(d - np.diagonal(rhos, axis1=1, axis2=2))   # -Sbar_pp per variable
    sbar = s - rho
    neg_u, neg_v = take(neg_diag, p), take(neg_diag, q)
    u, v = -neg_u, -neg_v
    w2 = sbar * sbar
    rho2 = rho * rho
    # G_k adds up the complete homogeneous sums h_j = -u h_{j-1} + (-v)^j;
    # the powers are taken per variable and then gathered by q.
    h = g_k = np.ones_like(rho)
    for j in range(1, 5):
        g3 = g_k
        h = neg_u * h + take(neg_diag ** j, q)
        g_k = g_k + h
    ii1 = sum_c2 / n2 + (neg_u - v + u * u + v * v) * w2
    ii2 = u * v * w2 + rho2 * (g_k - 1.0) + 2.0 * rho * sbar * g3
    iii = (r2_hat - rho2) - i_pairs - (ii1 + ii2)

    t_value, t_i, t_ii1, t_ii2, t_iii = (a.sum(axis=1) for a in
                                         (r2_hat, i_pairs, ii1, ii2, iii))
    signal = off_diagonal_norm(rhos)
    residual = np.abs(t_value - 0.5 * signal * signal - (t_i + t_ii1 + t_ii2 + t_iii))
    fields = (t_value, t_i, t_ii1 + t_ii2, t_ii1, t_ii2, t_iii, residual)
    if single:
        fields = tuple(float(f[0]) for f in fields)
    return Decomposition(*fields)
