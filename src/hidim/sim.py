"""Monte Carlo experiment engine: null calibration, power curves against
the asymptotic prediction, and oracle checks of the exact moment formulas.

Trials are embarrassingly parallel: each is a pure function of the config
and its trial index (counter-based streams).  A unit of work is one trial
(null runs, bound by sampling at scale) or one chunk of consecutive trials
(power curves and the moment checks, whose samples are small enough that
per-call overhead would dominate).  The checks of one run, the b cells of a
power curve or the moment checks of ``verify``, share their chunks: each
trial's stream is drawn once, and each check reads its own sample size from
the front of it.  Chunk bounds depend only on the trial count and the
checks' sample sizes, results are kept in trial or chunk order, and
reductions run in fixed trial order, so reports are bitwise identical for
any worker count.  Every Monte Carlo number, a moment check or a power
cell's rate, is the mean sum / N of one fold (``_fold_blocks``) of the
per-trial values to (count, sum, M2), with that fold's standard error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import (ConfigError, Unachievable, require_correlation, require_count, require_level,
                     require_signal)
# Not called here: bench/tracing.py wraps sample_gaussian, _uniform_open and
# normal_quantile at this lookup site, so the names stay bound.
from .generators import (AlternativeFamily, Seed, _uniform_open,
                         calibrate_to_theta, sample_gaussian)
from . import generators as _generators
from .matrix import CholeskyFactor, CorrMatrix, cholesky
from .moments import expected_ii1, kernel_expectations, var_i_exact
from .stats import (CovMode, Decomposition, _Cells, decompose,
                    report_from_statistic, statistic_t, term_i)
from .theory import asymptotic_power, normal_cdf, normal_quantile
from . import kernels as _kernels

_RESIDUAL_RTOL = 1e-9
# Bound on the bytes of the (B, n, m) float64 stacks that all the checks of
# one chunk hold together, so that they stay in cache: 10 trials for 4 power
# cells at m=40/n=80, 344 for ``verify all`` at its defaults, one once the
# n*m sum passes 65536.
_CHUNK_BYTES = 1 << 20
# Floats each check counts a trial as at least, for its reduction's fixed
# per-trial arrays (``decompose``'s 5 x 15 forms are 75); 80, the smallest
# sample of ``verify all``, leaves its chunks and the power cells' as they are.
_TRIAL_FLOATS = 80
# Trials (or kernel draws) per block of ``_fold_blocks``: blocks start at
# multiples of it, so no summary depends on the chunk size or the worker
# count, and memory does not grow with the trials.  A kernel block holds ~30
# float64 rows of draws live, a 2 MiB L2; 4096 and 16384 draws were slower.
_MERGE_TRIALS = 8192


# The JSON type and the conversion of each field not stored as its JSON value
_FROM_JSON = {"seed": ("an integer", int, Seed), "cov_mode": ("a string", str, CovMode),
              "family": ("a string", str, AlternativeFamily.parse)}
_TO_JSON = {"seed": lambda seed: seed.master, "family": lambda family: family.label,
            "b_grid": list, "cov_mode": lambda mode: mode.value}


@dataclass(frozen=True)
class SimConfig:
    """Full description of a simulation run, validated when it is built."""

    m: int
    n: int
    trials: int
    alpha: float
    seed: Seed
    family: AlternativeFamily = field(default_factory=AlternativeFamily.equicorrelation)
    b_grid: tuple = ()
    cov_mode: CovMode = CovMode.KNOWN_ZERO_MEAN
    workers: int = 1

    def __post_init__(self):
        self.validate()
        # numpy numbers are stored as Python ones, which json.dumps writes
        for name, kind in (("m", int), ("n", int), ("trials", int), ("workers", int),
                           ("alpha", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "b_grid", tuple(map(float, self.b_grid)))

    def validate(self) -> None:
        for name, floor in (("m", 2), ("n", 1), ("trials", 100), ("workers", 1)):
            require_count(name, getattr(self, name), floor, ConfigError)
        for name, kind in (("seed", Seed), ("family", AlternativeFamily), ("cov_mode", CovMode)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be of type {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        if self.cov_mode is CovMode.SAMPLE_CENTERED and self.n < 2:
            raise ConfigError("centered covariances need n >= 2")
        require_level(self.alpha, ConfigError)
        if not isinstance(self.b_grid, (tuple, list)):
            raise ConfigError(f"b_grid must be a tuple or list, got {self.b_grid!r}")
        for b in self.b_grid:
            require_signal(b, ConfigError)
        if list(self.b_grid) != sorted(self.b_grid):
            raise ConfigError("b grid must be sorted ascending")

    def to_json_obj(self) -> dict:
        return {f.name: _TO_JSON.get(f.name, lambda value: value)(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimConfig":
        """Config from its JSON object, the one constructor for outside
        input.  A key that is not a field (a typo such as "trails"), a
        missing required field or a value of the wrong type (6.9 or "6" for
        m) raises ConfigError; a missing optional key takes the field's
        default.  Only seed, family and cov_mode are converted."""
        if not isinstance(obj, dict):
            raise ConfigError("a config must be a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in obj
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(missing)}")
        for key, (json_type, kind, _) in _FROM_JSON.items():
            if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], kind)):
                raise ConfigError(f"config key {key!r} must be {json_type}, "
                                  f"got {json.dumps(obj[key], default=repr)}")
        return cls(**{key: _FROM_JSON[key][2](value) if key in _FROM_JSON else value
                      for key, value in obj.items()})


@dataclass(frozen=True)
class PowerPoint:
    """One grid cell of a power experiment."""

    b: float
    m: int
    n: int
    trials: int
    empirical_power: Optional[float]
    mc_stderr: Optional[float]
    predicted_power: float
    skipped: bool = False


@dataclass(frozen=True)
class NullReport:
    """Null-calibration outcome at level alpha."""

    empirical_size: float
    ks_statistic: float
    config: SimConfig
    z_values: np.ndarray

    def to_json_obj(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json_obj(),
            "empirical_size": self.empirical_size,
            "ks_statistic": self.ks_statistic,
        }


@dataclass(frozen=True)
class MomentCheck:
    """One Monte Carlo estimate against its exact value."""

    name: str
    mc_value: float
    exact: float
    stderr: float
    z_score: float

    @property
    def passed(self) -> bool:
        return abs(self.z_score) <= 3.0

    def to_json_obj(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _map_trials(fn: Callable[[int], object], trials: int, workers: int) -> list:
    require_count("workers", workers, 1, ConfigError)
    if workers == 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def _gated_decompose(data, r) -> Decomposition:
    """``decompose`` of one sample or a stack, with every reconstruction
    residual held to _RESIDUAL_RTOL relative to max(1, |T|); a NaN residual
    or T (covariances that overflow float64) fails the gate too."""
    dec = decompose(data, r)
    residual, t_abs = np.broadcast_arrays(np.ravel(dec.residual),
                                          np.abs(np.ravel(dec.t_value)))
    bad = np.flatnonzero(~(residual <= _RESIDUAL_RTOL * np.maximum(1.0, t_abs)))
    if bad.size:
        raise RuntimeError(
            f"decomposition identity violated: residual {residual[bad[0]]:.3e} "
            f"for |T| = {t_abs[bad[0]]:.3e}")
    return dec


def _t_values(r: CorrMatrix, mode: CovMode) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a (B, n, m) stack of samples of the one matrix
    ``r`` to T of each slice.  In the zero-mean convention the decomposition
    identity is written in, T comes from the gated ``decompose``, with the
    matrix's constants built here once for all trials; otherwise from
    ``statistic_t``."""
    if mode is CovMode.KNOWN_ZERO_MEAN:
        cells = _Cells.of(r)
        return lambda stack: _gated_decompose(stack, cells).t_value
    return lambda stack: statistic_t(stack, mode)


def ks_statistic_vs_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample against the standard normal."""
    z = np.sort(np.asarray(values, dtype=float))
    size = z.size
    cdf = normal_cdf(z)
    grid = np.arange(1, size + 1) / size
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / size))))


def run_null(config: SimConfig) -> NullReport:
    """Null calibration: empirical size at level alpha and the KS distance
    of the standardized statistic n (T - m(m-1)/(2n)) / m to the normal."""
    m, n = config.m, config.n
    t_of = _t_values(CorrMatrix.identity(m), config.cov_mode)

    def one(trial: int) -> np.ndarray:
        # Under the null the normals are the sample; looked up on the module,
        # where a wrapper placed on it sees the call.
        return t_of(_generators.standard_normal_block(config.seed, trial, n, m)[None])

    t_values = np.concatenate(_map_trials(one, config.trials, config.workers))
    report = report_from_statistic(t_values, n, m, config.alpha)
    z_values = report.z_value
    return NullReport(
        empirical_size=float(np.mean(report.reject)),
        ks_statistic=ks_statistic_vs_normal(z_values),
        config=config,
        z_values=z_values,
    )


def run_power_curve(config: SimConfig) -> List[PowerPoint]:
    """Empirical power across the b grid against the asymptotic prediction.

    Unachievable grid points are reported as skipped, not fatal.  Each live
    cell is a ``ChunkCheck`` of one ``run_checks`` call: every cell uses the
    same (seed, trial) normals, so each chunk of trials draws them once and
    multiplies them by every cell's Cholesky factor.  The prediction is an
    m, n -> infinity limit; finite-sample agreement windows are engineering
    tolerances, not derived error bounds.
    """
    m, n = config.m, config.n
    cells: List[Optional[CorrMatrix]] = []
    for b in config.b_grid:
        try:
            cells.append(CorrMatrix.identity(m) if b == 0.0
                         else calibrate_to_theta(config.family, b, m, n))
        except Unachievable:
            cells.append(None)

    def rejections(r: CorrMatrix) -> Callable[[np.ndarray], np.ndarray]:
        t_of = _t_values(r, config.cov_mode)
        return lambda stack: report_from_statistic(
            t_of(stack), n, m, config.alpha).reject[None].astype(float)

    predicted = [asymptotic_power(config.alpha, b) for b in config.b_grid]
    live = [ChunkCheck(cholesky(r), n, rejections(r), [("power", p)])
            for r, p in zip(cells, predicted) if r is not None]
    checks = iter(run_checks(live, config.trials, config.seed, config.workers))
    rates = [None if r is None else next(checks)[0] for r in cells]
    return [PowerPoint(b=float(b), m=m, n=n, trials=config.trials,
                       empirical_power=None if rate is None else rate.mc_value,
                       mc_stderr=None if rate is None else rate.stderr,
                       predicted_power=p, skipped=rate is None)
            for b, rate, p in zip(config.b_grid, rates, predicted)]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, int) else repr(float(value))


def write_power_csv(points: Sequence[PowerPoint], handle) -> None:
    """Power-curve CSV to the open text handle: one column per PowerPoint
    field, in field order; None is empty, a bool true or false."""
    names = [f.name for f in fields(PowerPoint)]
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(names)
    for pt in points:
        writer.writerow([_csv_cell(getattr(pt, name)) for name in names])


def _z_score(estimate: float, exact: float, stderr: float) -> float:
    """(estimate - exact) / stderr; with zero spread, 0 for an exact estimate
    and an infinity of the error's sign otherwise."""
    if stderr > 0:
        return (estimate - exact) / stderr
    if estimate == exact:
        return 0.0
    return math.copysign(math.inf, estimate - exact)


def _mean_checks(exact: Sequence[Tuple[str, float]], moments) -> List[MomentCheck]:
    """One MomentCheck per row of per-trial values, from the rows' (count,
    sums, M2) as ``_row_moments`` and ``_merge_moments`` give them: the
    row's mean sum / count against its (name, exact value), with the
    standard error of a mean, sqrt(M2 / (count - 1) / count)."""
    count, sums, m2 = moments
    stderrs = np.sqrt(m2 / (count - 1)) / math.sqrt(count)
    return [MomentCheck(name, mean, value, stderr, _z_score(mean, value, stderr))
            for (name, value), mean, stderr in zip(exact, (sums / count).tolist(),
                                                   stderrs.tolist())]


@dataclass(frozen=True)
class ChunkCheck:
    """Monte Carlo means over samples of n rows with correlation
    factor.lower @ factor.lower.T: ``reduce`` maps a (B, n, m) stack of
    consecutive trials' samples to a float (rows, B) array of per-trial
    values, one row per (name, exact value) pair of ``exact``, and each
    row's mean is checked against its exact value.  A moment check's rows
    are the terms whose means have closed forms; a power cell's one row is
    its 0/1 rejections, whose mean is the rejection rate."""

    factor: CholeskyFactor
    n: int
    reduce: Callable[[np.ndarray], np.ndarray]
    exact: Sequence[Tuple[str, float]]


def var_i_check(r: CorrMatrix, n: int, name: str = "var_i") -> ChunkCheck:
    """Monte Carlo mean of the squared cross-sample term against its exact
    variance.  E[I] = 0 exactly, so E[I^2] = Var(I): the check is a mean of
    per-trial values like every other, with a mean's standard error, and
    needs no fourth-moment formula for the error of a sample variance."""
    require_count("n", n, 1, ConfigError)
    return ChunkCheck(cholesky(r), n, lambda x: np.square(term_i(x, r))[None],
                      [(name, var_i_exact(r, n))])


def e_ii1_check(r: CorrMatrix, n: int) -> ChunkCheck:
    """Monte Carlo means of the same-sample component II1 (against its exact
    closed form) and of the cross-sample term (against zero)."""
    require_count("n", n, 1, ConfigError)
    cells = _Cells.of(r)   # decompose's constants, shared by every chunk

    def reduce(x: np.ndarray) -> np.ndarray:
        dec = _gated_decompose(x, cells)
        return np.stack([dec.term_ii1, dec.term_i])

    return ChunkCheck(cholesky(r), n, reduce,
                      [("e_ii1", expected_ii1(r, n)), ("e_i", 0.0)])


def run_checks(checks: Sequence[ChunkCheck], trials: int, seed: Seed,
               workers: int = 1) -> list:
    """Each check's MomentChecks over the samples of trials 0..trials-1 of
    ``seed``, every check equal to its own run.

    Consecutive trials are reduced as one (B, n, m) stack per check and
    chunk, with B set so that the stacks of all the checks fit in
    _CHUNK_BYTES together.  A chunk draws each trial's stream once, at the
    longest block any check needs, and a check reads the first n*m normals
    of it: a stream's normals are generated in order, so that prefix is
    standard_normal_block(seed, trial, n, m).
    Each block of _MERGE_TRIALS trials is folded (``_fold_blocks``) before
    the next is drawn.
    """
    if not checks:      # no rows to fold, but the trial count is checked
        return _fold_blocks(trials, lambda block: [])
    width = max(check.n * check.factor.m for check in checks)
    size = max(1, _CHUNK_BYTES // (8 * sum(max(_TRIAL_FLOATS, check.n * check.factor.m)
                                           for check in checks)))

    def one(chunk: range) -> list:
        # Looked up on the module, where a wrapper placed on it sees the call.
        z = _generators.standard_normal_blocks(seed, chunk, 1, width)[:, 0]
        return [check.reduce(np.matmul(
                    z[:, :check.n * check.factor.m].reshape(-1, check.n, check.factor.m),
                    check.factor.lower.T))
                for check in checks]

    def block_rows(block: range) -> list:
        chunks = [block[lo:lo + size] for lo in range(0, len(block), size)]
        per_chunk = _map_trials(lambda k: one(chunks[k]), len(chunks), workers)
        return [np.concatenate(values, axis=-1) for values in zip(*per_chunk)]

    return list(map(_mean_checks, [c.exact for c in checks], _fold_blocks(trials, block_rows)))


def verify_var_i(r: CorrMatrix, n: int, trials: int, seed: Seed,
                 workers: int = 1) -> MomentCheck:
    """``var_i_check`` run on its own."""
    return run_checks([var_i_check(r, n)], trials, seed, workers)[0][0]


def verify_e_ii1(r: CorrMatrix, n: int, trials: int, seed: Seed,
                 workers: int = 1):
    """``e_ii1_check`` run on its own: the (e_ii1, e_i) checks."""
    return tuple(run_checks([e_ii1_check(r, n)], trials, seed, workers)[0])


def _row_moments(values: np.ndarray):
    """(count, sum, M2) of each row of a (rows, count) array, M2 the sum of
    squared deviations from the row's mean; ``values`` is overwritten."""
    count = values.shape[1]
    sums = values.sum(axis=1)
    values -= (sums / count)[:, None]
    return count, sums, np.square(values, out=values).sum(axis=1)


def _merge_moments(a, b):
    """The (count, sum, M2) of two samples joined, from each one's: the
    pairwise update of Chan, Golub & LeVeque (1983).  A sum of 0/1 values
    stays an exact integer, so its mean is the count over the trials."""
    (count_a, sum_a, m2_a), (count_b, sum_b, m2_b) = a, b
    count = count_a + count_b
    delta = sum_b / count_b - sum_a / count_a
    return (count, sum_a + sum_b,
            m2_a + m2_b + delta * delta * (count_a * count_b / count))


def _fold_blocks(trials: int, block_rows: Callable[[range], list]) -> list:
    """(count, sum, M2) of each row set over trials 0..trials-1: ``block_rows``
    maps each block of _MERGE_TRIALS trials to one (rows, len(block)) array per
    row set, reduced and merged in order before the next block is drawn."""
    require_count("trials", trials, 2, ConfigError)
    blocks = (list(map(_row_moments, block_rows(range(trials)[lo:lo + _MERGE_TRIALS])))
              for lo in range(0, trials, _MERGE_TRIALS))
    return functools.reduce(lambda a, b: list(map(_merge_moments, a, b)), blocks)


def verify_kernels(rho: float, n: int, trials: int, seed: Seed) -> List[MomentCheck]:
    """Kernel means over i.i.d. draws of four bivariate normal vectors,
    including the mirrored variants, against the closed forms keyed by
    kernel name (a mirrored variant has its kernel's mean).  All variants
    are evaluated elementwise in one call per ``_fold_blocks`` block; block
    b draws 8 normals a draw from stream 2^64 - 1 - b of ``seed``, apart
    from the trial streams, which count up from 0."""
    require_correlation(rho, ConfigError)
    require_count("n", n, 4, ConfigError)
    exact = kernel_expectations(rho, n)

    def block_rows(block: range) -> list:
        stream = 2 ** 64 - 1 - block.start // _MERGE_TRIALS
        z = _generators.standard_normal_blocks(seed, range(stream, stream + 1), len(block), 8)
        # (coordinate, sample slot, draw) views; y is correlated in place
        x, y = z.reshape(-1, 4, 2).transpose(2, 1, 0)
        y *= np.sqrt(1.0 - rho * rho)
        y += rho * x
        return [_kernels.evaluate_variants(x, y, rho, n)]

    moments, = _fold_blocks(trials, block_rows)
    return _mean_checks([(name + ("_bar" if swapped else ""), exact[name])
                         for name, swapped in _kernels.VARIANTS], moments)


def verification_report_json(checks: Sequence[MomentCheck], config_obj: dict,
                             identities: Sequence[dict] = ()) -> str:
    """JSON report for verification runs, embedding config and version: the
    identity gates (name, error, bound, passed) and the Monte Carlo checks.
    RFC 8259 has no NaN or infinity, so a non-finite number (a NaN error, the
    infinite z of a zero-spread miss) is written as null; its gate has failed."""
    def finite(row: dict) -> dict:
        return {key: None if isinstance(value, float) and not math.isfinite(value) else value
                for key, value in row.items()}

    return json.dumps({
        "version": __version__,
        "config": config_obj,
        "identities": [finite(g) for g in identities],
        "checks": [finite(c.to_json_obj()) for c in checks],
        "all_passed": all(c.passed for c in checks) and all(g["passed"] for g in identities),
    }, indent=2, allow_nan=False)
