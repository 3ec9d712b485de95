"""Monte Carlo experiment engine: null calibration, power curves against
the asymptotic prediction, and oracle checks of the exact moment formulas.

Trials are embarrassingly parallel: each is a pure function of the config
and its trial index (counter-based streams).  A unit of work is one trial
(null and power runs) or one chunk of consecutive trials (the moment
checks, whose samples are small enough that per-call overhead would
dominate).  The moment checks of one run share their chunks: each trial's
stream is drawn once, and each check reads its own sample size from the
front of it.  Chunk bounds depend only on the trial count and the largest
sample size, results land in pre-sized slots indexed by trial or chunk, and
reductions run in fixed trial order, so reports are bitwise identical for
any worker count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, Unachievable
# sample_gaussian is not called here, but bench/tracing.py wraps it at this
# lookup site, so the name stays bound.
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
# Bound on the bytes of one chunk's (B, n, m) float64 sample stack: 873
# trials at m=5/n=30, 40 at m=40/n=80, and one trial once n*m > 65536.
# The kernel checks chunk their draws by it too: 16384 draws of x and y.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Full description of a simulation run."""

    m: int
    n: int
    trials: int
    alpha: float
    seed: Seed
    family: AlternativeFamily = field(default_factory=AlternativeFamily.equicorrelation)
    b_grid: tuple = ()
    cov_mode: CovMode = CovMode.KNOWN_ZERO_MEAN
    workers: int = 1

    def validate(self) -> None:
        if self.m < 2 or self.n < 1:
            raise ConfigError("need m >= 2 and n >= 1")
        if self.trials < 100:
            raise ConfigError("statistical runs need at least 100 trials")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly inside (0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be a positive integer")
        if any(b < 0 for b in self.b_grid):
            raise ConfigError("b grid values must be nonnegative")
        if list(self.b_grid) != sorted(self.b_grid):
            raise ConfigError("b grid must be sorted ascending")

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "trials": self.trials,
            "alpha": self.alpha,
            "seed": self.seed.master,
            "family": self.family.label,
            "b_grid": list(self.b_grid),
            "cov_mode": self.cov_mode.value,
            "workers": self.workers,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimConfig":
        """Config from its JSON object; a key that is not a field (a typo
        such as "trails") or a missing required field raises ConfigError."""
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in obj
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"missing config key(s): {', '.join(missing)}")
        return cls(
            m=int(obj["m"]),
            n=int(obj["n"]),
            trials=int(obj["trials"]),
            alpha=float(obj["alpha"]),
            seed=Seed(int(obj["seed"])),
            family=AlternativeFamily.parse(obj.get("family", "equicorrelation")),
            b_grid=tuple(float(b) for b in obj.get("b_grid", ())),
            cov_mode=CovMode(obj.get("cov_mode", "zero-mean")),
            workers=int(obj.get("workers", 1)),
        )


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
    z_samples_path: Optional[str]
    config: SimConfig
    z_values: np.ndarray

    def to_json_obj(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json_obj(),
            "empirical_size": self.empirical_size,
            "ks_statistic": self.ks_statistic,
            "z_samples_path": self.z_samples_path,
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
        return {
            "name": self.name,
            "mc_value": self.mc_value,
            "exact": self.exact,
            "stderr": self.stderr,
            "z_score": self.z_score,
            "passed": self.passed,
        }


def _map_trials(fn: Callable[[int], object], trials: int, workers: int) -> list:
    out = [None] * trials
    if workers <= 1:
        for t in range(trials):
            out[t] = fn(t)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for t, value in enumerate(pool.map(fn, range(trials))):
                out[t] = value
    return out


def _gated_decompose(data, r) -> Decomposition:
    """``decompose`` of one sample or a stack, with every reconstruction
    residual held to _RESIDUAL_RTOL relative to max(1, |T|)."""
    dec = decompose(data, r)
    residual, t_abs = np.broadcast_arrays(np.ravel(dec.residual),
                                          np.abs(np.ravel(dec.t_value)))
    bad = np.flatnonzero(residual > _RESIDUAL_RTOL * np.maximum(1.0, t_abs))
    if bad.size:
        raise RuntimeError(
            f"decomposition identity violated: residual {residual[bad[0]]:.3e} "
            f"for |T| = {t_abs[bad[0]]:.3e}")
    return dec


def _t_values(rs: Sequence[CorrMatrix],
              mode: CovMode) -> Callable[[np.ndarray], np.ndarray]:
    """The function from a (B, n, m) stack of samples of the matrices ``rs``
    (B of them, or one for every slice) to T of each slice.  In the
    zero-mean convention the decomposition identity is written in, T comes
    from the gated ``decompose``, with the matrices' constants built here
    once for all trials; otherwise from ``statistic_t``."""
    if mode is CovMode.KNOWN_ZERO_MEAN:
        cells = _Cells.of(rs)
        return lambda stack: _gated_decompose(stack, cells).t_value
    return lambda stack: statistic_t(stack, mode)


def ks_statistic_vs_normal(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample against the standard normal."""
    z = np.sort(np.asarray(values, dtype=float))
    size = z.size
    cdf = normal_cdf(z)
    grid = np.arange(1, size + 1) / size
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / size))))


def run_null(config: SimConfig, z_samples_path: Optional[str] = None) -> NullReport:
    """Null calibration: empirical size at level alpha and the KS distance
    of the standardized statistic n (T - m(m-1)/(2n)) / m to the normal."""
    config.validate()
    m, n = config.m, config.n
    t_of = _t_values([CorrMatrix.identity(m)], config.cov_mode)

    def one(trial: int) -> np.ndarray:
        # Under the null the normals are the sample; looked up on the module,
        # where a wrapper placed on it sees the call.
        return t_of(_generators.standard_normal_block(config.seed, trial, n, m)[None])

    t_values = np.concatenate(_map_trials(one, config.trials, config.workers))
    report = report_from_statistic(t_values, n, m, config.alpha)
    z_values = report.z_value
    if z_samples_path is not None:
        np.savetxt(z_samples_path, z_values, fmt="%.17g")
    return NullReport(
        empirical_size=float(np.mean(report.reject)),
        ks_statistic=ks_statistic_vs_normal(z_values),
        z_samples_path=z_samples_path,
        config=config,
        z_values=z_values,
    )


def run_power_curve(config: SimConfig) -> List[PowerPoint]:
    """Empirical power across the b grid against the asymptotic prediction.

    Unachievable grid points are reported as skipped, not fatal.  Every
    cell uses the same (seed, trial) normals, so each trial draws them once
    and multiplies them by every cell's Cholesky factor in one stack.  The
    prediction is an m, n -> infinity limit; finite-sample agreement
    windows are engineering tolerances, not derived error bounds.
    """
    config.validate()
    m, n = config.m, config.n
    cells: List[Optional[CorrMatrix]] = []
    for b in config.b_grid:
        try:
            cells.append(CorrMatrix.identity(m) if b == 0.0
                         else calibrate_to_theta(config.family, b, m, n))
        except Unachievable:
            cells.append(None)
    live = [r for r in cells if r is not None]
    power: List[Optional[float]] = [None] * len(cells)
    if live:
        # Transposed views, so each slice is multiplied exactly as z @ L'.
        lower_t = np.stack([cholesky(r).lower for r in live]).transpose(0, 2, 1)
        t_of = _t_values(live, config.cov_mode)

        def one(trial: int) -> np.ndarray:
            # Looked up on the module, where a wrapper placed on it sees the call.
            z = _generators.standard_normal_block(config.seed, trial, n, m)
            return t_of(np.matmul(z, lower_t))

        t_values = np.array(_map_trials(one, config.trials, config.workers))
        rejections = report_from_statistic(t_values, n, m, config.alpha).reject
        live_power = iter(np.mean(rejections, axis=0))
        power = [None if r is None else float(next(live_power)) for r in cells]
    points: List[PowerPoint] = []
    for b, p_hat in zip(config.b_grid, power):
        stderr = (None if p_hat is None
                  else float(np.sqrt(p_hat * (1.0 - p_hat) / config.trials)))
        points.append(PowerPoint(
            b=b, m=m, n=n, trials=config.trials, empirical_power=p_hat,
            mc_stderr=stderr, predicted_power=asymptotic_power(config.alpha, b).power,
            skipped=p_hat is None))
    return points


def write_power_csv(points: Sequence[PowerPoint], path) -> None:
    """Power-curve CSV: b, m, n, trials, empirical_power, mc_stderr,
    predicted_power, skipped."""

    def fmt(value) -> str:
        return "" if value is None else repr(float(value))

    close = False
    if isinstance(path, (str, bytes)):
        handle = open(path, "w", newline="")
        close = True
    else:
        handle = path
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["b", "m", "n", "trials", "empirical_power",
                         "mc_stderr", "predicted_power", "skipped"])
        for pt in points:
            writer.writerow([repr(float(pt.b)), pt.m, pt.n, pt.trials,
                             fmt(pt.empirical_power), fmt(pt.mc_stderr),
                             repr(float(pt.predicted_power)),
                             "true" if pt.skipped else "false"])
    finally:
        if close:
            handle.close()


def _z_score(estimate: float, exact: float, stderr: float) -> float:
    """(estimate - exact) / stderr; with zero spread, 0 for an exact estimate
    and an infinity of the error's sign otherwise."""
    if stderr > 0:
        return (estimate - exact) / stderr
    if estimate == exact:
        return 0.0
    return math.copysign(math.inf, estimate - exact)


def _moment_check(name: str, samples: np.ndarray, exact: float) -> MomentCheck:
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(samples.size))
    return MomentCheck(name=name, mc_value=mean, exact=exact, stderr=stderr,
                       z_score=_z_score(mean, exact, stderr))


@dataclass(frozen=True)
class ChunkCheck:
    """A Monte Carlo moment check over samples of n rows with correlation
    factor.lower @ factor.lower.T: ``reduce`` maps a (B, n, m) stack of
    consecutive trials' samples to per-trial values along its last axis,
    and ``finish`` maps every trial's values to the check's results."""

    factor: CholeskyFactor
    n: int
    reduce: Callable[[np.ndarray], np.ndarray]
    finish: Callable[[np.ndarray], List[MomentCheck]]


def var_i_check(r: CorrMatrix, n: int, name: str = "var_i") -> ChunkCheck:
    """Monte Carlo variance of the cross-sample term against its exact value.

    The z-score uses the large-sample standard error of a sample variance,
    sqrt((m4 - var^2) / trials) with m4 the fourth central moment.
    """
    def finish(values: np.ndarray) -> List[MomentCheck]:
        mc_var = float(np.var(values, ddof=1))
        exact = var_i_exact(r, n)
        m4 = float(np.mean((values - values.mean()) ** 4))
        stderr = float(np.sqrt(max(m4 - mc_var ** 2, 0.0) / values.size))
        return [MomentCheck(name=name, mc_value=mc_var, exact=exact, stderr=stderr,
                            z_score=_z_score(mc_var, exact, stderr))]

    return ChunkCheck(cholesky(r), n, lambda x: term_i(x, r), finish)


def e_ii1_check(r: CorrMatrix, n: int) -> ChunkCheck:
    """Monte Carlo means of the same-sample component II1 (against its exact
    closed form) and of the cross-sample term (against zero)."""
    cells = _Cells.of([r])   # decompose's constants, shared by every chunk

    def reduce(x: np.ndarray) -> np.ndarray:
        dec = _gated_decompose(x, cells)
        return np.stack([dec.term_ii1, dec.term_i])

    def finish(values: np.ndarray) -> List[MomentCheck]:
        ii1, t_i = values
        return [_moment_check("e_ii1", ii1, expected_ii1(r, n)),
                _moment_check("e_i", t_i, 0.0)]

    return ChunkCheck(cholesky(r), n, reduce, finish)


def run_checks(checks: Sequence[ChunkCheck], trials: int, seed: Seed,
               workers: int = 1) -> List[List[MomentCheck]]:
    """Each check's results over the samples of trials 0..trials-1 of
    ``seed``, every check equal to its own run.

    Consecutive trials are reduced as one (B, n, m) stack per chunk, whose
    size comes from the longest block any check needs.  A chunk draws each
    trial's stream once, at that length, and a check reads the first n*m
    normals of it: the stream is consumed in order and mapped to normals
    elementwise, so that prefix is standard_normal_block(seed, trial, n, m).
    """
    if any(check.n < 1 for check in checks):
        raise DomainError("n must be a positive integer")
    if trials < 2:
        raise ConfigError("a Monte Carlo moment check needs at least 2 trials")
    width = max(check.n * check.factor.m for check in checks)
    size = max(1, _CHUNK_BYTES // (8 * width))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]

    def one(chunk: int) -> list:
        # Looked up on the module, where a wrapper placed on it sees the call.
        z = _generators.standard_normal_blocks(seed, chunks[chunk], 1, width)[:, 0]
        return [check.reduce(np.matmul(
                    z[:, :check.n * check.factor.m].reshape(-1, check.n, check.factor.m),
                    check.factor.lower.T))
                for check in checks]

    per_chunk = _map_trials(one, len(chunks), workers)
    return [check.finish(np.concatenate(values, axis=-1))
            for check, values in zip(checks, zip(*per_chunk))]


def verify_var_i(r: CorrMatrix, n: int, trials: int, seed: Seed,
                 workers: int = 1) -> MomentCheck:
    """``var_i_check`` run on its own."""
    return run_checks([var_i_check(r, n)], trials, seed, workers)[0][0]


def verify_e_ii1(r: CorrMatrix, n: int, trials: int, seed: Seed,
                 workers: int = 1):
    """``e_ii1_check`` run on its own: the (e_ii1, e_i) checks."""
    return tuple(run_checks([e_ii1_check(r, n)], trials, seed, workers)[0])


def verify_kernels(rho: float, n: int, trials: int, seed: Seed) -> List[MomentCheck]:
    """Kernel means over i.i.d. draws of four bivariate normal vectors,
    including the mirrored variants, against the closed forms.

    All variants are evaluated in one call per chunk of consecutive draws
    whose x and y columns (64 bytes per draw) fit in _CHUNK_BYTES; the
    per-draw values are the same as over one batch, and each check reduces
    them all at once."""
    if abs(rho) >= 1.0:
        raise ConfigError("rho must lie strictly inside (-1, 1)")
    if trials < 2:
        raise ConfigError("a Monte Carlo moment check needs at least 2 trials")
    # Neither the uniforms nor their quantiles outlive the draw.  x and y
    # are the two halves of one C-contiguous (coordinate, sample slot, draw)
    # array, so a chunk of draws is a contiguous run of each of the eight
    # rows; y is correlated in place.
    q = normal_quantile(_uniform_open(seed.master, 0, trials * 8).reshape(trials, 4, 2))
    x, y = np.negative(q.transpose(2, 1, 0), order="C")
    del q
    y *= np.sqrt(1.0 - rho * rho)
    y += rho * x
    exact = kernel_expectations(rho, n)
    targets = {"h1": exact.e_h1, "h2": exact.e_h2, "h3": exact.e_h3}
    size = _CHUNK_BYTES // (2 * 4 * 8)
    values = np.empty((len(_kernels.VARIANTS), trials))
    for lo in range(0, trials, size):
        values[:, lo:lo + size] = _kernels.evaluate_variants(
            x[:, lo:lo + size], y[:, lo:lo + size], rho, n)
    return [_moment_check(name + ("_bar" if swapped else ""), out, targets[name])
            for out, (name, swapped) in zip(values, _kernels.VARIANTS)]


def verification_report_json(checks: Sequence[MomentCheck], config_obj: dict) -> str:
    """JSON report for verification runs, embedding config and version."""
    return json.dumps({
        "version": __version__,
        "config": config_obj,
        "checks": [c.to_json_obj() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }, indent=2)
