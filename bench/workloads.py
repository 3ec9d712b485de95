"""The benchmark's workloads: what one pass runs and how its output is checked.

A pass is a fixed amount of work (fixed sizes and trial counts) made from
one pass seed; a run repeats passes back to back in one process (a closed
loop).  Every check is a pure function of outputs so that the self-tests
can feed it corrupted outputs.  Every window is fixed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.special import bdtr, bdtrc, ndtr, ndtri

import hidim.cli
import hidim.generators
import hidim.matrix
import hidim.moments
import hidim.sim
from hidim.generators import AlternativeFamily, Seed
from hidim.matrix import CorrMatrix
from hidim.stats import CovMode

# Two-sided false-alarm probability of every statistical window.
FALSE_ALARM = 1e-6
# Allowance for the normal approximation behind the scale-null predictions
# (the standardized statistic has skewness ~0.04 at m=320, n=640, which
# moves the size by ~0.001 and the CDF by ~0.003).
SIZE_SLACK = 0.005
KS_SLACK = 0.01
VAR_I_RTOL = 1e-12
# Gate on the median, over the first MEDIAN_PASSES passes of a run, of the
# signed z of each Monte Carlo check of ``hidim verify all``.  hidim gates
# each pass at |z| <= 3, which a correct build misses on about one seed in
# ten at 2000 trials, and the studentized kernel and variance estimates have
# tails too heavy for any per-pass gate (|z| = 5.4 has been seen on h3).  For
# the median of 8 to lie beyond Z_GATE, 4 of the 8 z must; P(|z| > 3.5) was
# at most 0.006 on any check over 340 seeds, so that happens with probability
# about 70 * 0.006**4 < 1e-7.
Z_GATE = 3.5
MEDIAN_PASSES = 8
VERIFY_EXACT_ROWS = 12              # identity rows and spot identities
VERIFY_MC_CHECKS = 9                # h1..h3_bar, var_i, var_i_equi, e_ii1, e_i
EXIT_GATE = 1                       # hidim's exit code for a failed gate

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


# -- checks ----------------------------------------------------------------

def binomial_window(trials: int, p: float):
    """Counts [lo, hi] outside which a Binomial(trials, p) count falls with
    probability at most FALSE_ALARM."""
    k = np.arange(trials + 1)
    lo = int(np.argmax(bdtr(k, trials, p) >= FALSE_ALARM / 2))
    hi = int(np.argmax(bdtrc(k, trials, p) <= FALSE_ALARM / 2))
    return lo, hi


def dkw_radius(count: int) -> float:
    """Radius of the Dvoretzky-Kiefer-Wolfowitz band at FALSE_ALARM."""
    return math.sqrt(math.log(2.0 / FALSE_ALARM) / (2.0 * count))


def check_rejection_counts(points, counts: Sequence[int]) -> List[str]:
    """Each grid cell's empirical power must equal the benchmark's own count
    of rejections over the same trials."""
    failures = []
    if len(points) != len(counts):
        return [f"power curve has {len(points)} cells, expected {len(counts)}"]
    for point, count in zip(points, counts):
        if point.skipped:
            failures.append(f"b={point.b}: skipped")
            continue
        got = round(point.empirical_power * point.trials)
        if got != count or abs(got - point.empirical_power * point.trials) > 1e-6:
            failures.append(f"b={point.b}: {point.empirical_power!r} x {point.trials} "
                            f"rejections, recount gives {count}")
    return failures


def check_size_window(rejections: int, trials: int, alpha: float) -> List[str]:
    lo, hi = binomial_window(trials, alpha)
    if lo <= rejections <= hi:
        return []
    return [f"b=0 size {rejections}/{trials} outside [{lo}, {hi}] at alpha {alpha}"]


def check_monotone(powers: Sequence[float], stderrs: Sequence[float]) -> List[str]:
    """Power nondecreasing in b up to the c4 slack 2 * sqrt(se_low^2 + se_high^2)."""
    failures = []
    for i in range(len(powers) - 1):
        slack = 2.0 * math.sqrt(stderrs[i] ** 2 + stderrs[i + 1] ** 2)
        if powers[i + 1] < powers[i] - slack:
            failures.append(f"power falls from {powers[i]:.4f} to {powers[i + 1]:.4f}")
    return failures


def check_identical(got: bytes, want: bytes, what: str) -> List[str]:
    return [] if got == want else [f"{what}: outputs differ"]


def ks_distance(z: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to the standard normal."""
    z = np.sort(np.asarray(z, dtype=float))
    cdf = ndtr(z)
    grid = np.arange(1, z.size + 1) / z.size
    return float(max(np.max(grid - cdf), np.max(cdf - grid + 1.0 / z.size)))


def centered_null_z(m: int, n: int):
    """Mean and sd of the standardized statistic n (T - m(m-1)/(2n)) / m
    for centered covariances under independence: each squared correlation
    is Beta(1/2, (n-2)/2) and the pairs are uncorrelated."""
    pairs = m * (m - 1) / 2.0
    mean_t = pairs / (n - 1)
    var_t = pairs * 2.0 * (n - 2) / ((n - 1) ** 2 * (n + 1))
    return n * (mean_t - pairs / n) / m, n * math.sqrt(var_t) / m


def check_null_pass(report, alpha: float) -> List[str]:
    """The reported size and KS distance must be those of the reported z-values."""
    z = report.z_values
    failures = []
    count = int(np.sum(z > -ndtri(alpha)))
    if round(report.empirical_size * z.size) != count:
        failures.append(f"size {report.empirical_size!r} but {count} of {z.size} z > z_alpha")
    if abs(report.ks_statistic - ks_distance(z)) > 1e-12:
        failures.append(f"KS {report.ks_statistic!r} but z-values give {ks_distance(z)!r}")
    return failures


def check_null_windows(z: np.ndarray, m: int, n: int, alpha: float) -> List[str]:
    """Mean, size and KS distance of all the run's z-values against the
    exact centered-mode null moments, in windows sized to the trial count."""
    mean_z, sd_z = centered_null_z(m, n)
    z_alpha = -ndtri(alpha)
    size = float(ndtr((mean_z - z_alpha) / sd_z))
    lo, _ = binomial_window(z.size, size - SIZE_SLACK)
    _, hi = binomial_window(z.size, size + SIZE_SLACK)
    failures = []
    rejections = int(np.sum(z > z_alpha))
    if not lo <= rejections <= hi:
        failures.append(f"null size {rejections}/{z.size} outside [{lo}, {hi}] "
                        f"(predicted {size:.4f})")
    radius = -ndtri(FALSE_ALARM / 2) * sd_z / math.sqrt(z.size)
    if abs(z.mean() - mean_z) > radius:
        failures.append(f"z mean {z.mean():.4f} outside {mean_z:.4f} +- {radius:.4f}")
    grid = np.linspace(-10.0, 10.0, 40001)
    ks_model = float(np.max(np.abs(ndtr((grid - mean_z) / sd_z) - ndtr(grid))))
    radius = dkw_radius(z.size) + KS_SLACK
    ks = ks_distance(z)
    if abs(ks - ks_model) > radius:
        failures.append(f"KS {ks:.4f} outside {ks_model:.4f} +- {radius:.4f}")
    return failures


_EXACT_LINE = re.compile(r"^(pass|FAIL)  (.+): \|(?:rel )?err\| = \S+$", re.M)
_MC_LINE = re.compile(r"^(pass|FAIL)  (\S+): mc = (\S+), exact = (\S+), \|z\| = (\S+)$",
                      re.M)


def check_verify_output(code: int, text: str) -> List[str]:
    """Every exact identity of ``verify all`` must pass, every Monte Carlo
    check must report a finite z, and the exit code must be the one hidim's
    own gates imply (0 when all pass, EXIT_GATE when one fails)."""
    exact, checks = _EXACT_LINE.findall(text), _MC_LINE.findall(text)
    failures = []
    if len(exact) != VERIFY_EXACT_ROWS or len(checks) != VERIFY_MC_CHECKS:
        failures.append(f"verify all printed {len(exact)} identity rows and {len(checks)} "
                        f"Monte Carlo checks, expected {VERIFY_EXACT_ROWS} and "
                        f"{VERIFY_MC_CHECKS}")
    failures += [f"identity failed: {quantity}" for status, quantity in exact
                 if status != "pass"]
    failures += [f"{name}: |z| = {z}" for _, name, _, _, z in checks
                 if not math.isfinite(float(z))]
    want = EXIT_GATE if any(row[0] == "FAIL" for row in exact + checks) else 0
    if code != want:
        failures.append(f"hidim verify all exited with {code}, its gates imply {want}")
    return failures


def signed_z(text: str) -> dict:
    """Each Monte Carlo check's z of a ``verify all`` output, its sign taken
    from the printed estimate and exact value."""
    return {name: math.copysign(float(z), float(mc) - float(exact))
            for _, name, mc, exact, z in _MC_LINE.findall(text)}


def check_median_z(per_pass: Sequence[dict]) -> List[str]:
    """The median z of each check over the first MEDIAN_PASSES passes must
    lie within +-Z_GATE."""
    per_pass = per_pass[:MEDIAN_PASSES]
    failures = []
    for name in per_pass[0]:
        median = statistics.median(z.get(name, 0.0) for z in per_pass)
        if not abs(median) <= Z_GATE:
            failures.append(f"{name}: median z {median:.2f} over {len(per_pass)} passes "
                            f"outside +-{Z_GATE}")
    return failures


def check_var_i(values: Sequence[float], reference: Sequence[float]) -> List[str]:
    failures = []
    for i, (got, want) in enumerate(zip(values, reference)):
        if abs(got - want) > VAR_I_RTOL * abs(want):
            failures.append(f"var_i_exact matrix {i}: {got!r} vs reference {want!r}")
    if len(values) != len(reference):
        failures.append(f"{len(values)} var_i_exact values, {len(reference)} references")
    return failures


# -- workloads -------------------------------------------------------------

def equicorrelation_cell(b: float, m: int, n: int) -> CorrMatrix:
    """The correlation matrix of a power grid cell: I at b = 0, else the
    equicorrelation member with signal b * sqrt(m/n)."""
    if b == 0.0:
        return CorrMatrix.identity(m)
    return hidim.generators.calibrate_to_theta(AlternativeFamily.equicorrelation(), b, m, n)


class Workload:
    """Defaults the workloads share."""

    min_passes = 3                  # timed passes a run makes at least

    def setup_statement(self) -> str:
        """Code that builds the workload's configuration in a fresh process."""
        return f"hidim.sim.SimConfig.from_json_obj({self.config(0).to_json_obj()!r}).validate()"

    def prepare(self) -> None:
        pass

    def warm_up(self, seed: int):
        return self.run(seed)

    def skipped_points(self, outputs) -> int:
        return 0


class PaperPower(Workload):
    name = "paper-power"
    workers, traced_passes = 1, 4
    m, n, alpha, trials, b_grid = 40, 80, 0.05, 100, (0.0, 1.0, 2.0, 3.0)
    trials_per_pass = trials * len(b_grid)

    def config(self, seed: int) -> hidim.sim.SimConfig:
        return hidim.sim.SimConfig(
            m=self.m, n=self.n, trials=self.trials, alpha=self.alpha, seed=Seed(seed),
            family=AlternativeFamily.equicorrelation(), b_grid=self.b_grid,
            cov_mode=CovMode.KNOWN_ZERO_MEAN, workers=self.workers)

    def run(self, seed: int):
        return hidim.sim.run_power_curve(self.config(seed))

    def fingerprint(self, points) -> bytes:
        return repr([(p.b, p.trials, p.empirical_power, p.mc_stderr, p.predicted_power,
                      p.skipped) for p in points]).encode()

    def recount(self, seed: int) -> List[int]:
        """Rejections per grid cell, decided on hidim's samples by the
        benchmark's own statistic and threshold."""
        config = self.config(seed)
        m, n = self.m, self.n
        threshold = m * (m - 1) / (2.0 * n) + (m / n) * -ndtri(self.alpha)
        counts = []
        for b in self.b_grid:
            factor = hidim.matrix.cholesky(equicorrelation_cell(b, m, n))
            count = 0
            for trial in range(self.trials):
                x = hidim.generators.sample_gaussian(factor, n, config.seed, trial).values
                g = x.T @ x
                d = np.diag(g)
                t_value = 0.5 * (float(np.sum(g * g / np.outer(d, d))) - m)
                count += t_value > threshold
            counts.append(count)
        return counts

    def check_pass(self, seed: int, points) -> List[str]:
        return check_rejection_counts(points, self.recount(seed))

    def check_run(self, outputs, reference_output) -> List[str]:
        failures = check_identical(self.fingerprint(outputs[0]),
                                   self.fingerprint(reference_output),
                                   "repeat of the first pass")
        rejections = [sum(round(pts[i].empirical_power * pts[i].trials) for pts in outputs)
                      for i in range(len(self.b_grid))]
        total = self.trials * len(outputs)
        failures += check_size_window(rejections[0], total, self.alpha)
        powers = [k / total for k in rejections]
        stderrs = [math.sqrt(p * (1.0 - p) / total) for p in powers]
        return failures + check_monotone(powers, stderrs)

    def report(self, outputs) -> List[str]:
        lines = []
        total = self.trials * len(outputs)
        for i, b in enumerate(self.b_grid):
            power = sum(pts[i].empirical_power for pts in outputs) / len(outputs)
            predicted = outputs[0][i].predicted_power
            lines.append(f"b={b:g}: empirical power {power:.4f} over {total} trials, "
                         f"predicted {predicted:.4f}, |diff| {abs(power - predicted):.4f} "
                         "(reported, not gated)")
        return lines

    def skipped_points(self, outputs) -> int:
        return sum(p.skipped for pts in outputs for p in pts)


class ScaleNull(Workload):
    name = "scale-null"
    workers, traced_passes = 2, 2
    m, n, alpha, trials = 320, 640, 0.05, 100
    trials_per_pass = trials

    def config(self, seed: int, workers: int = 2) -> hidim.sim.SimConfig:
        return hidim.sim.SimConfig(
            m=self.m, n=self.n, trials=self.trials, alpha=self.alpha, seed=Seed(seed),
            cov_mode=CovMode.SAMPLE_CENTERED, workers=workers)

    def warm_up(self, seed: int):
        """A single-worker pass of the first seed: the byte-identity reference."""
        return hidim.sim.run_null(self.config(seed, workers=1))

    def run(self, seed: int):
        return hidim.sim.run_null(self.config(seed))

    def fingerprint(self, report) -> bytes:
        return (report.z_values.tobytes()
                + repr((report.empirical_size, report.ks_statistic)).encode())

    def check_pass(self, seed: int, report) -> List[str]:
        return check_null_pass(report, self.alpha)

    def check_run(self, outputs, reference_output) -> List[str]:
        failures = check_identical(outputs[0].z_values.tobytes(),
                                   reference_output.z_values.tobytes(),
                                   "z-values, 2 workers against 1 worker")
        z = np.concatenate([rep.z_values for rep in outputs])
        return failures + check_null_windows(z, self.m, self.n, self.alpha)

    def report(self, outputs) -> List[str]:
        z = np.concatenate([rep.z_values for rep in outputs])
        mean_z, sd_z = centered_null_z(self.m, self.n)
        return [f"null over {z.size} trials: size {np.mean(z > -ndtri(self.alpha)):.4f}, "
                f"KS {ks_distance(z):.4f}; z mean {z.mean():.4f} (exact {mean_z:.4f}), "
                f"sd {z.std():.4f} (exact {sd_z:.4f})"]

@dataclass(frozen=True)
class VerifyOutput:
    exit_code: int
    text: str
    var_i: tuple


class VerifyAll(Workload):
    name = "verify-all"
    workers, traced_passes = 1, 2
    min_passes = MEDIAN_PASSES
    trials = 2000                         # kernels keep their default 100000 draws
    trials_per_pass = 3 * trials          # var-i (R = I and equi) and e-ii1
    # (family b, m, n) of the exact-variance matrices: the four paper-power
    # cells and one m=60 equicorrelation matrix
    var_i_cases = ((0.0, 40, 80), (1.0, 40, 80), (2.0, 40, 80), (3.0, 40, 80),
                   (2.0, 60, 120))

    def __init__(self):
        self._matrices: Optional[list] = None
        self._reference: Optional[dict] = None

    def argv(self, seed: int) -> List[str]:
        return ["verify", "all", "--seed", str(seed), "--trials", str(self.trials),
                "--workers", "1"]

    def setup_statement(self) -> str:
        return f"hidim.cli.build_parser().parse_args({self.argv(0)!r})"

    def prepare(self) -> None:
        self._matrices = [(equicorrelation_cell(b, m, n), n) for b, m, n in self.var_i_cases]
        self._reference = load_reference()

    def run(self, seed: int) -> VerifyOutput:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = hidim.cli.main(self.argv(seed))
        values = tuple(hidim.moments.var_i_exact(r, n) for r, n in self._matrices)
        return VerifyOutput(code, buffer.getvalue(), values)

    def fingerprint(self, out: VerifyOutput) -> bytes:
        return repr((out.exit_code, out.text, out.var_i)).encode()

    def check_pass(self, seed: int, out: VerifyOutput) -> List[str]:
        reference = [case["value"] for case in self._reference["var_i_exact"]]
        return (check_verify_output(out.exit_code, out.text)
                + check_var_i(out.var_i, reference))

    def check_run(self, outputs, reference_output) -> List[str]:
        failures = check_identical(self.fingerprint(outputs[0]),
                                   self.fingerprint(reference_output),
                                   "repeat of the first pass")
        return failures + check_median_z([signed_z(o.text) for o in outputs])

    def report(self, outputs) -> List[str]:
        largest = max((abs(z) for o in outputs for z in signed_z(o.text).values()),
                      default=math.nan)
        return [f"verify all: exit codes {sorted(set(o.exit_code for o in outputs))} "
                f"over {len(outputs)} passes, largest Monte Carlo |z| {largest:.2f}; "
                "var_i_exact "
                + ", ".join(f"{v:.6g}" for v in outputs[0].var_i)]


WORKLOADS = {cls.name: cls for cls in (PaperPower, ScaleNull, VerifyAll)}
