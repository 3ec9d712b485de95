"""Acceptance suite.

One test per criterion (power-curve cells are parametrized separately);
each prints a PASS line with the measured numbers when it succeeds, so
running with ``pytest tests/test_acceptance.py -v -s`` gives one line per
criterion.  Every tolerance is pinned here, not configurable.
"""

import dataclasses
import functools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from hidim import (AlternativeFamily, CorrMatrix, CovMode, DataMatrix, Seed,
                   SimConfig, calibrate_to_theta, cholesky, decompose,
                   f_partial, make_family_matrix, run_null, run_power_curve,
                   sample_gaussian, statistic_t, term_i, var_i_exact,
                   verify_e_ii1, verify_kernels, verify_var_i)
from hidim.moments import identity_rows
from hidim.cli import main as cli_main
from conftest import martingale_differences, random_corr

from test_moments import GRID_U12, GRID_U3, LAMS_UP_TO_4, fd_partial


def report(line: str) -> None:
    print(f"\n{line}")


# -- criterion 1: exact identities (fast, deterministic) --------------------

def test_c1_identity_battery():
    # the battery hidim verify prints: every closed form of the moment
    # engine against its independent route
    start = time.time()
    rows = identity_rows()
    elapsed = time.time() - start
    assert len(rows) == 12
    failed = [(name, err) for name, _, err in rows if not err <= 1e-12]
    assert not failed, failed
    worst = max(err for _, _, err in rows)
    report(f"PASS criterion 1: {len(rows)} identity gates within 1e-12 "
           f"(worst err {worst:.2e}, {elapsed:.2f}s)")


def test_c1c_partials_vs_finite_differences():
    mp.mp.dps = 50
    h = mp.mpf("1e-6")  # stencil truncation ~2.5e-8 worst case on this grid
    worst = 0.0
    for u1s in GRID_U12:
        for u2s in GRID_U12:
            for u3s in GRID_U3:
                u1, u2, u3 = mp.mpf(u1s), mp.mpf(u2s), mp.mpf(u3s)
                for lam in LAMS_UP_TO_4:
                    got = f_partial(lam, float(u1), float(u2), float(u3))
                    want = float(fd_partial(lam, u1, u2, u3, h))
                    worst = max(worst, abs(got - want))
    assert worst <= 1e-6
    report(f"PASS criterion 1c: partial derivatives vs finite differences "
           f"(worst abs err {worst:.2e})")


def test_c1e_decomposition_identity():
    rng = np.random.default_rng(303)
    worst_residual = 0.0
    worst_martingale = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(2, 201))
        r = random_corr(rng, m)
        data = DataMatrix(rng.standard_normal((n, m)))
        dec = decompose(data, r)
        t = statistic_t(data, CovMode.KNOWN_ZERO_MEAN)
        worst_residual = max(worst_residual, dec.residual / max(1.0, abs(t)))
        y_sum = float(martingale_differences(data, r).sum())
        ti = term_i(data, r)
        worst_martingale = max(worst_martingale,
                               abs(y_sum - ti) / max(1e-12, abs(ti)))
    assert worst_residual <= 1e-9
    assert worst_martingale <= 1e-12
    report(f"PASS criterion 1e: decomposition identity (worst rel residual "
           f"{worst_residual:.2e}), martingale sum (worst {worst_martingale:.2e})")


# -- criterion 2: Monte Carlo oracle gates ----------------------------------

def test_c2a_var_i():
    identity = CorrMatrix.identity(5)
    chk_null = verify_var_i(identity, 30, 20000, Seed(99))
    equi = make_family_matrix(AlternativeFamily.equicorrelation(), 0.2, 5)
    chk_alt = verify_var_i(equi, 30, 20000, Seed(100))
    assert abs(chk_null.z_score) <= 3.0
    assert abs(chk_alt.z_score) <= 3.0
    report(f"PASS criterion 2a: Var(I) MC vs exact, |z| = "
           f"{abs(chk_null.z_score):.2f} (R=I), {abs(chk_alt.z_score):.2f} (equi 0.2)")


def test_c2b_e_ii1():
    ii1, e_i = verify_e_ii1(CorrMatrix.identity(4), 20, 20000, Seed(101))
    assert abs(ii1.z_score) <= 3.0
    assert abs(e_i.z_score) <= 3.0
    report(f"PASS criterion 2b: E[II1] |z| = {abs(ii1.z_score):.2f}, "
           f"E[I] |z| = {abs(e_i.z_score):.2f}")


@pytest.mark.parametrize("rho,n", [(0.0, 10), (0.5, 10), (0.7, 6)])
def test_c2c_kernel_expectations(rho, n):
    checks = verify_kernels(rho, n, 100000, Seed(7))
    zmax = max(abs(c.z_score) for c in checks)
    assert all(abs(c.z_score) <= 3.0 for c in checks), [c.name for c in checks]
    report(f"PASS criterion 2c (rho={rho}, n={n}): all 5 kernel means, "
           f"max |z| = {zmax:.2f}")


# -- criterion 3: null calibration ------------------------------------------

def test_c3_null_calibration():
    config = SimConfig(m=50, n=100, trials=5000, alpha=0.05, seed=Seed(12345))
    rep = run_null(config)
    assert 0.03 <= rep.empirical_size <= 0.07
    assert rep.ks_statistic <= 0.05
    report(f"PASS criterion 3: null size {rep.empirical_size:.4f} in [0.03, 0.07], "
           f"KS {rep.ks_statistic:.4f} <= 0.05")


# -- criterion 4: power against the asymptotic prediction --------------------
#
# tail(z_alpha - b^2/2) is the power in the limit m, n -> infinity with m/n
# fixed.  At m=40, n=80 the same-sample term II, which the limit drops, still
# widens the spread of T enough to pull the power at b=2 and b=3 about 0.08
# below the limit (test_c4_gap_is_the_same_sample_term).  Those cells check
# the limit at two sizes with m/n fixed: the 0.08 window holds at m=80,
# n=160, and the gap is smaller there than at m=40 by more than the combined
# Monte Carlo standard error.

POWER_WINDOW = 0.08
POWER_CONFIG = SimConfig(m=40, n=80, trials=4000, alpha=0.05, seed=Seed(2024),
                         family=AlternativeFamily.equicorrelation(),
                         b_grid=(1.0, 2.0, 3.0))
LIMIT_CONFIG = dataclasses.replace(POWER_CONFIG, m=80, n=160, trials=2000,
                                   b_grid=(2.0, 3.0))


@functools.cache
def _power_points(config: SimConfig) -> dict:
    return {point.b: point for point in run_power_curve(config)}


def _gap(point) -> float:
    return abs(point.empirical_power - point.predicted_power)


def _size_text(point) -> str:
    return (f"m={point.m}/n={point.n} empirical {point.empirical_power:.4f} "
            f"gap {_gap(point):.4f} (mc stderr {point.mc_stderr:.4f})")


@pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
def test_c4_power_agreement(b):
    small = _power_points(POWER_CONFIG)[b]
    head = (f"criterion 4 (b={b}): predicted {small.predicted_power:.4f}; "
            f"{_size_text(small)}")
    if b not in LIMIT_CONFIG.b_grid:
        passed = _gap(small) <= POWER_WINDOW
        line = f"{head}; window {POWER_WINDOW}"
    else:
        large = _power_points(LIMIT_CONFIG)[b]
        shrink = _gap(small) - _gap(large)
        shrink_se = math.hypot(small.mc_stderr, large.mc_stderr)
        passed = _gap(large) <= POWER_WINDOW and shrink > shrink_se
        line = (f"{head}; {_size_text(large)}; window {POWER_WINDOW} at "
                f"m={large.m} (margin {(POWER_WINDOW - _gap(large)) / large.mc_stderr:.1f} "
                f"se); gap shrinks by {shrink:.4f} against combined se "
                f"{shrink_se:.4f} (margin {(shrink - shrink_se) / shrink_se:.1f} se)")
    report(("PASS " if passed else "FAIL ") + line)
    assert passed, line


def test_c4_power_monotone():
    points = _power_points(POWER_CONFIG)
    ordered = [points[b] for b in POWER_CONFIG.b_grid]
    for low, high in zip(ordered, ordered[1:]):
        slack = 2.0 * math.hypot(low.mc_stderr, high.mc_stderr)
        assert high.empirical_power >= low.empirical_power - slack
    values = [point.empirical_power for point in ordered]
    report(f"PASS criterion 4 (monotonicity): empirical power nondecreasing in b "
           f"({values[0]:.3f} <= {values[1]:.3f} <= {values[2]:.3f})")


def _scaled_sd(values: np.ndarray, scale: float):
    """scale * sample sd and its standard error: the fourth-moment standard
    error of a sample variance over 2 sd (the delta method)."""
    var = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - values.mean()) ** 4))
    sd = math.sqrt(var)
    return scale * sd, scale * math.sqrt((m4 - var * var) / values.size) / (2.0 * sd)


def _term_sds(r: CorrMatrix, n: int, trials: int):
    """(sd, se) of terms I and II times n/m over the c4 streams."""
    factor = cholesky(r)
    terms = np.array([
        (dec.term_i, dec.term_ii)
        for dec in (decompose(sample_gaussian(factor, n, POWER_CONFIG.seed, trial), r)
                    for trial in range(trials))])
    return _scaled_sd(terms[:, 0], n / r.m), _scaled_sd(terms[:, 1], n / r.m)


def test_c4_gap_is_the_same_sample_term():
    trials, null_multiple, b = 400, 3.0, 2.0
    small, large = POWER_CONFIG, LIMIT_CONFIG
    r_small = calibrate_to_theta(small.family, b, small.m, small.n)
    r_large = calibrate_to_theta(large.family, b, large.m, large.n)
    (sd_i, se_i), (sd_ii, se_ii) = _term_sds(r_small, small.n, trials)
    _, (sd_ii_null, se_ii_null) = _term_sds(CorrMatrix.identity(small.m), small.n, trials)
    (sd_i_large, se_i_large), (sd_ii_large, se_ii_large) = _term_sds(
        r_large, large.n, trials)
    exact_i = math.sqrt(var_i_exact(r_small, small.n)) * small.n / small.m
    exact_i_large = math.sqrt(var_i_exact(r_large, large.n)) * large.n / large.m
    z_i = (sd_i - exact_i) / se_i
    z_i_large = (sd_i_large - exact_i_large) / se_i_large
    excess = sd_ii - null_multiple * sd_ii_null
    excess_se = math.hypot(se_ii, null_multiple * se_ii_null)
    shrink = sd_ii - sd_ii_large
    shrink_se = math.hypot(se_ii, se_ii_large)
    assert abs(z_i) <= 3.0
    assert abs(z_i_large) <= 3.0
    assert excess > excess_se
    assert shrink > shrink_se
    report(f"PASS criterion 4 (cause of the gap, b={b}, sd x n/m over {trials} "
           f"trials): I {sd_i:.3f} vs exact {exact_i:.3f} (|z| = {abs(z_i):.2f}) at "
           f"m={small.m}, {sd_i_large:.3f} vs {exact_i_large:.3f} "
           f"(|z| = {abs(z_i_large):.2f}) at m={large.m}; "
           f"II at m={small.m} {sd_ii:.3f} > {null_multiple:g} x null "
           f"{sd_ii_null:.3f} (margin {(excess - excess_se) / excess_se:.1f} se); "
           f"II at m={large.m} {sd_ii_large:.3f} (smaller, margin "
           f"{(shrink - shrink_se) / shrink_se:.1f} se)")


# -- criterion 4, exact: the finite-n power at m = 2 --------------------------
#
# At m = 2, T is one squared correlation r^2, and the rule rejects iff
# r^2 > (1 + 2 z_alpha)/n.  With k = n degrees of freedom in the zero-mean
# convention and k = n - 1 in the centered one, r is distributed as a sample
# correlation on N = k + 1 rows, whose density is Hotelling's.  At m = 2 the
# equicorrelation signal is sqrt(2) rho, so b calibrates to rho = b/sqrt(n).
# The power is then known exactly at every n, and each cell is held to it.

EXACT_TRIALS = 40_000
EXACT_SIZES = (20, 60)
EXACT_B = (0.0, 1.0, 2.0, 3.0)


def _exact_rows(n: int, mode: CovMode) -> int:
    """N = k + 1, the rows of the centered correlation distributed as r."""
    return n + 1 if mode is CovMode.KNOWN_ZERO_MEAN else n


def exact_power_m2(n: int, b: float, alpha: float, rows: int) -> float:
    """P(r^2 > (1 + 2 z_alpha)/n) for the sample correlation r on ``rows``
    rows at rho = b/sqrt(n), from the density of r (Fisher 1915) in
    Hotelling's (1953) hypergeometric form."""
    rho = b / math.sqrt(n)
    cut = math.sqrt((1.0 + 2.0 * special.ndtri(1.0 - alpha)) / n)
    log_scale = (math.log(rows - 2) + special.gammaln(rows - 1) - special.gammaln(rows - 0.5)
                 - 0.5 * math.log(2.0 * math.pi) + 0.5 * (rows - 1) * math.log1p(-rho * rho))

    def density(r):
        return (math.exp(log_scale + 0.5 * (rows - 4) * math.log1p(-r * r)
                         - (rows - 1.5) * math.log1p(-rho * r))
                * special.hyp2f1(0.5, 0.5, rows - 0.5, (1.0 + rho * r) / 2.0))

    return integrate.quad(density, cut, 1.0)[0] + integrate.quad(density, -1.0, -cut)[0]


@functools.cache
def _exact_cells() -> tuple:
    """(n, mode, b, empirical power) of each m = 2 cell: one power run per
    size and convention."""
    cells = []
    for n in EXACT_SIZES:
        for mode in CovMode:
            config = SimConfig(m=2, n=n, trials=EXACT_TRIALS, alpha=0.05, seed=Seed(11),
                               b_grid=EXACT_B, cov_mode=mode)
            cells += [(n, mode, point.b, point.empirical_power)
                      for point in run_power_curve(config)]
    return tuple(cells)


def _exact_z_scores(rows) -> list:
    """Each cell's z score against the exact power on ``rows(n, mode)`` rows."""
    scores = []
    for n, mode, b, empirical in _exact_cells():
        exact = exact_power_m2(n, b, 0.05, rows(n, mode))
        scores.append((empirical - exact) / math.sqrt(exact * (1.0 - exact) / EXACT_TRIALS))
    return scores


def test_c4_exact_power_at_m2():
    # at b = 0, r^2 is Beta(1/2, (k - 1)/2) with k = rows - 1
    for n in EXACT_SIZES:
        for mode in CovMode:
            rows = _exact_rows(n, mode)
            cut = (1.0 + 2.0 * special.ndtri(0.95)) / n
            assert exact_power_m2(n, 0.0, 0.05, rows) == pytest.approx(
                special.betaincc(0.5, (rows - 2) / 2, cut), rel=1e-9)
    worst = max(map(abs, _exact_z_scores(_exact_rows)))
    assert worst <= 3.0
    report(f"PASS criterion 4 (exact, m=2): {len(_exact_cells())} cells at n in "
           f"{EXACT_SIZES}, both conventions, max |z| = {worst:.2f} <= 3 over "
           f"{EXACT_TRIALS} trials each")


def test_c4_exact_power_sees_one_row_too_few():
    # the mutant oracle gives zero-mean data N = n rows, as if it were centered
    worst = max(map(abs, _exact_z_scores(lambda n, mode: n)))
    assert worst > 3.0


# -- criterion 5: determinism across worker counts ---------------------------

def test_c5_worker_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    args = ["power", "--m", "12", "--n", "40", "--trials", "300", "--alpha", "0.05",
            "--seed", "77", "--b-grid", "0,1,2", "--family", "equicorrelation"]
    assert cli_main(args + ["--out", str(out1), "--workers", "1"]) == 0
    assert cli_main(args + ["--out", str(out2), "--workers", "4"]) == 0
    z1, z2 = tmp_path / "z1.csv", tmp_path / "z2.csv"
    null_args = ["null", "--m", "10", "--n", "30", "--trials", "200", "--seed", "5"]
    assert cli_main(null_args + ["--workers", "1", "--out", str(tmp_path / "n1.json"),
                                 "--z-out", str(z1)]) == 0
    assert cli_main(null_args + ["--workers", "3", "--out", str(tmp_path / "n2.json"),
                                 "--z-out", str(z2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert z1.read_bytes() == z2.read_bytes()
    report("PASS criterion 5: byte-identical outputs across worker counts")
