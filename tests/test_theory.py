import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hidim import DomainError, asymptotic_power, normal_cdf, normal_quantile, normal_tail

# Reference CDF values frozen from 50-digit arithmetic.
CDF_REFERENCE = [
    (-8.0, 6.2209605742717841e-16),
    (-5.0, 2.8665157187919391e-07),
    (-1.96, 0.024997895148220434),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.3551463730485278, 0.63876003131233526),
    (1.0, 0.84134474606854295),
    (1.6448536269514722, 0.95),
    (2.0, 0.97724986805182079),
    (3.0, 0.99865010196836991),
    (5.0, 0.99999971334842812),
]


@pytest.mark.parametrize("x,expected", CDF_REFERENCE)
def test_cdf_reference_values(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, abs=1e-14)


def test_cdf_quadrature_oracle():
    # Independent oracle: composite Simpson integration of the density.
    for x in (-3.0, -1.0, 0.25, 1.7, 4.0):
        grid = np.linspace(0.0, x, 20001)
        pdf = np.exp(-grid * grid / 2.0) / np.sqrt(2.0 * np.pi)
        h = grid[1] - grid[0]
        simpson = h / 3.0 * (pdf[0] + pdf[-1] + 4.0 * pdf[1::2].sum() + 2.0 * pdf[2:-1:2].sum())
        assert normal_cdf(x) == pytest.approx(0.5 + simpson, abs=1e-12)


def test_cdf_symmetry_and_monotone():
    xs = np.linspace(-8.0, 8.0, 1601)
    vals = normal_cdf(xs)
    assert np.max(np.abs(vals + normal_cdf(-xs) - 1.0)) <= 1e-12
    assert np.all(np.diff(vals) >= 0.0)
    assert np.allclose(normal_tail(xs), 1.0 - vals, atol=1e-12)


def test_quantile_reference_values():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.05) == pytest.approx(1.6448536269514722, abs=1e-8)
    assert normal_quantile(0.025) == pytest.approx(1.959963984540054, abs=1e-8)


@pytest.mark.parametrize("p", [2.0 ** -53, 1e-20, 1e-6, 0.025, 0.05, 0.3, 0.5 + 2.0 ** -20,
                               0.95, 1.0 - 1e-6, 1.0 - 2.0 ** -53])
def test_quantile_vs_50_digit_oracle(p):
    # the x with tail(x) = p is sqrt(2) erfinv(1 - 2p), at 50 digits
    with mp.workdps(50):
        exact = float(mp.sqrt(2) * mp.erfinv(1 - 2 * mp.mpf(p)))
    assert normal_quantile(p) == pytest.approx(exact, rel=4e-16)


def test_quantile_round_trip():
    ps = np.concatenate([np.geomspace(1e-6, 0.5, 400), 1.0 - np.geomspace(1e-6, 0.5, 400)])
    err = np.abs(normal_tail(normal_quantile(ps)) - ps)
    assert err.max() <= 1e-9


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, np.nan, np.inf, -np.inf,
                                 [0.5, np.nan], [0.5, np.inf], [-np.inf, 0.5]])
def test_quantile_domain(bad):
    with pytest.raises(DomainError):
        normal_quantile(bad)


def test_power_examples():
    assert asymptotic_power(0.05, 0.0) == pytest.approx(0.05, abs=1e-12)
    assert asymptotic_power(0.05, 2.0) == pytest.approx(0.63876003131233526, abs=1e-10)
    assert asymptotic_power(0.05, 6.0) > 0.9999
    assert asymptotic_power(0.3, 0.0) == pytest.approx(0.3, abs=1e-12)
    assert type(asymptotic_power(0.05, 1.0)) is float


def test_power_domain():
    for alpha in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            asymptotic_power(alpha, 1.0)
    with pytest.raises(DomainError, match="b must be nonnegative"):
        asymptotic_power(0.05, -1.0)
    # a NaN fails every comparison, and an infinite b would give a power of 1
    for b in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError, match="b must be finite and nonnegative"):
            asymptotic_power(0.05, b)


# strict monotonicity holds wherever the power is not saturated at 1.0 in
# double precision, so the strategies stay inside that region
@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.01, 0.5), b=st.floats(0.0, 2.5), db=st.floats(0.01, 1.0))
def test_power_increasing_in_b(alpha, b, db):
    assert asymptotic_power(alpha, b + db) > asymptotic_power(alpha, b)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.01, 0.45), da=st.floats(0.01, 0.4), b=st.floats(0.0, 3.0))
def test_power_increasing_in_alpha(alpha, da, b):
    assert asymptotic_power(alpha + da, b) > asymptotic_power(alpha, b)
