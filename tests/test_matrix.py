import json

import numpy as np
import pytest

from hidim import CorrMatrix, NotPositiveSemidefinite, cholesky, frobenius_signal
from conftest import random_corr


def test_constructor_validation():
    with pytest.raises(ValueError):
        CorrMatrix(np.array([[1.0, 0.2], [0.3, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CorrMatrix(np.array([[1.0, 0.2], [0.2, 0.9]]))  # diagonal off
    with pytest.raises(ValueError):
        CorrMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        CorrMatrix(np.ones((2, 3)))


def test_entries_read_only():
    r = CorrMatrix.identity(3)
    with pytest.raises(ValueError):
        r.rho[0, 1] = 0.5


def test_stored_matrix_is_symmetrized_with_a_unit_diagonal_in_any_layout(rng):
    # the stored copy is 0.5 (R + R') with its diagonal set to exactly 1, the
    # same whether the input is C-ordered, Fortran-ordered or a strided view
    a = rng.standard_normal((6, 9))
    cov = a @ a.T
    d = np.sqrt(np.diag(cov))
    x = cov / np.outer(d, d) + np.triu(np.full((6, 6), 1e-14), 1)   # off by rounding
    want = 0.5 * (x + x.T)
    np.fill_diagonal(want, 1.0)
    big = np.zeros((12, 12))
    big[::2, ::2] = x
    for arr in (x, np.asfortranarray(x), big[::2, ::2]):
        got = CorrMatrix(arr).rho
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, got.T) and np.all(np.diag(got) == 1.0)


def test_frobenius_signal_examples():
    assert frobenius_signal(CorrMatrix.identity(7)) == 0.0
    r2 = CorrMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert frobenius_signal(r2) == pytest.approx(0.70710678118654752, abs=1e-12)
    r3 = CorrMatrix(np.full((3, 3), 0.2) + 0.8 * np.eye(3))
    assert frobenius_signal(r3) == pytest.approx(0.48989794855663562, abs=1e-12)


def test_frobenius_signal_squared_identity(rng):
    for _ in range(25):
        r = random_corr(rng, int(rng.integers(2, 30)))
        iu = np.triu_indices(r.m, 1)
        direct = 2.0 * float(np.sum(r.rho[iu] ** 2))
        assert frobenius_signal(r) ** 2 == pytest.approx(direct, rel=1e-12)


def test_cholesky_identity():
    fac = cholesky(CorrMatrix.identity(3))
    assert np.array_equal(fac.lower, np.eye(3))


def test_cholesky_hand_example():
    r = CorrMatrix(np.array([[1.0, 0.6], [0.6, 1.0]]))
    fac = cholesky(r)
    assert np.allclose(fac.lower, np.array([[1.0, 0.0], [0.6, 0.8]]), atol=1e-15)


def test_cholesky_rejects_indefinite():
    r = CorrMatrix(np.array([[1.0, 1.0000001], [1.0000001, 1.0]]))
    with pytest.raises(NotPositiveSemidefinite):
        cholesky(r)


def test_cholesky_rejects_a_singular_matrix():
    # the all-ones matrix is PSD but singular: it has no plain factor, and
    # no sample is drawn from a jittered stand-in for it
    with pytest.raises(NotPositiveSemidefinite):
        cholesky(CorrMatrix(np.ones((4, 4))))


@pytest.mark.parametrize("m", [2, 5, 25, 100, 200])
def test_cholesky_reconstruction(m, rng):
    r = random_corr(rng, m)
    fac = cholesky(r)
    assert np.max(np.abs(fac.lower @ fac.lower.T - r.rho)) <= 1e-9


def test_json_round_trip(rng):
    r = random_corr(rng, 5)
    obj = json.loads(r.to_json())
    assert obj["m"] == 5
    assert np.array_equal(np.array(obj["rho"]), r.rho)
