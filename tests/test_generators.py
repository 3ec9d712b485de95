import numpy as np
import pytest

from hidim import (AlternativeFamily, CorrMatrix, DomainError,
                   NotPositiveSemidefinite, Seed, Unachievable,
                   calibrate_to_theta, cholesky, frobenius_signal,
                   ks_statistic_vs_normal, make_family_matrix,
                   sample_from_matrix, sample_gaussian, standard_normal_block,
                   standard_normal_blocks)
from hidim.generators import _uniform_open

EQUI = AlternativeFamily.equicorrelation()


def test_family_parse():
    assert AlternativeFamily.parse("equicorrelation") == EQUI
    assert AlternativeFamily.parse("sparse-pairs:3") == AlternativeFamily.sparse_pairs(3)
    assert AlternativeFamily.parse("banded:2") == AlternativeFamily.banded(2)
    for bad in ("equicorrelation:1", "sparse-pairs", "banded:x", "diagonal"):
        with pytest.raises(DomainError):
            AlternativeFamily.parse(bad)
    assert AlternativeFamily.parse("sparse-pairs:3").label == "sparse-pairs:3"


def test_seed_validation():
    Seed(0)
    Seed(2 ** 64 - 1)
    for bad in (-1, 2 ** 64):
        with pytest.raises(DomainError):
            Seed(bad)


def test_make_family_examples():
    identity = make_family_matrix(EQUI, 0.0, 5)
    assert np.array_equal(identity.rho, np.eye(5))

    r = make_family_matrix(EQUI, 0.5, 3)
    assert frobenius_signal(r) == pytest.approx(1.224744871391589, abs=1e-12)

    sparse = make_family_matrix(AlternativeFamily.sparse_pairs(1), 0.4, 10)
    off = sparse.rho - np.eye(10)
    assert np.count_nonzero(off) == 2
    assert frobenius_signal(sparse) == pytest.approx(0.4 * np.sqrt(2.0), rel=1e-12)

    banded = make_family_matrix(AlternativeFamily.banded(2), 0.3, 6)
    assert banded.rho[0, 1] == 0.3 and banded.rho[0, 2] == 0.3 and banded.rho[0, 3] == 0.0


def test_make_family_psd_violations():
    with pytest.raises(NotPositiveSemidefinite):
        make_family_matrix(EQUI, -0.5, 3)  # below -1/(m-1)
    with pytest.raises(NotPositiveSemidefinite):
        make_family_matrix(EQUI, 1.0, 4)
    with pytest.raises(NotPositiveSemidefinite):
        make_family_matrix(AlternativeFamily.sparse_pairs(1), 1.0, 4)
    with pytest.raises(NotPositiveSemidefinite):
        make_family_matrix(AlternativeFamily.banded(3), 0.9, 8)
    with pytest.raises(Unachievable):
        make_family_matrix(AlternativeFamily.sparse_pairs(4), 0.2, 6)


def test_calibrate_example():
    r = calibrate_to_theta(EQUI, 2.0, 4, 100)
    assert r.rho[0, 1] == pytest.approx(0.11547005383792515, abs=1e-12)
    assert frobenius_signal(r) == pytest.approx(0.4, rel=1e-9)


def test_calibrate_small_b_continuity():
    r = calibrate_to_theta(EQUI, 1e-9, 6, 50)
    assert np.max(np.abs(r.rho - np.eye(6))) < 1e-9


def test_calibrate_unachievable():
    with pytest.raises(Unachievable):
        calibrate_to_theta(AlternativeFamily.sparse_pairs(1), 50.0, 10, 10)


def test_calibrate_round_trip(rng):
    families = [EQUI, AlternativeFamily.sparse_pairs(2), AlternativeFamily.banded(1)]
    done = 0
    while done < 200:
        family = families[int(rng.integers(0, 3))]
        m = int(rng.integers(6, 40))
        n = int(rng.integers(10, 400))
        b = float(rng.uniform(0.05, 3.0))
        try:
            r = calibrate_to_theta(family, b, m, n)
        except Unachievable:
            continue
        assert frobenius_signal(r) == pytest.approx(b * np.sqrt(m / n), rel=1e-9)
        done += 1


def test_sampling_determinism():
    r = make_family_matrix(EQUI, 0.2, 6)
    factor = cholesky(r)
    a = sample_gaussian(factor, 20, Seed(123), 7)
    b = sample_gaussian(factor, 20, Seed(123), 7)
    assert np.array_equal(a.values, b.values)
    c = sample_gaussian(factor, 20, Seed(123), 8)
    assert not np.array_equal(a.values, c.values)
    d = sample_gaussian(factor, 20, Seed(124), 7)
    assert not np.array_equal(a.values, d.values)


def test_identity_columns_standard_normal():
    data = sample_from_matrix(CorrMatrix.identity(4), 10000, Seed(9), 0)
    var = data.values.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 5.0 / np.sqrt(10000))
    mean = data.values.mean(axis=0)
    assert np.all(np.abs(mean) < 5.0 / np.sqrt(10000))


def test_sample_correlation_consistency():
    r = CorrMatrix(np.array([[1.0, 0.8], [0.8, 1.0]]))
    data = sample_from_matrix(r, 10 ** 5, Seed(2), 0)
    x, y = data.values[:, 0], data.values[:, 1]
    corr = float(np.corrcoef(x, y)[0, 1])
    assert abs(corr - 0.8) < 0.01


def test_empirical_covariance_envelope(rng):
    # loose sub-exponential envelope on max |S - R|
    for _ in range(20):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(50, 400))
        family = (EQUI if rng.integers(0, 2) == 0
                  else AlternativeFamily.banded(1))
        rho = float(rng.uniform(0.0, 0.3))
        r = make_family_matrix(family, rho, m)
        data = sample_from_matrix(r, n, Seed(int(rng.integers(0, 2 ** 32))), 0)
        s = data.values.T @ data.values / n
        assert np.max(np.abs(s - r.rho)) <= 5.0 * np.sqrt(np.log(m) / n)


def test_marginal_ks_below_critical():
    data = sample_from_matrix(CorrMatrix.identity(3), 10 ** 4, Seed(77), 0)
    # 1% critical value of the one-sample KS statistic
    critical = 1.6276 / np.sqrt(10 ** 4)
    for col in range(3):
        assert ks_statistic_vs_normal(data.values[:, col]) < critical


def test_standard_normal_block_row_keying():
    # a row's draws are a pure function of (seed, trial, row): prefix blocks agree
    full = standard_normal_block(Seed(5), 3, 10, 4)
    again = standard_normal_block(Seed(5), 3, 10, 4)
    assert np.array_equal(full, again)


def test_standard_normal_blocks_equal_the_single_trial_blocks():
    # one generator re-keyed per trial gives each trial's own stream
    trials = range(37, 52)
    stack = standard_normal_blocks(Seed(2 ** 64 - 3), trials, 9, 4)
    assert stack.shape == (len(trials), 9, 4)
    for k, trial in enumerate(trials):
        assert stack[k].tobytes() == standard_normal_block(Seed(2 ** 64 - 3), trial,
                                                           9, 4).tobytes()
    with pytest.raises(DomainError):
        standard_normal_blocks(Seed(1), range(-1, 3), 2, 2)


class _FixedPhilox:
    """Stands in for np.random.Philox with a fixed list of raw draws."""

    raw = np.array([0, 2 ** 64 - 1, 2 ** 64 - 1 - 2 ** 11, 2 ** 63], dtype=np.uint64)

    def __init__(self, key):
        pass

    def random_raw(self, count):
        return self.raw[:count]


def test_uniform_open_stays_inside_the_unit_interval(monkeypatch):
    monkeypatch.setattr(np.random, "Philox", _FixedPhilox)
    u = _uniform_open(1, 0, 4)
    assert u[0] == 2.0 ** -54
    # the top 53-bit value would give (2^53 - 1/2) 2^-53, which rounds to 1.0
    assert u[1] == u[2] == 1.0 - 2.0 ** -52
    assert u[3] == 0.5 + 2.0 ** -54
    z = standard_normal_block(Seed(1), 0, 2, 2)
    assert np.all(np.isfinite(z))


def test_uniform_open_bytes_below_the_top():
    raw = np.random.Philox(key=np.array([9, 4], dtype=np.uint64)).random_raw(10000)
    top53 = (raw >> np.uint64(11)).astype(np.float64)
    assert top53.max() < 2.0 ** 53 - 1
    assert np.array_equal(_uniform_open(9, 4, 10000), (top53 + 0.5) * 2.0 ** -53)
