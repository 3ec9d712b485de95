import math
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
from scipy.special import ndtri

from hidim import (AlternativeFamily, CorrMatrix, DomainError,
                   NotPositiveSemidefinite, Seed, SimConfig, Unachievable,
                   calibrate_to_theta, cholesky, frobenius_signal,
                   ks_statistic_vs_normal, make_family_matrix,
                   sample_from_matrix, sample_gaussian, standard_normal_block,
                   standard_normal_blocks)
from hidim.generators import _philox_uniforms, _uniform_open

EQUI = AlternativeFamily.equicorrelation()


def test_family_parse():
    assert AlternativeFamily.parse("equicorrelation") == EQUI
    assert AlternativeFamily.parse("sparse-pairs:3") == AlternativeFamily.sparse_pairs(3)
    assert AlternativeFamily.parse("banded:2") == AlternativeFamily.banded(2)
    for bad in ("equicorrelation:1", "sparse-pairs", "banded:x", "diagonal"):
        with pytest.raises(DomainError):
            AlternativeFamily.parse(bad)
    assert AlternativeFamily.parse("sparse-pairs:3").label == "sparse-pairs:3"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["equicorrelation", "sparse_pairs", "banded"]),
       k=st.integers(1, 50))
def test_a_family_is_the_parse_of_its_label(kind, k):
    family = AlternativeFamily(kind, None if kind == "equicorrelation" else k)
    assert AlternativeFamily.parse(family.label) == family
    config = SimConfig(m=6, n=25, trials=100, alpha=0.05, seed=Seed(1), family=family)
    assert SimConfig.from_json_obj(config.to_json_obj()) == config


@pytest.mark.parametrize("kind, k", [
    ("equicorrelation", 5), ("equicorrelation", 0), ("banded", None), ("sparse_pairs", None),
    ("banded", 0), ("sparse_pairs", 0), ("banded", -2), ("banded", 1.0), ("banded", True),
    ("diagonal", None)])
def test_a_family_takes_k_exactly_when_its_kind_does(kind, k):
    with pytest.raises(DomainError):
        AlternativeFamily(kind, k)


def test_seed_validation():
    Seed(0)
    Seed(2 ** 64 - 1)
    for bad in (-1, 2 ** 64):
        with pytest.raises(DomainError):
            Seed(bad)


def test_seed_takes_only_integers():
    assert Seed(np.uint64(5)).master == 5 and type(Seed(np.uint64(5)).master) is int
    assert Seed(2 ** 64 - 1).master == 2 ** 64 - 1
    for bad in (1.7, 1.0, True, "3", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
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


FAMILIES = [EQUI] + [make(k) for k in range(1, 7)
                     for make in (AlternativeFamily.sparse_pairs, AlternativeFamily.banded)]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.label)
def test_family_pattern_builds_the_matrix_and_its_signal(family):
    for m in range(2, 13):
        if family.kind == "sparse_pairs" and 2 * family.k > m:
            with pytest.raises(Unachievable, match=f"need m >= {2 * family.k}"):
                family.pattern(m)
            with pytest.raises(Unachievable):
                family.signal_coefficient(m)
            continue
        p = family.pattern(m)
        assert p.shape == (m, m) and np.array_equal(p, p.T)
        assert set(np.unique(p)) <= {0.0, 1.0} and not p.diagonal().any()
        assert family.signal_coefficient(m) == np.sqrt(np.sum(p * p))
        # |rho| < 1 / (m - 1) stays inside the PSD range of every family: a
        # row of R - I has at most m - 1 entries, so R is diagonally dominant
        for rho in (0.0, 1e-300, -1e-300, *np.linspace(-0.99, 0.99, 23) / (m - 1)):
            r = make_family_matrix(family, rho, m)
            assert r.rho.tobytes() == (np.eye(m) + rho * p).tobytes()
        for rho in (0.9 / (m - 1), -0.5 / (m - 1)):
            r = make_family_matrix(family, rho, m)
            assert family.signal_coefficient(m) * abs(rho) == pytest.approx(
                frobenius_signal(r), rel=1e-14)


def test_calibrate_example():
    r = calibrate_to_theta(EQUI, 2.0, 4, 100)
    assert r.rho[0, 1] == pytest.approx(0.11547005383792515, abs=1e-12)
    assert frobenius_signal(r) == pytest.approx(0.4, rel=1e-9)


def test_calibrate_small_b_continuity():
    r = calibrate_to_theta(EQUI, 1e-9, 6, 50)
    assert np.max(np.abs(r.rho - np.eye(6))) < 1e-9


def test_calibrate_rejects_a_set_sign_bit():
    # -0.0 passes b >= 0, and its matrix would carry -0.0 entries
    for b in (-1.0, -0.0):
        with pytest.raises(DomainError, match="b must be nonnegative"):
            calibrate_to_theta(EQUI, b, 3, 10)


@pytest.mark.parametrize("family", ["equicorrelation", "banded:2", "sparse-pairs:1"])
@pytest.mark.parametrize("b", [math.nan, math.inf])
def test_calibrate_rejects_a_non_finite_b(family, b):
    # one message whatever the family, not the first check b reaches inside it
    with pytest.raises(DomainError, match="^b must be finite and nonnegative$"):
        calibrate_to_theta(AlternativeFamily.parse(family), b, 4, 10)


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
    for master in (2 ** 64 - 3, 2 ** 64 - 1):
        stack = standard_normal_blocks(Seed(master), trials, 9, 4)
        assert stack.shape == (len(trials), 9, 4)
        for k, trial in enumerate(trials):
            assert stack[k].tobytes() == standard_normal_block(Seed(master), trial,
                                                               9, 4).tobytes()
    with pytest.raises(DomainError):
        standard_normal_blocks(Seed(1), range(-1, 3), 2, 2)


def test_a_trial_index_is_a_64_bit_word():
    top = 2 ** 64 - 1
    assert standard_normal_blocks(Seed(1), range(top - 1, top + 1), 2, 2).shape == (2, 2, 2)
    for trials in (range(top - 1, top + 2), range(2 ** 64, 2 ** 64 + 1)):
        with pytest.raises(DomainError, match="trial index must fit in an unsigned 64-bit"):
            standard_normal_blocks(Seed(1), trials, 2, 2)


def _fixed_doubles(ks):
    """Stands in for np.random.Generator: fills an output row with the
    doubles k 2^-53 that Generator.random makes of raw draws whose top 53
    bits are ks (numpy's map, held to the raw words by
    test_draw_equals_the_raw_word_map)."""

    class FixedDoubles:
        def __init__(self, bits):
            pass

        def random(self, out):
            out[:] = np.array(ks[:out.size], dtype=np.float64) * 2.0 ** -53
            return out

    return FixedDoubles


def test_uniform_open_stays_inside_the_unit_interval(monkeypatch):
    monkeypatch.setattr(np.random, "Generator",
                        _fixed_doubles([0, 2 ** 53 - 1, 2 ** 53 - 2, 2 ** 52]))
    u = _uniform_open(1, 0, 4)
    assert u[0] == 2.0 ** -54
    # the top 53-bit value would give (2^53 - 1/2) 2^-53, which rounds to 1.0
    assert u[1] == u[2] == 1.0 - 2.0 ** -52
    assert u[3] == 0.5 + 2.0 ** -54
    z = standard_normal_block(Seed(1), 0, 2, 2)
    assert np.all(np.isfinite(z))


def test_uniform_open_bytes_below_the_top(monkeypatch):
    raw = np.random.Philox(key=np.array([9, 4], dtype=np.uint64)).random_raw(10000)
    top53 = (raw >> np.uint64(11)).astype(np.float64)
    assert top53.max() < 2.0 ** 53 - 1
    assert np.array_equal(_uniform_open(9, 4, 10000), (top53 + 0.5) * 2.0 ** -53)
    # around 2^52, where the float64 spacing reaches 1, and at the top
    ks = [0, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1]
    monkeypatch.setattr(np.random, "Generator", _fixed_doubles(ks))
    u = _philox_uniforms(9, range(4, 6), len(ks))
    expected = [(min(k, 2 ** 53 - 2) + 0.5) * 2.0 ** -53 for k in ks]
    assert u.tolist() == [expected, expected]
    assert u[0, 1] < u[0, 2] < u[0, 3] < 1.0 and u[0, 4] == u[0, 5]


def test_uniform_open_from_an_offset_is_a_slice_of_the_stream():
    full = _uniform_open(9, 4, 1000)
    for start in (0, 4, 8, 100, 996, 1000):
        assert np.array_equal(_uniform_open(9, 4, 1000 - start, start), full[start:])
    assert np.array_equal(_uniform_open(9, 4, 10, 400), full[400:410])
    # the offset applies to every stream, not only the first
    u = _philox_uniforms(9, range(3, 7), 300)
    assert np.array_equal(_philox_uniforms(9, range(3, 7), 200, 100), u[:, 100:])
    for start in (1, 2, 3, 6, -4, -1):
        with pytest.raises(DomainError, match="multiple of 4"):
            _uniform_open(9, 4, 10, start)


def _raw_word_uniforms(master, stream, count, start=0):
    """(min(k, 2^53 - 2) + 1/2) 2^-53 of the top 53 bits k of Philox's raw
    words start .. start+count-1 of stream (master, stream)."""
    key = np.array([master, stream], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(start + count)[start:]
    k = np.minimum(raw >> np.uint64(11), np.uint64(2 ** 53 - 2))
    return (k.astype(np.float64) + 0.5) * 2.0 ** -53


@pytest.mark.parametrize("master", [0, 5, 2 ** 64 - 1])
def test_draw_equals_the_raw_word_map(master):
    # the sampled bytes, rebuilt from numpy's raw words outside hidim
    for trials, rows, cols in ((range(1), 640, 320), (range(6, 9), 640, 320),
                               (range(1), 1, 150), (range(6, 9), 1, 150),
                               (range(344), 1, 150)):
        want = np.stack([ndtri(_raw_word_uniforms(master, t, rows * cols))
                         for t in trials]).reshape(len(trials), rows, cols)
        assert standard_normal_blocks(Seed(master), trials, rows, cols).tobytes() == \
            want.tobytes()
    for start in (0, 4, 400):
        assert _uniform_open(master, 3, 1000, start).tobytes() == \
            _raw_word_uniforms(master, 3, 1000, start).tobytes()


def test_draw_holds_one_array():
    # the normals overwrite the uniforms in the output: no staging array
    standard_normal_block(Seed(1), 0, 640, 320)
    tracemalloc.start()
    try:
        z = standard_normal_block(Seed(1), 0, 640, 320)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.nbytes == 640 * 320 * 8
    assert peak <= 1.1 * z.nbytes
