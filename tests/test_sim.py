import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from hidim import (AlternativeFamily, ConfigError, CorrMatrix, CovMode,
                   DomainError, MomentCheck, Seed, SimConfig, Unachievable,
                   calibrate_to_theta, cholesky, decompose, make_family_matrix,
                   normal_quantile, run_null, run_power_curve, sample_gaussian,
                   statistic_t, term_i, verify_e_ii1, verify_kernels,
                   verify_var_i, write_power_csv)
from hidim import sim
from hidim import theory
from conftest import strict_json

EQUI = AlternativeFamily.equicorrelation()


def small_config(**overrides):
    base = dict(m=8, n=30, trials=200, alpha=0.05, seed=Seed(3), family=EQUI,
                b_grid=(), cov_mode=CovMode.KNOWN_ZERO_MEAN, workers=1)
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=99).validate()
    with pytest.raises(ConfigError):
        small_config(b_grid=(2.0, 1.0)).validate()
    with pytest.raises(ConfigError):
        small_config(alpha=1.5).validate()
    with pytest.raises(ConfigError):
        small_config(workers=0).validate()
    # a NaN fails every comparison, so it passes a plain sign test and the sort test
    for b in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            small_config(b_grid=(0.0, b)).validate()
    # -0.0 passes 0.0 <= b, but its sign bit is set
    with pytest.raises(ConfigError, match="^b must be nonnegative$"):
        small_config(b_grid=(-0.0,))
    # a centered covariance needs two samples; the zero-mean one takes one
    with pytest.raises(ConfigError, match="n >= 2"):
        small_config(n=1, cov_mode=CovMode.SAMPLE_CENTERED)
    small_config(n=1).validate()
    small_config(n=2, cov_mode=CovMode.SAMPLE_CENTERED).validate()
    small_config().validate()


def test_config_json_round_trip():
    cfg = small_config(b_grid=(0.0, 1.5), family=AlternativeFamily.sparse_pairs(2))
    back = SimConfig.from_json_obj(json.loads(json.dumps(cfg.to_json_obj())))
    assert back == cfg


def test_config_rejects_unknown_and_missing_keys():
    obj = small_config().to_json_obj()
    obj["trails"] = 500
    with pytest.raises(ConfigError, match="trails"):
        SimConfig.from_json_obj(obj)
    obj = small_config().to_json_obj()
    del obj["trials"]
    with pytest.raises(ConfigError, match="trials"):
        SimConfig.from_json_obj(obj)
    # each value of the wrong type is named with its field, none is coerced: a
    # seed, family or cov mode by its JSON type, any other field by validate
    for key, value, message in (
            ("m", 6.9, "m must be an integer, got 6.9"),
            ("n", "25", "n must be an integer, got '25'"),
            ("trials", 120.5, "trials must be an integer, got 120.5"),
            ("seed", True, "config key 'seed' must be an integer, got true"),
            ("workers", 1.7, "workers must be an integer, got 1.7"),
            ("alpha", "0.05", "alpha must be a real number, got '0.05'"),
            ("b_grid", "0,1", "b_grid must be a tuple or list, got '0,1'"),
            ("m", None, "m must be an integer, got None"),
            ("b_grid", [0.0, "1"], "b must be a real number, got '1'"),
            ("family", 3, "config key 'family' must be a string, got 3"),
            ("cov_mode", None, "config key 'cov_mode' must be a string, got null")):
        obj = {**small_config().to_json_obj(), key: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SimConfig.from_json_obj(obj)
    with pytest.raises(ConfigError, match="JSON object"):
        SimConfig.from_json_obj([["m", 8]])


def test_config_missing_optional_keys_take_the_defaults():
    obj = {"m": 8, "n": 30, "trials": 200, "alpha": 0.05, "seed": 3}
    assert SimConfig.from_json_obj(obj) == SimConfig(m=8, n=30, trials=200, alpha=0.05,
                                                     seed=Seed(3))


def test_config_is_validated_when_built():
    with pytest.raises(ConfigError, match="^trials must be an integer >= 100, got 50$"):
        SimConfig(m=8, n=30, trials=50, alpha=0.05, seed=Seed(3))
    with pytest.raises(ConfigError, match="^trials must be an integer >= 100, got 50$"):
        SimConfig.from_json_obj({**small_config().to_json_obj(), "trials": 50})


def test_config_rejects_values_of_the_wrong_python_type():
    # the constructor checks types itself, not only from_json_obj, so a float
    # m cannot reach run_null and fail there, and a seed, family or cov mode
    # given as its JSON value is not taken ("zero-mean" would run centered)
    for key, value, message in (
            ("m", 6.9, "m must be an integer, got 6.9"),
            ("n", 30.0, "n must be an integer, got 30.0"),
            ("trials", True, "trials must be an integer, got True"),
            ("workers", 1.5, "workers must be an integer, got 1.5"),
            ("alpha", "0.05", "alpha must be a real number, got '0.05'"),
            ("b_grid", (0.0, "1"), "b must be a real number, got '1'"),
            ("seed", 1, "seed must be of type Seed, got 1"),
            ("family", "banded:2", "family must be of type AlternativeFamily, got 'banded:2'"),
            ("cov_mode", "zero-mean", "cov_mode must be of type CovMode, got 'zero-mean'"),
            ("cov_mode", "centered", "cov_mode must be of type CovMode, got 'centered'")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(**{key: value})
    cfg = small_config(alpha=np.float64(0.05), b_grid=(0, 1.5))
    assert (cfg.alpha, cfg.b_grid) == (0.05, (0.0, 1.5))
    assert type(cfg.alpha) is float and type(cfg.b_grid[0]) is float


def test_run_null_basics():
    report = run_null(small_config(trials=150))
    assert 0.0 <= report.empirical_size <= 1.0
    assert 0.0 <= report.ks_statistic <= 1.0
    assert report.z_values.shape == (150,)
    obj = report.to_json_obj()
    assert SimConfig.from_json_obj(obj["config"]) == report.config


@pytest.mark.parametrize("mode", list(CovMode), ids=lambda mode: mode.value)
def test_run_null_worker_determinism(mode):
    base = run_null(small_config(trials=120, workers=1, cov_mode=mode))
    threaded = run_null(small_config(trials=120, workers=3, cov_mode=mode))
    assert np.array_equal(base.z_values, threaded.z_values)
    assert base.empirical_size == threaded.empirical_size
    assert base.ks_statistic == threaded.ks_statistic


def test_run_null_rejects_bad_config():
    with pytest.raises(ConfigError):
        run_null(small_config(trials=50))


def test_power_curve_b0_matches_alpha():
    cfg = small_config(m=10, n=40, trials=600, b_grid=(0.0,))
    point = run_power_curve(cfg)[0]
    null = run_null(small_config(m=10, n=40, trials=600))
    combined = np.sqrt(point.mc_stderr ** 2 + 0.05 * 0.95 / 600 + 1e-12)
    assert abs(point.empirical_power - null.empirical_size) <= 3.0 * max(combined, 0.01)
    assert point.predicted_power == pytest.approx(0.05, abs=1e-12)


def test_power_curve_monotone_and_skip():
    cfg = small_config(m=10, n=40, trials=400,
                       family=AlternativeFamily.sparse_pairs(1),
                       b_grid=(0.5, 2.0, 50.0))
    points = run_power_curve(cfg)
    assert points[2].skipped and points[2].empirical_power is None
    live = points[:2]
    assert all(not p.skipped for p in live)
    slack = 2.0 * np.sqrt(sum(p.mc_stderr ** 2 for p in live))
    assert live[1].empirical_power >= live[0].empirical_power - slack


def test_power_curve_worker_determinism():
    cfg1 = small_config(m=6, n=25, trials=150, b_grid=(0.0, 1.0), workers=1)
    cfg2 = small_config(m=6, n=25, trials=150, b_grid=(0.0, 1.0), workers=4)
    p1, p2 = run_power_curve(cfg1), run_power_curve(cfg2)
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_power_csv(p1, buf1)
    write_power_csv(p2, buf2)
    assert buf1.getvalue() == buf2.getvalue()


@pytest.mark.parametrize("mode", [CovMode.KNOWN_ZERO_MEAN, CovMode.SAMPLE_CENTERED])
def test_power_grid_matches_independent_recount(mode):
    # one draw per trial feeds every cell; recount each (b, trial) on its own
    family = AlternativeFamily.sparse_pairs(1)
    cfg = small_config(m=6, n=25, trials=120, family=family,
                       b_grid=(0.0, 1.0, 2.0, 2.0, 50.0), cov_mode=mode)
    points = run_power_curve(cfg)
    m, n = cfg.m, cfg.n
    threshold = m * (m - 1) / (2.0 * n) + (m / n) * normal_quantile(cfg.alpha)
    for point, b in zip(points, cfg.b_grid):
        try:
            r = (CorrMatrix.identity(m) if b == 0.0
                 else calibrate_to_theta(family, b, m, n))
        except Unachievable:
            assert point.skipped and point.empirical_power is None
            continue
        factor = cholesky(r)
        count = sum(statistic_t(sample_gaussian(factor, n, cfg.seed, trial), mode)
                    > threshold for trial in range(cfg.trials))
        assert not point.skipped
        assert point.empirical_power * cfg.trials == count
    assert points[-1].skipped
    buf1, buf3 = io.StringIO(), io.StringIO()
    write_power_csv(points, buf1)
    write_power_csv(run_power_curve(dataclasses.replace(cfg, workers=3)), buf3)
    assert buf1.getvalue() == buf3.getvalue()


@pytest.mark.parametrize("mode", [CovMode.KNOWN_ZERO_MEAN, CovMode.SAMPLE_CENTERED])
def test_power_csv_bytes_do_not_depend_on_chunking(monkeypatch, mode):
    # 1-trial chunks, the default chunks and one chunk of all 120 trials, each
    # at 1, 2 and 3 workers; b = 60 is unachievable at m=6/n=25
    cfg = small_config(m=6, n=25, trials=120, b_grid=(0.0, 1.0, 3.0, 60.0), cov_mode=mode)
    blocks = sim._generators.standard_normal_blocks
    texts = set()
    for chunk_bytes, sizes in ((1, {1}), (sim._CHUNK_BYTES, None), (1 << 40, {120})):
        monkeypatch.setattr(sim, "_CHUNK_BYTES", chunk_bytes)
        for workers in (1, 2, 3):
            rows = []

            def recording(seed, chunk, *shape):
                rows.append(len(chunk))
                return blocks(seed, chunk, *shape)

            monkeypatch.setattr(sim._generators, "standard_normal_blocks", recording)
            points = run_power_curve(dataclasses.replace(cfg, workers=workers))
            # one draw per trial index serves every cell
            assert sum(rows) == cfg.trials
            assert sizes is None or set(rows) == sizes
            buf = io.StringIO()
            write_power_csv(points, buf)
            texts.add(buf.getvalue())
    assert len(texts) == 1
    assert [p.skipped for p in points] == [False, False, False, True]


@pytest.mark.parametrize("mode, seed", [(CovMode.KNOWN_ZERO_MEAN, 11),
                                        (CovMode.SAMPLE_CENTERED, 0)])
def test_a_multi_block_power_rate_equals_a_recount(mode, seed):
    # 20,000 trials are three blocks of sim._MERGE_TRIALS: each cell's rate
    # is its 0/1 rejections summed block by block over the trials, and must
    # be the count of an independent recount over the trials.  At each seed
    # here a merged mean of the blocks' means misses k/trials in its last bit
    # in one cell (about 4% of cells do); the merged sum is exact.
    cfg = small_config(m=6, n=20, trials=20_000, seed=Seed(seed),
                       b_grid=(0.0, 1.0, 2.0, 3.0), cov_mode=mode)
    assert cfg.trials > 2 * sim._MERGE_TRIALS
    m, n = cfg.m, cfg.n
    factors = [cholesky(CorrMatrix.identity(m) if b == 0.0
                        else calibrate_to_theta(EQUI, b, m, n)).lower.T for b in cfg.b_grid]
    counts = [0] * len(factors)
    for lo in range(0, cfg.trials, 5000):
        z = sim._generators.standard_normal_blocks(cfg.seed, range(lo, lo + 5000), n, m)
        for k, lower_t in enumerate(factors):
            centered = statistic_t(z @ lower_t, mode) - m * (m - 1) / (2.0 * n)
            counts[k] += int(np.count_nonzero(centered > (m / n) * normal_quantile(cfg.alpha)))
    for workers in (1, 2):
        points = run_power_curve(dataclasses.replace(cfg, workers=workers))
        assert [p.empirical_power for p in points] == [k / cfg.trials for k in counts]


def test_a_power_cell_has_the_standard_error_of_its_mean():
    # the fold's sqrt(M2 / (N - 1) / N) of N 0/1 rejections, k of them, is
    # sqrt(p (1 - p) / (N - 1)) with p = k / N; a cell of power 1 has error 0.
    # 9,000 trials span two merge blocks, and b = 12 is unachievable.
    cfg = small_config(m=6, n=20, trials=9000, b_grid=(0.0, 1.0, 2.0, 8.0, 12.0))
    points = run_power_curve(cfg)
    assert [p.skipped for p in points] == [False] * 4 + [True]
    assert points[3].empirical_power == 1.0 and points[3].mc_stderr == 0.0
    for point in points[:3]:
        p = point.empirical_power
        want = np.sqrt(p * (1.0 - p) / (cfg.trials - 1))
        assert abs(point.mc_stderr - want) <= 1e-12 * want
    assert points[4].empirical_power is None and points[4].mc_stderr is None


def test_simulation_runs_take_no_p_values(monkeypatch):
    # run_null reads only the decisions and z-values of its report and
    # run_power_curve only the decisions, so neither takes a tail probability
    # over its trials; the one tail left is each cell's scalar prediction.
    tail = theory.normal_tail

    def scalar_tail(x):
        if np.ndim(x):
            raise AssertionError("a tail probability was taken over the trials")
        return tail(x)

    monkeypatch.setattr(theory, "normal_tail", scalar_tail)
    cfg = small_config(m=6, n=25, trials=120, b_grid=(0.0, 1.0))
    m, n = cfg.m, cfg.n
    null = run_null(cfg)
    points = run_power_curve(cfg)
    threshold = (m / n) * normal_quantile(cfg.alpha)
    for point, b in zip(points, cfg.b_grid):
        r = CorrMatrix.identity(m) if b == 0.0 else calibrate_to_theta(EQUI, b, m, n)
        centered = np.array([statistic_t(sample_gaussian(cholesky(r), n, cfg.seed, t),
                                         cfg.cov_mode) for t in range(cfg.trials)])
        centered -= m * (m - 1) / (2.0 * n)
        assert point.empirical_power == np.mean(centered > threshold)
        if b == 0.0:
            assert np.array_equal(null.z_values, n * centered / m)
            assert null.empirical_size == point.empirical_power


def test_power_csv_format(tmp_path):
    points = run_power_curve(small_config(m=6, n=25, trials=120, b_grid=(0.0,)))
    path = tmp_path / "power.csv"
    with open(path, "w", newline="") as handle:
        write_power_csv(points, handle)
    lines = path.read_text().splitlines()
    assert lines[0] == "b,m,n,trials,empirical_power,mc_stderr,predicted_power,skipped"
    assert len(lines) == 2
    assert lines[1].endswith("false")


def test_verify_var_i_sanity():
    check = verify_var_i(CorrMatrix.identity(4), 15, 3000, Seed(21))
    assert abs(check.z_score) <= 4.0
    assert check.exact > 0.0
    # tiny run still completes, just with a wide stderr
    loose = verify_var_i(CorrMatrix.identity(4), 15, 100, Seed(22))
    assert loose.stderr > check.stderr


def test_verify_var_i_off_null():
    r = make_family_matrix(EQUI, 0.2, 4)
    check = verify_var_i(r, 15, 3000, Seed(23))
    assert abs(check.z_score) <= 4.0


def test_verify_e_ii1_sanity():
    ii1, e_i = verify_e_ii1(CorrMatrix.identity(4), 12, 3000, Seed(5))
    assert abs(ii1.z_score) <= 4.0
    assert abs(e_i.z_score) <= 4.0
    assert e_i.exact == 0.0


def _recording(monkeypatch, name, values):
    """Wrap sim.<name> so each call's (B, n, m) stack size and result are kept."""
    real = getattr(sim, name)

    def wrapped(x, r):
        out = real(x, r)
        values.append((len(x), out))
        return out

    monkeypatch.setattr(sim, name, wrapped)


def test_chunked_verify_loops_match_a_per_trial_recount(monkeypatch):
    # 40 trials of m=40/n=80 fill a chunk, so 100 trials make chunks 40, 40, 20
    m, n, trials, seed = 40, 80, 100, Seed(61)
    r = make_family_matrix(EQUI, 0.05, m)
    factor = cholesky(r)
    recount = [decompose(sample_gaussian(factor, n, seed, t), r) for t in range(trials)]
    stacks, decs = [], []
    _recording(monkeypatch, "term_i", stacks)
    _recording(monkeypatch, "decompose", decs)
    var_i = verify_var_i(r, n, trials, seed)
    e_ii1 = verify_e_ii1(r, n, trials, seed)
    assert [size for size, _ in stacks] == [size for size, _ in decs] == [40, 40, 20]
    got_i = np.concatenate([values for _, values in stacks])
    assert np.array_equal(got_i, [term_i(sample_gaussian(factor, n, seed, t), r)
                                  for t in range(trials)])
    for field in ("term_ii1", "term_i", "residual"):
        got = np.concatenate([getattr(dec, field) for _, dec in decs])
        assert np.array_equal(got, [getattr(dec, field) for dec in recount]), field
    monkeypatch.undo()
    threaded = [verify_var_i(r, n, trials, seed, workers=3),
                *verify_e_ii1(r, n, trials, seed, workers=3)]
    assert (sim.verification_report_json(threaded, {})
            == sim.verification_report_json([var_i, *e_ii1], {}))
    # One run of var-i at R = I and at r plus e-ii1 draws each trial's stream
    # once, at the longest block, and every check equals its own run; e-ii1's
    # block is shorter (20 x 40) and longer (40 x 100, 12-trial chunks) than
    # var-i's 40 x 80.
    identity = CorrMatrix.identity(m)
    for m_ii1, n_ii1 in ((20, 40), (40, 100)):
        separate = [verify_var_i(identity, n, trials, seed), verify_var_i(r, n, trials, seed),
                    *verify_e_ii1(CorrMatrix.identity(m_ii1), n_ii1, trials, seed)]
        for workers in (1, 3):
            drawn = []

            def recording(seed, chunk, *shape, blocks=sim._generators.standard_normal_blocks):
                drawn.extend(chunk)
                return blocks(seed, chunk, *shape)

            monkeypatch.setattr(sim._generators, "standard_normal_blocks", recording)
            shared = sim.run_checks([sim.var_i_check(identity, n), sim.var_i_check(r, n),
                                     sim.e_ii1_check(CorrMatrix.identity(m_ii1), n_ii1)],
                                    trials, seed, workers)
            monkeypatch.undo()
            assert [check for results in shared for check in results] == separate
            assert sorted(drawn) == list(range(trials))


def test_verify_loops_reject_bad_sizes():
    for verify in (verify_var_i, verify_e_ii1):
        with pytest.raises(ConfigError, match="^n must be an integer >= 1, got 0$"):
            verify(CorrMatrix.identity(4), 0, 100, Seed(1))
        for trials in (1, 0, -3):
            with pytest.raises(ConfigError, match="^trials must be an integer >= 2, got "):
                verify(CorrMatrix.identity(4), 12, trials, Seed(1))
        # the library calls check the worker count, not only SimConfig and the CLI
        for workers in (0, -4, 1.5, True):
            with pytest.raises(ConfigError, match="^workers must be an integer"):
                verify(CorrMatrix.identity(4), 15, 300, Seed(1), workers=workers)
    for trials in (1, 0, -3):
        with pytest.raises(ConfigError, match="^trials must be an integer >= 2, got "):
            verify_kernels(0.5, 10, trials, Seed(1))
    # a float or bool size is refused by name, not by a TypeError from range
    for verify in (verify_var_i, verify_e_ii1):
        for n in (15.0, True):
            with pytest.raises(ConfigError, match="^n must be an integer"):
                verify(CorrMatrix.identity(4), n, 300, Seed(1))
        for trials in (300.0, False):
            with pytest.raises(ConfigError, match="^trials must be an integer"):
                verify(CorrMatrix.identity(4), 15, trials, Seed(1))
    with pytest.raises(ConfigError, match="^n must be an integer"):
        verify_kernels(0.5, 10.0, 1000, Seed(1))
    with pytest.raises(ConfigError, match="^trials must be an integer"):
        verify_kernels(0.5, 10, 1000.0, Seed(1))
    # no checks, no results, and the trial count is still checked
    assert sim.run_checks([], 100, Seed(1)) == []
    with pytest.raises(ConfigError, match="^trials must be an integer"):
        sim.run_checks([], 1.5, Seed(1))
    for rho in (float("nan"), -np.inf):
        with pytest.raises(ConfigError, match=r"^rho must lie in \[-1, 1\]$"):
            verify_kernels(rho, 10, 100, Seed(1))
    # rho = 1 runs: y = x, and every kernel mean is checked at its closed form
    checks = verify_kernels(1.0, 10, 20_000, Seed(0))
    assert len(checks) == 5 and all(np.isfinite(c.z_score) for c in checks)


def test_zero_spread_checks_pass_exactly_and_fail_otherwise(monkeypatch):
    # with n = 1 the cross-sample term is an empty sum: every trial gives 0
    r = CorrMatrix.identity(3)
    _, e_i = verify_e_ii1(r, 1, 100, Seed(43))
    var_i = verify_var_i(r, 1, 100, Seed(43))
    for check in (e_i, var_i):
        assert check.mc_value == check.exact == 0.0 and check.stderr == 0.0
        assert check.z_score == 0.0 and check.passed
    off, = sim._mean_checks([("x", 1.0)], sim._row_moments(np.zeros((1, 5))))
    assert off.z_score == -np.inf and not off.passed
    monkeypatch.setattr(sim, "var_i_exact", lambda r, n: 0.5)
    off = verify_var_i(r, 1, 100, Seed(43))
    assert off.z_score == -np.inf and not off.passed
    # RFC 8259 has no Infinity: the report writes the z as null, and the check fails
    report = strict_json(sim.verification_report_json([off], {}))
    assert report["checks"][0]["z_score"] is None and report["all_passed"] is False


BLOCK = sim._MERGE_TRIALS
TOP_STREAM = 2 ** 64 - 1


@pytest.mark.parametrize("trials", [2, BLOCK, BLOCK + 37, 2 * BLOCK + 5])
def test_verify_kernels_chunks_match_one_batch(monkeypatch, trials):
    # block b of _MERGE_TRIALS draws takes the normals of stream 2^64 - 1 - b,
    # and its values are reduced before the next block is drawn
    rho, n, seed = 0.3, 8, Seed(19)
    evaluate = sim._kernels.evaluate
    evaluate_variants = sim._kernels.evaluate_variants
    blocks = sim._generators.standard_normal_blocks
    chunks, draws = [], []

    def recording(x, y, *args, **kwargs):
        values = evaluate_variants(x, y, *args, **kwargs)
        chunks.append(values.copy())
        return values

    def recording_draw(seed, streams, rows, cols):
        draws.append((streams, rows, cols))
        return blocks(seed, streams, rows, cols)

    monkeypatch.setattr(sim._kernels, "evaluate_variants", recording)
    monkeypatch.setattr(sim._generators, "standard_normal_blocks", recording_draw)
    checks = verify_kernels(rho, n, trials, seed)
    los = range(0, trials, BLOCK)
    widths = [values.shape[1] for values in chunks]
    assert widths == [min(BLOCK, trials - lo) for lo in los]
    assert draws == [(range(TOP_STREAM - b, TOP_STREAM - b + 1), width, 8)
                     for b, width in enumerate(widths)]
    # one batch: every block's normals, drawn on their own and joined
    z = np.concatenate([sim._generators.standard_normal_block(seed, TOP_STREAM - b, width, 8)
                        for b, width in enumerate(widths)]).reshape(trials, 4, 2)
    x = z[:, :, 0].T
    y = rho * x + np.sqrt(1.0 - rho * rho) * z[:, :, 1].T
    exact = sim.kernel_expectations(rho, n)
    values = np.concatenate(chunks, axis=1)
    assert [check.name for check in checks] == ["h1", "h2", "h2_bar", "h3", "h3_bar"]
    for row, check, (name, swapped) in zip(values, checks, sim._kernels.VARIANTS):
        one_batch = evaluate(name, x, y, rho, n, swapped=swapped)
        assert np.array_equal(row, one_batch)
        recount, = sim._mean_checks([(check.name, exact[name])],
                                    sim._row_moments(one_batch[None].copy()))
        assert check.exact == recount.exact
        for got, want in ((check.mc_value, recount.mc_value), (check.stderr, recount.stderr)):
            assert abs(got - want) <= 1e-15 * abs(want)
        assert check.z_score == sim._z_score(check.mc_value, check.exact, check.stderr)


@pytest.mark.parametrize("trials", [200_000, 1_000_000])
def test_verify_kernels_memory_does_not_grow_with_its_size(trials):
    # one chunk's draws and evaluation are live at a time (2.4 MiB at
    # 8192 draws); 40 bytes a draw kept to the end would pass 4 MiB at
    # 200k draws and reach 40 MB at 1M
    verify_kernels(0.5, 10, 1000, Seed(1))   # warm caches outside the trace
    tracemalloc.start()
    try:
        verify_kernels(0.5, 10, trials, Seed(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_moment_check_memory_does_not_grow_with_the_trials(monkeypatch):
    # each block of sim._MERGE_TRIALS trials is folded into (count, mean, M2)
    # before the next is drawn; 24 bytes a trial kept to the end would add
    # about 4 MiB between 20k and 200k trials.  The draw's own memory is
    # test_draw_holds_one_array's: here every chunk reuses one fixed block of
    # normals, which keeps the traced run short.
    normals = np.random.default_rng(7).standard_normal((sim._CHUNK_BYTES // 64, 1, 4))
    monkeypatch.setattr(sim._generators, "standard_normal_blocks",
                        lambda seed, trials, rows, cols: normals[:len(trials)].copy())

    def peak(trials):
        checks = [sim.var_i_check(CorrMatrix.identity(2), 2),
                  sim.e_ii1_check(CorrMatrix.identity(2), 2)]
        tracemalloc.start()
        try:
            sim.run_checks(checks, trials, Seed(7))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)   # warm caches outside the trace
    at_20k = peak(20_000)
    # a 2 x 2 sample is 4 floats a trial, but decompose and term_i hold more
    # than that per trial: chunks sized by the samples alone (8192 trials
    # here) peaked at 18.4 MiB
    assert at_20k <= 3 * 2 ** 20
    assert peak(200_000) <= at_20k + 2 ** 20


def test_verify_kernels_sanity():
    checks = verify_kernels(0.3, 8, 20000, Seed(17))
    names = [c.name for c in checks]
    assert names == ["h1", "h2", "h2_bar", "h3", "h3_bar"]
    for check in checks:
        assert abs(check.z_score) <= 4.0
    with pytest.raises(ConfigError):
        verify_kernels(1.0 + 2.0 ** -52, 8, 100, Seed(0))


def test_verify_kernels_symmetry_at_zero():
    checks = {c.name: c for c in verify_kernels(0.0, 10, 20000, Seed(30))}
    # mirrored kernel agrees with the plain one within combined stderr at rho = 0
    for name in ("h2", "h3"):
        diff = abs(checks[name].mc_value - checks[name + "_bar"].mc_value)
        combined = np.hypot(checks[name].stderr, checks[name + "_bar"].stderr)
        assert diff <= 4.0 * combined


def test_moment_check_gate():
    good = MomentCheck("x", 1.0, 1.0, 0.1, 0.0)
    bad = MomentCheck("x", 2.0, 1.0, 0.1, 10.0)
    assert good.passed and not bad.passed


def test_in_trial_gate_fires(monkeypatch):
    real = sim.decompose
    monkeypatch.setattr(sim, "decompose", lambda data, r: dataclasses.replace(
        real(data, r), residual=1.0))
    with pytest.raises(RuntimeError, match="decomposition identity violated"):
        run_power_curve(small_config(trials=100, b_grid=(1.0,)))
    with pytest.raises(RuntimeError, match="decomposition identity violated"):
        run_null(small_config(trials=100))
    with pytest.raises(RuntimeError, match="decomposition identity violated"):
        verify_e_ii1(CorrMatrix.identity(4), 12, 100, Seed(5))


def test_in_trial_gate_fails_an_overflowing_column():
    # the squares of a 1e160 column overflow, so every field of the slice is NaN
    stack = np.random.default_rng(8).standard_normal((1, 30, 4))
    stack[0, :, 2] *= 1e160
    r = CorrMatrix.identity(4)
    with np.errstate(all="ignore"):
        assert np.isnan(decompose(stack, r).residual[0])
        with pytest.raises(RuntimeError, match=r"residual nan for \|T\| = nan"):
            sim._gated_decompose(stack, r)


def test_centered_null_skips_decompose(monkeypatch):
    calls = []
    monkeypatch.setattr(sim, "decompose", lambda data, r: calls.append(1))
    run_null(small_config(trials=100, cov_mode=CovMode.SAMPLE_CENTERED))
    assert calls == []
