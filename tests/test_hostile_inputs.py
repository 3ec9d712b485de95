"""Hostile inputs driven through ``cli.main`` in process: random config
objects for ``power`` and ``null``, random CSV files for ``test`` and
random flags for ``gen``.

Whatever the input, a run exits 0, 1, 2 or 3; a failed run prints exactly
one ``error:`` line and leaves no output file behind; no warning
escapes; and no config reaches the Monte Carlo engine with a value it
cannot take, judged here on the values themselves rather than through
``SimConfig``'s own validation.

The library calls below the CLI take hostile sizes and indices too: a
float, a bool or a negative size is a ``DomainError`` that names the
argument, never a bare ``TypeError`` or a truncated index; a correlation
outside [-1, 1] or not a real number is refused at every call that takes
one; and data of the wrong type, shape or size, or with a non-finite entry,
is refused by the one data checker, complex data rather than cast to its
real part.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from hidim import (AlternativeFamily, ConfigError, CorrMatrix, CovMode, DataMatrix,
                   DomainError, IndexOutOfRange, Seed, SimConfig, asymptotic_power,
                   calibrate_to_theta, central_pair_moment, central_product_moment, cli,
                   decompose, f_partial, isserlis_moment, kernel_expectations, kernels,
                   make_family_matrix, pair_partitions, sample_gaussian,
                   standard_normal_block, standard_normal_blocks, statistic_t, term_i,
                   verify_kernels)
from hidim.matrix import cholesky
from hidim.sim import verify_var_i

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)
_NAN, _INF = float("nan"), float("inf")

# a value of any JSON type, the non-finite floats among them
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.text(st.characters(codec="utf-8"), max_size=3))
_B_VALUES = st.sampled_from([0.0, 0.5, 2.0, 60.0, -0.0, -1.0, _NAN, _INF, -_INF, "1", None])
# values a config key may take, valid or not, for each key
_VALUES = {
    "m": st.integers(-1, 30), "n": st.integers(-1, 30), "trials": st.integers(95, 120),
    "alpha": st.floats(-0.1, 1.1), "seed": st.integers(-1, 2 ** 64),
    "workers": st.integers(-1, 3),
    "family": st.sampled_from(["equicorrelation", "sparse-pairs:0", "sparse-pairs:2",
                               "banded:1", "banded:1.5", "banded:40", "wishart"]),
    "b_grid": st.lists(_B_VALUES, max_size=4),
    "cov_mode": st.sampled_from(["zero-mean", "centered", "Centered"]),
}


@st.composite
def _configs(draw, command):
    """A config object that is valid unless some of its keys are dropped,
    given a value of any type, or joined by a misspelled key."""
    obj = {"m": draw(st.integers(2, 30)), "n": draw(st.integers(2, 30)),
           "trials": draw(st.integers(100, 120)), "alpha": draw(st.floats(0.01, 0.5)),
           "seed": draw(st.integers(0, 2 ** 64 - 1)), "workers": draw(st.integers(1, 3)),
           "cov_mode": draw(_VALUES["cov_mode"])}
    if command == "power":
        obj["family"] = draw(st.sampled_from(["equicorrelation", "banded:1",
                                              "sparse-pairs:2"]))
        obj["b_grid"] = sorted(draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4)))
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES) + ["trails"]),
                             max_size=2, unique=True)):
        obj[key] = draw(st.one_of(_VALUES.get(key, _JUNK), _JUNK))
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    return obj


def _sound(config) -> bool:
    """What the Monte Carlo engine may assume of the config it is given."""
    b_grid = list(config.b_grid)
    n_min = 2 if config.cov_mode.value == "centered" else 1
    return (type(config.m) is int and config.m >= 2 and type(config.n) is int
            and config.n >= n_min and type(config.trials) is int and config.trials >= 100
            and type(config.workers) is int and config.workers >= 1
            and 0.0 < config.alpha < 1.0
            and all(math.isfinite(b) and math.copysign(1.0, b) > 0.0 for b in b_grid)
            and b_grid == sorted(b_grid))


def _checked(run):
    def entry(config):
        assert _sound(config), config
        return run(config)
    return entry


def _main(argv):
    """(exit code, stdout, stderr) of one in-process run, with any warning
    raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err
    return code, out.getvalue(), err.getvalue()


def _texts(code, paths):
    """The text of each output file of a run that exited with ``code``.  A
    run that failed leaves none of them behind, and has no texts (None)."""
    if code:
        assert not any(map(os.path.exists, paths)), paths
        return [None] * len(paths)
    texts = []
    for path in paths:
        with open(path) as handle:
            texts.append(handle.read())
    return texts


def _run_config(command, obj, extra=()):
    """Run ``command`` on the config ``obj`` written to a file, with its
    outputs in a fresh directory; the exit code and the outputs' texts."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "run_power_curve", _checked(cli.run_power_curve)), \
            mock.patch.object(cli, "run_null", _checked(cli.run_null)):
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as handle:
            # Python's json writes NaN and Infinity, which its reader takes
            handle.write(json.dumps(obj))
        outputs = [os.path.join(tmp, name) for name in ("out", *extra)]
        argv = [command, "--config", cfg, "--out", outputs[0]]
        for flag, path in zip(("--z-out",), outputs[1:]):
            argv += [flag, path]
        code, _, _ = _main(argv)
        texts = _texts(code, outputs)
    return code, texts


@_SETTINGS
@given(obj=_configs("power"))
@example(obj={"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 1, "b_grid": [0.0, _NAN]})
@example(obj={"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 1, "b_grid": [0.0, _INF]})
@example(obj={"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 1,
              "family": "banded:1.5", "b_grid": [1.0]})
def test_power_survives_hostile_configs(obj):
    code, (text,) = _run_config("power", obj)
    if code == 0:
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(obj["b_grid"])
        for row in rows:
            assert math.isfinite(float(row["b"]))
            assert 0.0 <= float(row["predicted_power"]) <= 1.0
            assert (row["empirical_power"] == "") == (row["skipped"] == "true")


@_SETTINGS
# "out" and "./out" name the report's own file
@given(obj=_configs("null"), z_out=st.sampled_from([None, "z.csv", "out", "./out"]))
@example(obj={"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 1,
              "family": "sparse-pairs:0"}, z_out="z.csv")
@example(obj={"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 1,
              "b_grid": [_NAN]}, z_out="z.csv")
@example(obj={"m": 6, "n": 1, "trials": 100, "alpha": 0.05, "seed": 1,
              "cov_mode": "centered"}, z_out="z.csv")
@example(obj={"m": 6, "n": 20, "trials": 100, "alpha": 0.05, "seed": 1}, z_out="./out")
def test_null_survives_hostile_configs(obj, z_out):
    code, texts = _run_config("null", obj, (z_out,) if z_out else ())
    if z_out in ("out", "./out"):
        assert code == 2
    if code == 0 and z_out:
        assert texts[1].count("\n") == obj["trials"]


_JUNK_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.sampled_from(["", "0", "1e308", "-1e308", "x"]),
                        st.text(st.characters(codec="utf-8"), max_size=2))


@st.composite
def _csv_rows(draw):
    """Rows of numbers, some of whose cells are then replaced by junk: an
    empty or non-numeric string, a non-finite or huge value, or a constant."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=width,
                                  max_size=width), min_size=1, max_size=8))
    cells = [(i, j) for i in range(len(rows)) for j in range(width)]
    for i, j in draw(st.lists(st.sampled_from(cells), max_size=2)):
        rows[i][j] = draw(_JUNK_CELLS)
    return rows


@_SETTINGS
@given(rows=_csv_rows(), header=st.booleans(), mode=st.sampled_from(["zero-mean", "centered"]),
       alpha=st.one_of(st.floats(0.01, 0.5), st.sampled_from([0.0, 1.0, -0.5, _NAN])))
@example(rows=[["1", "2"], ["1", "3"], ["1", "5"]], header=False, mode="centered", alpha=0.05)
def test_test_survives_hostile_csvs(rows, header, mode, alpha):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(",".join(row) + "\n" for row in rows))
        argv = ["test", path, "--cov-mode", mode, f"--alpha={alpha!r}", "--format", "json"]
        code, out, _ = _main(argv + ["--header"] * header)
    assert code in (0, 2, 3)
    assert (out != "") == (code == 0)


# values a gen flag may take, valid or not, for each flag
_GEN_VALUES = {
    "b": _B_VALUES.filter(lambda b: isinstance(b, float)), "m": _VALUES["m"],
    "n": _VALUES["n"], "seed": st.integers(-1, 2 ** 64 + 1),
    "trial": st.integers(-1, 2 ** 64 + 1), "family": _VALUES["family"],
}


@st.composite
def _gen_flags(draw):
    """gen's flags, valid unless up to two of them take any value of their
    hostile range."""
    flags = {"b": draw(st.floats(0.0, 3.0)), "m": draw(st.integers(2, 12)),
             "n": draw(st.integers(2, 30)), "seed": draw(st.integers(0, 2 ** 64 - 1)),
             "trial": draw(st.integers(0, 2 ** 64 - 1)),
             "family": draw(st.sampled_from(["equicorrelation", "banded:1", "sparse-pairs:1"]))}
    for key in draw(st.lists(st.sampled_from(sorted(_GEN_VALUES)), max_size=2, unique=True)):
        flags[key] = draw(_GEN_VALUES[key])
    return flags


@_SETTINGS
@given(flags=_gen_flags())
@example(flags={"b": 1.0, "m": 5, "n": 30, "seed": 0, "trial": 2 ** 64,
                "family": "equicorrelation"})
@example(flags={"b": 1.0, "m": 5, "n": 30, "seed": -1, "trial": 0,
                "family": "equicorrelation"})
@example(flags={"b": 1e308, "m": 8, "n": 2, "seed": 0, "trial": 0, "family": "banded:2"})
def test_gen_survives_hostile_flags(flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "d.csv")
        argv = ["gen", f"--b={flags['b']!r}", "--out", out]
        argv += [f"--{key}={flags[key]}" for key in ("m", "n", "seed", "trial", "family")]
        code, _, _ = _main(argv)
        texts = _texts(code, [out, out + ".r.json"])
    assert code in (0, 2, 3)
    if not code:
        data = np.loadtxt(io.StringIO(texts[0]), delimiter=",", ndmin=2)
        assert data.shape == (flags["n"], flags["m"]) and np.isfinite(data).all()
        assert json.loads(texts[1])["m"] == flags["m"]


_I3 = CorrMatrix.identity(3)


@pytest.mark.parametrize("call, bad", [
    pytest.param(lambda: isserlis_moment([0, 1.5], _I3), "1.5", id="float"),
    pytest.param(lambda: isserlis_moment([True, 0], _I3), "True", id="bool"),
    pytest.param(lambda: isserlis_moment([0, 1.0, 2, 2], _I3), "1.0", id="float-even"),
    pytest.param(lambda: isserlis_moment([np.True_, 0], _I3), "", id="numpy-bool"),
    pytest.param(lambda: central_product_moment([(0, 1.5)], _I3), "1.5", id="duple-float"),
    pytest.param(lambda: central_product_moment([(0, 2), (False, 1)], _I3), "False",
                 id="duple-bool"),
])
def test_a_moment_index_that_is_not_an_integer_is_a_domain_error(call, bad):
    with pytest.raises(DomainError, match=f"^index must be an integer, got {bad}"):
        call()


def test_moment_indices_take_numpy_integers_and_stay_in_range():
    r = CorrMatrix([[1.0, 0.3, 0.0], [0.3, 1.0, 0.5], [0.0, 0.5, 1.0]])
    assert isserlis_moment(list(np.array([0, 1, 1, 2])), r) == isserlis_moment([0, 1, 1, 2], r)
    assert (central_product_moment([(np.int32(0), np.int64(1)), (np.uint8(1), 2)], r)
            == central_product_moment([(0, 1), (1, 2)], r))
    # out of range in any duple, before any moment is read
    for duples, bad in (([(0, 3)], 3), ([(0, 1), (-1, 2)], -1)):
        with pytest.raises(IndexOutOfRange, match=f"^index {bad} outside"):
            central_product_moment(duples, r)


_CHOL = cholesky(_I3)
_EQUI = AlternativeFamily.equicorrelation()


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sample_gaussian(_CHOL, 3.0, Seed(0), 0),
                 "n must be an integer, got 3.0", id="n-float"),
    pytest.param(lambda: sample_gaussian(_CHOL, True, Seed(0), 0),
                 "n must be an integer, got True", id="n-bool"),
    pytest.param(lambda: sample_gaussian(_CHOL, 3, Seed(0), 0.0),
                 "trial must be an integer, got 0.0", id="sample-trial-float"),
    pytest.param(lambda: standard_normal_block(Seed(0), 0, 2.0, 3),
                 "rows must be an integer, got 2.0", id="rows-float"),
    pytest.param(lambda: standard_normal_block(Seed(0), 0, 2, 3.0),
                 "cols must be an integer, got 3.0", id="cols-float"),
    pytest.param(lambda: standard_normal_block(Seed(0), 1.5, 2, 3),
                 "trial must be an integer, got 1.5", id="trial-float"),
    pytest.param(lambda: standard_normal_block(Seed(0), True, 2, 3),
                 "trial must be an integer, got True", id="trial-bool"),
    pytest.param(lambda: standard_normal_block(Seed(0), 0, -1, 3),
                 "rows must be an integer >= 0, got -1", id="rows-negative"),
    pytest.param(lambda: standard_normal_block(Seed(0), 0, 2, -3),
                 "cols must be an integer >= 0, got -3", id="cols-negative"),
    pytest.param(lambda: standard_normal_blocks(Seed(0), range(2), False, 3),
                 "rows must be an integer, got False", id="blocks-rows-bool"),
    pytest.param(lambda: make_family_matrix(_EQUI, 0.1, 2.0),
                 "m must be an integer, got 2.0", id="m-float"),
    pytest.param(lambda: make_family_matrix(_EQUI, 0.1, True),
                 "m must be an integer, got True", id="m-bool"),
])
def test_a_bad_draw_size_is_a_domain_error_naming_it(call, message):
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


def test_a_draw_takes_numpy_integer_sizes():
    block = standard_normal_block(Seed(0), np.uint64(0), np.uint8(200), np.uint8(200))
    assert np.array_equal(block, standard_normal_block(Seed(0), 0, 200, 200))


_X4, _Y4 = np.random.default_rng(0).standard_normal((2, 4, 3))
# each call that takes a correlation rho, its error class, and the numbers it
# computes from rho
_RHO_CALLS = {
    "kernel_expectations": (DomainError, lambda rho: list(kernel_expectations(rho, 10).values())),
    "expectation_by_expansion": (DomainError,
                                 lambda rho: kernels.expectation_by_expansion("h3", rho, 10)),
    "evaluate_variants": (DomainError, lambda rho: kernels.evaluate_variants(_X4, _Y4, rho, 10)),
    "evaluate": (DomainError, lambda rho: kernels.evaluate("h2", _X4, _Y4, rho, 10, True)),
    "verify_kernels": (ConfigError,
                       lambda rho: [c.z_score for c in verify_kernels(rho, 10, 100, Seed(0))]),
}
_OUTSIDE = "rho must lie in [-1, 1]"
_BAD_RHOS = [(True, "rho must be a real number, got True", "bool"),
             (np.True_, f"rho must be a real number, got {np.True_!r}", "numpy-bool"),
             ("0.5", "rho must be a real number, got '0.5'", "string"),
             (_NAN, _OUTSIDE, "nan"), (_INF, _OUTSIDE, "inf"), (-_INF, _OUTSIDE, "-inf"),
             (1.0 + 2.0 ** -52, _OUTSIDE, "above-1"), (-1.5, _OUTSIDE, "below-minus-1")]


# a config given numpy numbers, and its twin given Python ones
_NUMPY_CONFIG = dict(m=np.int64(8), n=np.int32(30), trials=np.int64(200),
                     alpha=np.float64(0.05), seed=Seed(3), b_grid=(np.float64(0.0), 1))
_PLAIN_CONFIG = dict(m=8, n=30, trials=200, alpha=0.05, seed=Seed(3), b_grid=(0.0, 1.0))


def _rho_cases():
    """A refused and an accepted case per bad and per extreme rho at each call."""
    for site, (error, call) in _RHO_CALLS.items():
        for rho, message, label in _BAD_RHOS:
            yield pytest.param(lambda call=call, rho=rho: call(rho), error, message,
                               id=f"{site}-rho-{label}")
        for rho in (1.0, -1.0):
            yield pytest.param(lambda call=call, rho=rho: np.all(np.isfinite(call(rho))),
                               None, None, id=f"{site}-rho-{rho:+.0f}")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: calibrate_to_theta(_EQUI, 1.0, 5, 2.5), DomainError,
                 "n must be an integer, got 2.5", id="calibrate-n-float"),
    pytest.param(lambda: calibrate_to_theta(_EQUI, 1.0, 5, True), DomainError,
                 "n must be an integer, got True", id="calibrate-n-bool"),
    pytest.param(lambda: calibrate_to_theta(_EQUI, True, 5, 10), DomainError,
                 "b must be a real number, got True", id="calibrate-b-bool"),
    pytest.param(lambda: asymptotic_power(0.05, True), DomainError,
                 "b must be a real number, got True", id="power-b-bool"),
    pytest.param(lambda: pair_partitions(True), DomainError,
                 "k must be an integer, got True", id="partitions-bool"),
    pytest.param(lambda: (pair_partitions(1), pair_partitions(True)), DomainError,
                 "k must be an integer, got True", id="partitions-bool-after-1"),
    # an untyped cache keys a plain int by itself but a numpy one by a tuple,
    # which True equals: only a typed cache checks True after np.int64(1)
    pytest.param(lambda: (pair_partitions(np.int64(1)), pair_partitions(True)), DomainError,
                 "k must be an integer, got True", id="partitions-bool-after-numpy-1"),
    pytest.param(lambda: pair_partitions(2.0), DomainError,
                 "k must be an integer, got 2.0", id="partitions-float"),
    pytest.param(lambda: f_partial((1.7, 0, 0), 1.0, 1.0, 0.5), DomainError,
                 "lam[0] must be an integer, got 1.7", id="order-float"),
    pytest.param(lambda: f_partial((True, 0, 0), 1.0, 1.0, 0.5), DomainError,
                 "lam[0] must be an integer, got True", id="order-bool"),
    pytest.param(lambda: f_partial((0, 0, 0), _NAN, 1.0, 0.5), DomainError,
                 "u1 must be finite and positive, got nan", id="u1-nan"),
    pytest.param(lambda: f_partial((0, 0, 0), _INF, 1.0, 0.5), DomainError,
                 "u1 must be finite and positive, got inf", id="u1-inf"),
    pytest.param(lambda: f_partial((0, 0, 0), 1.0, 0.0, 0.5), DomainError,
                 "u2 must be finite and positive, got 0.0", id="u2-zero"),
    pytest.param(lambda: f_partial((0, 0, 0), 1.0, -_INF, 0.5), DomainError,
                 "u2 must be finite and positive, got -inf", id="u2-minus-inf"),
    pytest.param(lambda: f_partial((0, 0, 0), 1.0, 1.0, _NAN), DomainError,
                 "u3 must be finite, got nan", id="u3-nan"),
    pytest.param(lambda: f_partial((0, 0, 1), 1.0, 1.0, _INF), DomainError,
                 "u3 must be finite, got inf", id="u3-inf"),
    pytest.param(lambda: f_partial((0, 0, 2), 1.0, 1.0, -_INF), DomainError,
                 "u3 must be finite, got -inf", id="u3-minus-inf"),
    pytest.param(lambda: f_partial((0, 0, 0), 2.0, 0.5, -3.0) == 9.0, None, None,
                 id="u-finite"),
    pytest.param(lambda: central_pair_moment(True, 1, 0, 1, _I3), DomainError,
                 "index must be an integer, got True", id="pair-index-bool"),
    pytest.param(lambda: central_pair_moment(1.0, 1, 0, 1, _I3), DomainError,
                 "index must be an integer, got 1.0", id="pair-index-float"),
    # a numpy integer is an integer to every rule
    pytest.param(lambda: (verify_var_i(_I3, 15, np.int64(300), Seed(1), workers=np.int64(2))
                          == verify_var_i(_I3, 15, 300, Seed(1))), None, None,
                 id="verify-numpy-workers"),
    pytest.param(lambda: AlternativeFamily.banded(np.int64(2)) == AlternativeFamily.banded(2),
                 None, None, id="banded-numpy-k"),
    # SimConfig stores them as Python numbers, which json.dumps writes
    pytest.param(lambda: (SimConfig(**_NUMPY_CONFIG) == SimConfig(**_PLAIN_CONFIG)
                          and json.dumps(SimConfig(**_NUMPY_CONFIG).to_json_obj())
                          == json.dumps(SimConfig(**_PLAIN_CONFIG).to_json_obj())),
                 None, None, id="config-numpy-numbers"),
    # an int too large for a float is no finite signal, not an OverflowError
    pytest.param(lambda: SimConfig(**{**_PLAIN_CONFIG, "b_grid": (10 ** 400,)}), ConfigError,
                 "b must be finite and nonnegative", id="config-b-past-the-floats"),
    pytest.param(lambda: asymptotic_power(0.05, 10 ** 400), DomainError,
                 "b must be finite and nonnegative", id="power-b-past-the-floats"),
    *(pytest.param(lambda m=m: SimConfig(**{**_PLAIN_CONFIG, "m": m}), ConfigError,
                   f"m must be an integer, got {m!r}", id=f"config-m-{label}")
      for m, label in ((True, "bool"), (np.True_, "numpy-bool"), ("8", "string"),
                       (8.0, "float"))),
    *_rho_cases(),
])
def test_each_kind_of_argument_is_checked_by_its_one_rule(call, error, message):
    if error is None:
        assert call()
    else:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


_STACK = np.random.default_rng(0).standard_normal((2, 6, 3))
_HOLED = _STACK.copy()
_HOLED[1, 4, 2] = _NAN


@pytest.mark.parametrize("reduce, ndim, where", [
    (DataMatrix, 2, ""),
    (lambda stack: statistic_t(stack, CovMode.SAMPLE_CENTERED), 3, "slice 1, "),
    (lambda stack: decompose(stack, CorrMatrix.identity(3)), 3, "slice 1, "),
    (lambda stack: term_i(stack, CorrMatrix.identity(3)), 3, "slice 1, "),
], ids=["DataMatrix", "statistic_t", "decompose", "term_i"])
@pytest.mark.parametrize("data, message", [
    (_STACK + 0.5j, "data must be real, got complex values"),
    (np.ones(3), "data must be a {ndim}-D array with samples x variables last, got shape (3,)"),
    (np.ones((1, 2, 6, 3)),
     "data must be a {ndim}-D array with samples x variables last, got shape (1, 2, 6, 3)"),
    (_STACK[:, :0], "data needs at least 1 sample and 2 variables"),
    (_STACK[..., :1], "data needs at least 1 sample and 2 variables"),
    (_HOLED, "data entries must be finite: {where}sample 4, variable 2 is nan"),
], ids=["complex", "1-D", "4-D", "zero-rows", "one-column", "nan"])
def test_bad_data_is_refused_by_its_one_checker(reduce, ndim, where, data, message):
    # a DataMatrix takes the last slice of a stack; a 1-D or 4-D array as it is
    if ndim == 2 and data.ndim == 3:
        data = data[-1]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(ndim=ndim, where=where))}$"):
        reduce(data)


def test_a_complex_correlation_matrix_is_refused_not_truncated():
    with pytest.raises(ValueError, match="^correlation matrix must be real"):
        CorrMatrix([[1.0, 0.5 + 1j], [0.5 - 1j, 1.0]])
