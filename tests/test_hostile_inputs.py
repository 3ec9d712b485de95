"""Hostile inputs driven through ``cli.main`` in process: random config
objects for ``power`` and ``null``, random CSV files for ``test`` and
random flags for ``gen``.

Whatever the input, a run exits 0, 1, 2 or 3; a failed run prints exactly
one ``error:`` line and leaves no output file behind; no warning
escapes; and no config reaches the Monte Carlo engine with a value it
cannot take, judged here on the values themselves rather than through
``SimConfig``'s own validation.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np

from hidim import cli

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
