import json
import re
import warnings

import numpy as np
import pytest

from hidim import AlternativeFamily, CorrMatrix, Seed, SimConfig
from hidim import cli, kernels, moments, sim
from hidim.cli import main
from hidim.errors import DomainError
from hidim.generators import make_family_matrix
from hidim.moments import expected_ii1, kernel_expectations, var_i_exact
from conftest import strict_json


def run_cli(*argv):
    return main(list(argv))


def write_csv(path, array, header=None):
    with open(path, "w") as handle:
        if header:
            handle.write(header + "\n")
        for row in np.atleast_2d(array):
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_test_identical_columns(tmp_path, capsys):
    path = tmp_path / "data.csv"
    col = np.arange(1.0, 9.0)
    write_csv(path, np.column_stack([col, col]))
    code = run_cli("test", str(path), "--alpha", "0.05")
    out = capsys.readouterr().out
    assert code == 0
    assert "reject independence yes" in " ".join(out.split())


def test_test_json_format(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = tmp_path / "data.csv"
    write_csv(path, rng.standard_normal((40, 4)))
    code = run_cli("test", str(path), "--format", "json", "--cov-mode", "zero-mean")
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) >= {"t_value", "centered", "z_value", "p_value", "alpha",
                        "reject", "n", "m"}
    assert obj["n"] == 40 and obj["m"] == 4


def test_test_csv_format(tmp_path, capsys):
    rng = np.random.default_rng(6)
    path = tmp_path / "data.csv"
    write_csv(path, rng.standard_normal((30, 3)))
    assert run_cli("test", str(path), "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_value,centered,z_value,p_value,alpha,reject"
    assert len(lines) == 2


def test_test_header_flag(tmp_path, capsys):
    rng = np.random.default_rng(2)
    data = rng.standard_normal((25, 3))
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    write_csv(plain, data)
    write_csv(headed, data, header="a,b,c")
    assert run_cli("test", str(plain), "--format", "json") == 0
    out_plain = json.loads(capsys.readouterr().out)
    assert run_cli("test", str(headed), "--header", "--format", "json") == 0
    out_headed = json.loads(capsys.readouterr().out)
    assert out_plain["t_value"] == out_headed["t_value"]


def test_test_degenerate_column(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    rows = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    write_csv(path, rows)
    code = run_cli("test", str(path))          # centered mode: constant column
    assert code == 3
    assert capsys.readouterr() == ("", "error: zero-variance column(s): 0\n")


def test_test_near_constant_centered_column_exits_3(tmp_path, capsys):
    path = tmp_path / "near.csv"
    values = np.random.default_rng(4).standard_normal((30, 3))
    values[:, 1] = 0.1
    write_csv(path, values)
    assert run_cli("test", str(path), "--cov-mode", "centered") == 3
    assert "column(s): 1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["zero-mean", "centered"])
def test_test_overflowing_column_exits_2(tmp_path, capsys, mode):
    path = tmp_path / "huge.csv"
    values = np.random.default_rng(5).standard_normal((30, 3))
    values[:, 0] *= 1e200
    write_csv(path, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no numpy warning reaches the user
        assert run_cli("test", str(path), "--cov-mode", mode) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: T is nan") and "overflow" in err
    assert err.count("\n") == 1


def test_test_parse_errors(tmp_path, capsys):
    missing = run_cli("test", str(tmp_path / "nope.csv"))
    assert missing == 2
    assert "error: cannot read data file" in capsys.readouterr().err
    single = tmp_path / "single.csv"
    write_csv(single, np.array([[1.0, 2.0]]))
    assert run_cli("test", str(single)) == 2   # n < 2
    one_column = tmp_path / "one_column.csv"
    write_csv(one_column, np.arange(5.0)[:, None])
    capsys.readouterr()
    assert run_cli("test", str(one_column)) == 2
    assert "error: invalid data: data needs at least" in capsys.readouterr().err
    holed = tmp_path / "holed.csv"
    values = np.arange(12.0).reshape(4, 3)
    values[2, 1] = np.nan
    write_csv(holed, values, header="a,b,c")
    assert run_cli("test", str(holed), "--header") == 2
    err = capsys.readouterr().err
    assert "invalid data" in err and "sample 2, variable 1 is nan" in err
    assert "cannot read" not in err
    # numpy's warning on a file with no data rows stays off stderr
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("a,b,c\n")
    for argv in ((str(empty),), (str(header_only), "--header")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("test", *argv) == 2
        assert capsys.readouterr() == (
            "", "error: invalid data: data needs at least 1 sample and 2 variables\n")


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("test", "x.csv", "--bogus")
    assert info.value.code == 2


def test_power_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "p1.csv"
    out2 = tmp_path / "p2.csv"
    args = ["power", "--m", "8", "--n", "30", "--trials", "150", "--alpha", "0.05",
            "--seed", "42", "--b-grid", "0,1", "--family", "equicorrelation"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2), "--workers", "3") == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 3


@pytest.mark.parametrize("argv, output", [
    (("power", "--m", "6", "--n", "25", "--trials", "120", "--b-grid", "0,1,2"), "--out"),
    # 9,000 trials span two merge blocks: each rate is a merged sum of 0/1
    # rejections over the trials
    (("power", "--m", "6", "--n", "20", "--trials", "9000", "--b-grid", "0,2"), "--out"),
    (("null", "--m", "50", "--n", "100", "--trials", "200", "--cov-mode", "centered"),
     "--z-out"),
    # the moment checks' trials and the kernel check's blocks take their own streams
    (("verify", "all", "--trials", "2000", "--seed", "3"), None),
], ids=["power", "power-two-blocks", "null-centered", "verify-all"])
def test_a_run_writes_the_same_bytes_at_one_and_two_workers(tmp_path, capsys, argv, output):
    # the output file, or stdout when there is none, and the exit code
    runs = []
    for workers in ("1", "2"):
        path = tmp_path / f"out{workers}"
        code = run_cli(*argv, "--workers", workers, *((output, str(path)) if output else ()))
        out = capsys.readouterr().out
        runs.append((code, path.read_text() if output else out))
    assert runs[0] == runs[1] and runs[0][0] in (0, 1)


def test_power_skipped_row(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = run_cli("power", "--m", "8", "--n", "30", "--trials", "120",
                   "--seed", "1", "--family", "sparse-pairs:1",
                   "--b-grid", "0,60", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[-1].endswith("true")


@pytest.mark.parametrize("family", ["equicorrelation", "sparse-pairs:1", "banded:2"])
def test_power_skips_an_overflowing_signal_without_a_warning(tmp_path, capsys, family):
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("power", "--m", "8", "--n", "2", "--trials", "100", "--family",
                       family, "--b-grid", "0,1e308", "--out", str(out))
    assert code == 0 and capsys.readouterr().err == ""
    rows = out.read_text().splitlines()
    assert len(rows) == 3 and rows[1].endswith("false") and rows[2].endswith("true")


def test_power_config_file(tmp_path, capsys):
    cfg = {"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 9,
           "family": "equicorrelation", "b_grid": [0.0], "cov_mode": "zero-mean",
           "workers": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "p.csv"
    assert run_cli("power", "--config", str(cfg_path), "--out", str(out)) == 0
    capsys.readouterr()
    assert out.read_text().count("\n") == 2


def test_power_config_unknown_key(tmp_path, capsys):
    cfg = {"m": 6, "n": 25, "trails": 120, "trials": 120, "alpha": 0.05, "seed": 9,
           "b_grid": [0.0]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("power", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and "trails" in err
    cfg_path.write_text('{"m": 6, "n": 25,')
    assert run_cli("power", "--config", str(cfg_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(r"error: Expecting [^\n]+\n", err), err
    cfg_path.write_text('{"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 9, '
                        '"b_grid": [0, NaN]}')
    assert run_cli("power", "--config", str(cfg_path)) == 2
    assert capsys.readouterr().err == "error: b must be finite and nonnegative\n"


def test_power_empty_b_grid_names_its_source(tmp_path, capsys):
    out = tmp_path / "p.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 9, '
                        '"b_grid": []}')
    flags = ("--m", "6", "--n", "25", "--trials", "120", "--b-grid", "")
    for argv, source in ((("--config", str(cfg_path)), f'"b_grid" in {cfg_path}'),
                         (flags, "--b-grid")):
        assert run_cli("power", *argv, "--out", str(out)) == 2
        assert capsys.readouterr() == (
            "", f"error: power runs need a nonempty b grid: {source} is empty\n")
        assert not out.exists()


@pytest.mark.parametrize("grid, entry", [("0,x", "'x'"), ("1,,2", "''"), ("1;2", "'1;2'")])
def test_power_malformed_b_grid_entry_names_the_flag(tmp_path, capsys, grid, entry):
    out = tmp_path / "p.csv"
    assert run_cli("power", "--m", "6", "--n", "20", "--trials", "100", "--b-grid", grid,
                   "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: --b-grid entries must be numbers, got {entry}\n")
    assert not out.exists()


def test_power_bad_config(capsys):
    assert run_cli("power", "--m", "8", "--n", "30", "--trials", "50",
                   "--seed", "1", "--b-grid", "0,1") == 2
    assert "error" in capsys.readouterr().err


def test_null_json_round_trip(tmp_path, capsys):
    out = tmp_path / "null.json"
    z_out = tmp_path / "z.csv"
    code = run_cli("null", "--m", "6", "--n", "25", "--trials", "120",
                   "--seed", "7", "--out", str(out), "--z-out", str(z_out))
    capsys.readouterr()
    assert code == 0
    obj = json.loads(out.read_text())
    assert 0.0 <= obj["empirical_size"] <= 1.0
    assert list(obj)[-1] == "z_samples_path" and obj["z_samples_path"] == str(z_out)
    cfg = SimConfig.from_json_obj(obj["config"])
    assert cfg.m == 6 and cfg.n == 25 and cfg.trials == 120 and cfg.seed.master == 7
    # the z samples survive their text file exactly
    report = sim.run_null(cfg)
    persisted = np.loadtxt(z_out)
    assert persisted.shape == (120,)
    assert np.allclose(persisted, report.z_values, atol=0.0)
    assert obj["empirical_size"] == report.empirical_size
    assert obj["ks_statistic"] == report.ks_statistic


@pytest.mark.parametrize("keys, ignored", [
    ({"b_grid": [1.0]}, "b_grid"),
    ({"family": "banded:2"}, "family"),
    ({"family": "banded:2", "b_grid": [1.0, 2.0]}, "family, b_grid"),
])
def test_null_rejects_the_config_keys_it_ignores(tmp_path, capsys, keys, ignored):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 6, "n": 25, "trials": 120, "alpha": 0.05,
                                    "seed": 9, **keys}))
    out = tmp_path / "n.json"
    assert run_cli("null", "--config", str(cfg_path), "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"error: null runs ignore config key(s) {ignored}: "
                                       f"leave them out of {cfg_path} or at their defaults\n")
    # the keys are checked before any output file is opened
    assert not out.exists()


@pytest.mark.parametrize("key,value,message", [
    pytest.param("m", 6.9, "m must be an integer, got 6.9", id="m-6.9"),
    pytest.param("n", "25", "n must be an integer, got '25'", id="n-25"),
    pytest.param("trials", 120.5, "trials must be an integer, got 120.5", id="trials-120.5"),
    pytest.param("seed", True, "config key 'seed' must be an integer, got true", id="seed-True"),
    pytest.param("workers", 1.7, "workers must be an integer, got 1.7", id="workers-1.7"),
    pytest.param("alpha", "0.05", "alpha must be a real number, got '0.05'", id="alpha-0.05"),
    pytest.param("b_grid", "0,1", "b_grid must be a tuple or list, got '0,1'", id="b_grid-0,1"),
    pytest.param("m", None, "m must be an integer, got None", id="m-None"),
    pytest.param("family", ["banded:2"],
                 "config key 'family' must be a string, got [\"banded:2\"]", id="family-value8"),
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, key, value, message):
    cfg = {"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 9, "b_grid": [0.0],
           key: value}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("power", "--config", str(cfg_path)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_config_file_replays_flags_and_null_reports(tmp_path, capsys):
    # a power run given as flags and as the same config file writes the same CSV
    flags = ["--m", "6", "--n", "25", "--trials", "120", "--seed", "4", "--workers", "2",
             "--family", "banded:2", "--b-grid", "0,1,40", "--cov-mode", "centered"]
    assert run_cli("power", *flags, "--out", str(tmp_path / "flags.csv")) == 0
    cfg = {"m": 6, "n": 25, "trials": 120, "alpha": 0.05, "seed": 4, "workers": 2,
           "family": "banded:2", "b_grid": [0, 1, 40], "cov_mode": "centered"}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli("power", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(tmp_path / "file.csv")) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()
    # a null report's "config" replays its run byte for byte
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli("null", "--m", "7", "--n", "30", "--trials", "110", "--seed", "5",
                   "--cov-mode", "centered", "--out", str(first)) == 0
    (tmp_path / "replay.json").write_text(json.dumps(json.loads(first.read_text())["config"]))
    assert run_cli("null", "--config", str(tmp_path / "replay.json"),
                   "--out", str(second)) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_gen_checks_both_outputs_before_sampling(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("sampled before the outputs were checked")

    monkeypatch.setattr(cli, "sample_from_matrix", never)
    out = tmp_path / "d.csv"
    argv = ("gen", "--b", "1", "--m", "5", "--n", "30", "--out", str(out),
            "--r-out", str(tmp_path / "missing" / "r.json"))
    assert run_cli(*argv) == 2
    assert re.fullmatch(r"error: [^\n]+\n", capsys.readouterr().err)
    # the check leaves no file behind, and an existing one as it was
    assert not out.exists()
    out.write_bytes(b"kept")
    assert run_cli(*argv) == 2
    assert out.read_bytes() == b"kept"


def test_gen_outputs(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = run_cli("gen", "--family", "equicorrelation", "--b", "2", "--m", "10",
                   "--n", "50", "--seed", "1", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (50, 10)
    r_obj = json.loads((tmp_path / "data.csv.r.json").read_text())
    assert r_obj["m"] == 10
    assert len(r_obj["rho"]) == 10


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["gen", "--family", "banded:2", "--b", "1.5", "--m", "8", "--n", "20",
            "--seed", "3"]
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_power_to_stdout_matches_the_file(tmp_path, capsys):
    args = ["power", "--m", "6", "--n", "25", "--trials", "120", "--seed", "3",
            "--b-grid", "0,1"]
    out = tmp_path / "p.csv"
    assert run_cli(*args, "--out", str(out)) == 0
    to_file = capsys.readouterr()
    assert run_cli(*args, "--out", "-") == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out.encode() == out.read_bytes()
    # the summary goes to stderr when stdout carries the CSV
    assert to_file.err == ""
    assert to_stdout.err == to_file.out
    assert to_stdout.err.startswith("max |empirical - predicted| = ")


def test_gen_to_stdout_matches_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["gen", "--family", "banded:2", "--b", "1.5", "--m", "8", "--n", "20",
            "--seed", "3"]
    assert run_cli(*args, "--out", "data.csv") == 0
    assert run_cli(*args, "--out", "-") == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "data.csv").read_bytes()
    # only the file run writes a matrix JSON
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.csv.r.json"]


@pytest.mark.parametrize("argv", [
    ("power", "--m", "6", "--n", "25", "--trials", "100", "--b-grid", "0", "--out"),
    ("null", "--m", "6", "--n", "20", "--trials", "100", "--out"),
    ("null", "--m", "6", "--n", "20", "--trials", "100", "--z-out"),
    ("gen", "--b", "1", "--m", "5", "--n", "10", "--out"),
    ("gen", "--b", "1", "--m", "5", "--n", "10", "--r-out"),
    ("verify", "isserlis", "--report"),
], ids=["power", "null", "null-z-out", "gen", "gen-r-out", "verify"])
def test_an_unwritable_output_path_exits_2(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing" / "out")
    assert run_cli(*argv, missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err


@pytest.mark.parametrize("argv, entry", [
    (("power", "--trials", "4000", "--out"), "run_power_curve"),
    (("null", "--trials", "4000", "--out"), "run_null"),
    (("null", "--trials", "4000", "--z-out"), "run_null"),
    (("verify", "all", "--report"), "verify_kernels"),
], ids=["power", "null", "null-z-out", "verify"])
def test_an_unwritable_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                        argv, entry):
    def entered(*args, **kwargs):
        raise AssertionError(f"{entry} ran before the output path was checked")

    monkeypatch.setattr(cli, entry, entered)
    missing = str(tmp_path / "missing" / "out")
    assert run_cli(*argv, missing) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err
    assert list(tmp_path.iterdir()) == []


def test_null_has_no_family_option(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("null", "--m", "6", "--n", "20", "--trials", "100", "--family", "banded:2")
    assert info.value.code == 2


def test_gen_trial_past_64_bits_exits_2(tmp_path, capsys):
    data = tmp_path / "d.csv"
    assert run_cli("gen", "--b", "1", "--m", "5", "--n", "30", "--trial", str(2 ** 64),
                   "--out", str(data)) == 2
    assert capsys.readouterr() == ("", "error: trial index must fit in an unsigned "
                                       "64-bit integer\n")
    assert not data.exists() and not (tmp_path / "d.csv.r.json").exists()


def test_gen_unachievable(capsys):
    code = run_cli("gen", "--family", "sparse-pairs:1", "--b", "99", "--m", "10",
                   "--n", "10", "--seed", "0", "--out", "-")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_workers_env_ignored(monkeypatch, capsys):
    # the worker count comes from --workers alone, default 1
    monkeypatch.setenv("HIDIM_WORKERS", "junk")
    assert run_cli("null", "--m", "6", "--n", "20", "--trials", "100", "--seed", "1") == 0
    assert json.loads(capsys.readouterr().out)["config"]["workers"] == 1


def test_negative_zero_b_exits_2(tmp_path, capsys):
    # -0.0 passes b >= 0, but its sign bit is set: it is rejected as a negative b
    data = tmp_path / "d.csv"
    assert run_cli("gen", "--b", "-0", "--m", "3", "--n", "10", "--out", str(data)) == 2
    assert capsys.readouterr() == ("", "error: b must be nonnegative\n")
    assert not data.exists() and not (tmp_path / "d.csv.r.json").exists()
    assert run_cli("power", "--m", "6", "--n", "25", "--trials", "120", "--b-grid=-0,1") == 2
    assert capsys.readouterr() == ("", "error: b must be nonnegative\n")


def test_verify_isserlis(capsys):
    assert run_cli("verify", "isserlis") == 0
    out = capsys.readouterr().out
    assert "partition count" in out and "FAIL" not in out


def test_verify_bad_sizes(capsys):
    # a sample variance needs two trials
    for trials in ("1", "0", "-3"):
        assert run_cli("verify", "all", "--trials", trials) == 2
        assert capsys.readouterr() == ("", f"error: --trials must be an integer >= 2, "
                                           f"got {trials}\n")


def test_verify_rejects_a_non_positive_worker_count(capsys):
    for workers in ("0", "-4"):
        assert run_cli("verify", "all", "--workers", workers) == 2
        assert capsys.readouterr().err == (f"error: --workers must be an integer >= 1, "
                                           f"got {workers}\n")


@pytest.mark.parametrize("option", ["--seed", "--trials", "--workers"])
def test_verify_isserlis_takes_no_draw_options(capsys, option):
    # the identity gates draw nothing: a draw option there is unrecognized,
    # whatever its value
    for value in ("5", "1", "0"):
        with pytest.raises(SystemExit) as info:
            run_cli("verify", "isserlis", option, value)
        assert info.value.code == 2
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, module, attr", [
    (("gen", "--b", "1", "--m", "5", "--n", "30", "--out", "-"),
     "hidim.generators", "standard_normal_block"),
    (("null", "--m", "6", "--n", "20", "--trials", "100"),
     "hidim.generators", "standard_normal_block"),
    (("verify", "all", "--trials", "100"), "hidim.generators", "standard_normal_blocks"),
])
def test_a_refused_memory_request_exits_2(monkeypatch, capsys, argv, module, attr):
    # stands in for numpy's MemoryError on a size the OS refuses, without
    # allocating it; a run of m variables and n samples names them
    message = ("Unable to allocate 59.6 GiB for an array with shape "
               "(8000000000,) and data type float64")
    sized = {"gen": "cannot run m = 5 and n = 30: ", "null": "cannot run m = 6 and n = 20: "}

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"{module}.{attr}", refuse)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {sized.get(argv[0], '')}{message}\n"


_IDENTITY_GATES = [f"partition count k={k}" for k in range(1, 7)] + [
    "pair moment identity (200 random)", "S(2) closed form (25 random)",
    "kernel means vs expansion (grid)", "f(1,1,rho)", "d2f/du3^2", "d2f/du1du3"]


def test_verify_isserlis_prints_the_twelve_identity_gates(capsys):
    assert run_cli("verify", "isserlis") == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [re.fullmatch(r"pass  (.*): (\|rel err\||\|err\|) = \d\.\d{3}e[+-]\d\d", line)
            for line in lines]
    assert all(rows), lines
    assert [row.group(1) for row in rows] == _IDENTITY_GATES
    # the pair-moment row is an absolute error, like the three spot identities
    assert [row.group(2) for row in rows] == (["|rel err|"] * 6 + ["|err|"] + ["|rel err|"] * 2
                                              + ["|err|"] * 3)
    # the identity gates have one command
    with pytest.raises(SystemExit) as info:
        run_cli("verify-moments")
    assert info.value.code == 2


def test_random_corr_stores_what_the_constructor_stores():
    # the gates' matrices skip the structure checks, not the symmetrization
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(2, 15))
        assert int(twin.integers(2, 15)) == m
        got = moments.random_corr(rng, m)
        a = twin.standard_normal((m, m + 3))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        want = CorrMatrix(cov / np.outer(d, d))
        assert got.rho.tobytes() == want.rho.tobytes()
        assert not got.rho.flags.writeable


# each input of the identity battery, perturbed through hidim.moments: how,
# and the gates that must fail
_NUDGE = 1.0 + 1e-9
_PERTURBATIONS = {
    # isserlis_moment sums over the matchings, so the Wick sums behind the
    # pair-moment and kernel-mean oracles lose a term too
    "pair_partitions": (lambda f: lambda k: f(k)[:-1],
                        _IDENTITY_GATES[:7] + ["kernel means vs expansion (grid)"]),
    # s_sum enumerates the pair moments, so the S(2) gate reads them too
    "central_pair_moment": (lambda f: lambda *args: f(*args) * _NUDGE,
                            ["pair moment identity (200 random)",
                             "S(2) closed form (25 random)"]),
    "s_sum": (lambda f: lambda k, r: f(k, r) * (_NUDGE if k == 2 else 1.0),
              ["S(2) closed form (25 random)"]),
    "kernel_expectations": (
        lambda f: lambda rho, n: {h: mean * _NUDGE for h, mean in f(rho, n).items()},
        ["kernel means vs expansion (grid)"]),
    "f_partial": (lambda f: lambda *args: f(*args) + 1e-9,
                  ["f(1,1,rho)", "d2f/du3^2", "d2f/du1du3"]),
}


@pytest.mark.parametrize("name", list(_PERTURBATIONS))
def test_a_perturbed_battery_input_fails_only_its_gates(monkeypatch, capsys, name):
    perturbed, failing = _PERTURBATIONS[name]
    monkeypatch.setattr(moments, name, perturbed(getattr(moments, name)))
    # kernels caches its per-slot means: empty the cache before the run, so
    # a dropped matching reaches it, and after, so none is kept
    kernels._slot_mean.cache_clear()
    try:
        assert run_cli("verify", "isserlis") == 1
    finally:
        kernels._slot_mean.cache_clear()
    out, err = capsys.readouterr()
    assert re.findall(r"^FAIL  (.*): ", out, re.M) == failing, out
    assert out.count("pass  ") == 12 - len(failing)
    assert err == "failed gates: " + ", ".join(failing) + "\n"


@pytest.mark.parametrize("error", [1e-9, float("nan")])
def test_verify_report_lists_every_gate(tmp_path, capsys, monkeypatch, error):
    report = tmp_path / "report.json"
    assert run_cli("verify", "isserlis", "--report", str(report)) == 0
    obj = strict_json(report.read_text())
    assert [gate["name"] for gate in obj["identities"]] == _IDENTITY_GATES
    assert all(gate["passed"] and 0.0 <= gate["error"] <= gate["bound"] == 1e-12
               for gate in obj["identities"])
    assert obj["checks"] == [] and obj["all_passed"] is True
    assert obj["config"] == {"which": "isserlis"}
    # a failed identity fails the report as it fails the exit code
    rows = moments.identity_rows()
    monkeypatch.setattr(cli, "identity_rows",
                        lambda: rows[:-1] + [(*rows[-1][:2], error)])
    assert run_cli("verify", "isserlis", "--report", str(report)) == 1
    # a NaN error is written as null, which strict JSON readers take
    obj = strict_json(report.read_text())
    assert [gate["passed"] for gate in obj["identities"]] == [True] * 11 + [False]
    assert obj["identities"][-1]["error"] == (None if np.isnan(error) else error)
    assert obj["all_passed"] is False
    assert capsys.readouterr().err == "failed gates: d2f/du1du3\n"


@pytest.mark.parametrize("argv", [
    ("verify", "all", "--trials", "1"),
    ("verify", "all", "--workers", "0"),
    ("verify", "isserlis", "--report", "-"),
    ("gen", "--b", "1", "--m", "5", "--n", "0"),
    ("gen", "--b", "1", "--m", "3", "--n", "5", "--out", "d.csv", "--r-out", "-"),
    ("gen", "--b", "nan", "--m", "4", "--n", "10", "--out", "d.csv"),
    ("gen", "--family", "banded:2", "--b", "inf", "--m", "4", "--n", "10", "--out", "d.csv"),
    ("power", "--m", "6", "--n", "25", "--trials", "120", "--b-grid", "0,nan"),
    ("power", "--m", "6", "--n", "25", "--trials", "120", "--b-grid", "0,x"),
    ("null", "--m", "6", "--n", "25", "--trials", "120", "--z-out", "-"),
    ("null", "--m", "6", "--n", "25", "--trials", "120", "--out", "n.json", "--z-out", "-"),
    # a centered covariance needs two samples
    ("null", "--m", "6", "--n", "1", "--trials", "100", "--cov-mode", "centered",
     "--out", "nn.json"),
    ("power", "--m", "6", "--n", "1", "--trials", "100", "--cov-mode", "centered",
     "--b-grid", "0,1", "--out", "pp.csv"),
    # two outputs that resolve to one file: the second write would replace the first
    ("null", "--m", "6", "--n", "20", "--trials", "100", "--out", "f.json", "--z-out", "f.json"),
    ("null", "--m", "6", "--n", "20", "--trials", "100", "--out", "f.json",
     "--z-out", "./f.json"),
    ("gen", "--b", "1", "--m", "5", "--n", "30", "--out", "f.csv", "--r-out", "f.csv"),
    # a seed outside 64 bits, a family that does not fit in m, an overflowing signal
    ("gen", "--b", "1", "--m", "5", "--n", "30", "--seed", "-1", "--out", "s_d.csv"),
    ("gen", "--family", "sparse-pairs:3", "--b", "1", "--m", "5", "--n", "30", "--out", "-"),
    ("gen", "--family", "banded:2", "--b", "1e308", "--m", "8", "--n", "2", "--out", "o_d.csv"),
])
def test_hostile_sizes_exit_2_before_any_gate(tmp_path, monkeypatch, capsys, argv):
    def entered(*args, **kwargs):
        raise AssertionError("the run started before its options were checked")

    for entry in ("identity_rows", "verify_kernels", "run_checks", "run_power_curve",
                  "run_null", "sample_from_matrix"):
        monkeypatch.setattr(cli, entry, entered)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: [^\n]+\n", err), err
    # no output file is written, and '-' names no file
    assert list(tmp_path.iterdir()) == []


_BIG = str(10 ** 30)


@pytest.mark.parametrize("argv, m, n", [
    (("power", "--m", _BIG, "--n", "80", "--trials", "100", "--out", "big.csv"), _BIG, "80"),
    (("null", "--m", "6", "--n", _BIG, "--trials", "100", "--out", "big.json"), "6", _BIG),
    (("gen", "--b", "1", "--m", _BIG, "--n", "80", "--out", "g.csv"), _BIG, "80"),
    (("gen", "--b", "1", "--m", "5", "--n", _BIG, "--out", "g.csv"), "5", _BIG),
], ids=["power-m", "null-n", "gen-m", "gen-n"])
def test_a_size_past_numpys_limit_names_m_and_n(tmp_path, monkeypatch, capsys, argv, m, n):
    # numpy refuses the array before it allocates anything
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: cannot run m = {m} and n = {n}: Maximum allowed "
                        r"(dimension|size) exceeded\n", err), err
    assert list(tmp_path.iterdir()) == []


def test_a_config_size_past_numpys_limit_names_m_and_n(tmp_path, capsys):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({**SimConfig(m=6, n=20, trials=100, alpha=0.05, seed=Seed(1),
                                                b_grid=(0.0, 1.0)).to_json_obj(),
                                  "m": 10 ** 30}))
    assert run_cli("power", "--config", str(config), "--out", str(tmp_path / "p.csv")) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot run m = {_BIG} and n = 20: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_an_error_of_the_run_itself_is_not_renamed(tmp_path, monkeypatch, capsys):
    # only numpy's ValueError and MemoryError gain m and n; a HidimError
    # raised inside the run keeps its own line
    def domain(config):
        raise DomainError("a domain error of the run")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_null", domain)
    assert run_cli("null", "--m", "6", "--n", "20", "--trials", "100", "--out", "n.json") == 2
    assert capsys.readouterr() == ("", "error: a domain error of the run\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (("verify", "isserlis", "--report"), "--report"),
    (("gen", "--b", "1", "--m", "3", "--n", "5", "--out", "d.csv", "--r-out"), "--r-out"),
    (("null", "--m", "6", "--n", "25", "--trials", "120", "--z-out"), "--z-out"),
], ids=["verify", "gen", "null"])
def test_a_dash_for_a_file_only_output_exits_2(tmp_path, monkeypatch, capsys, argv, flag):
    # '-' means stdout for --out alone; these outputs cannot share it
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "-") == 2
    assert capsys.readouterr() == ("", f"error: {flag} needs a file path, not '-'\n")
    assert list(tmp_path.iterdir()) == []


def test_a_biased_exact_value_fails_its_check(monkeypatch, capsys, tmp_path):
    # each exact value a Monte Carlo check is judged against, 25% too large,
    # fails that check and no other at the default sizes
    var_i_exact, expected_ii1 = sim.var_i_exact, sim.expected_ii1
    kernel_expectations = sim.kernel_expectations
    monkeypatch.setattr(sim, "var_i_exact", lambda r, n: 1.25 * var_i_exact(r, n))
    monkeypatch.setattr(sim, "expected_ii1", lambda r, n: 1.25 * expected_ii1(r, n))
    monkeypatch.setattr(sim, "kernel_expectations", lambda rho, n: {
        **kernel_expectations(rho, n), "h1": 1.25 * kernel_expectations(rho, n)["h1"]})
    report = tmp_path / "report.json"
    for seed in range(3):
        assert run_cli("verify", "all", "--seed", str(seed), "--report", str(report)) == 1
        checks = json.loads(report.read_text())["checks"]
        assert {c["name"] for c in checks if not c["passed"]} == {
            "var_i", "var_i_equi", "e_ii1", "h1"}
    capsys.readouterr()


def test_verify_kernels_quick():
    # sizes other than verify's run through the library call
    checks = sim.verify_kernels(-0.3, 12, 20000, Seed(4))
    assert [chk.name for chk in checks] == ["h1", "h2", "h2_bar", "h3", "h3_bar"]
    assert all(chk.passed for chk in checks)
    exact = kernel_expectations(-0.3, 12)
    assert [chk.exact for chk in checks] == [exact[chk.name.removesuffix("_bar")]
                                             for chk in checks]


def test_verify_all_draws_no_trial_stream_for_the_kernels(monkeypatch, capsys):
    # the kernel check's blocks take stream indices down from 2^64 - 1, the
    # moment checks' trials up from 0, so no stream of the run is read twice
    drawn, caller = {"kernels": [], "moments": []}, []
    blocks = sim._generators.standard_normal_blocks

    def recording(seed, streams, rows, cols):
        drawn[caller[-1]].extend(streams)
        return blocks(seed, streams, rows, cols)

    def labelled(name, run):
        def call(*args, **kwargs):
            caller.append(name)
            try:
                return run(*args, **kwargs)
            finally:
                caller.pop()
        return call

    monkeypatch.setattr(sim._generators, "standard_normal_blocks", recording)
    monkeypatch.setattr(cli, "verify_kernels", labelled("kernels", cli.verify_kernels))
    monkeypatch.setattr(cli, "run_checks", labelled("moments", cli.run_checks))
    run_cli("verify", "all", "--trials", "2000", "--seed", "3")
    capsys.readouterr()
    assert sorted(drawn["moments"]) == list(range(2000))
    # 100,000 kernel draws are 13 blocks of 8192
    assert drawn["kernels"] == [2 ** 64 - 1 - b for b in range(13)]
    assert not set(drawn["kernels"]) & set(drawn["moments"])


def test_verify_all_runs_the_fixed_battery(tmp_path, capsys):
    report = tmp_path / "r.json"
    run_cli("verify", "all", "--trials", "200", "--report", str(report))
    capsys.readouterr()
    exact = {chk["name"]: chk["exact"] for chk in json.loads(report.read_text())["checks"]}
    kernels = kernel_expectations(0.5, 10)
    equi = make_family_matrix(AlternativeFamily.equicorrelation(), 0.2, 5)
    assert exact == {"h1": kernels["h1"], "h2": kernels["h2"], "h2_bar": kernels["h2"],
                     "h3": kernels["h3"], "h3_bar": kernels["h3"],
                     "var_i": var_i_exact(CorrMatrix.identity(5), 30),
                     "var_i_equi": var_i_exact(equi, 30),
                     "e_ii1": expected_ii1(CorrMatrix.identity(4), 20), "e_i": 0.0}
    # the sizes are constants, and the single-check modes are gone
    for argv in (("all", "--m", "6"), ("all", "--n", "40"), ("all", "--m-ii1", "3"),
                 ("all", "--n-ii1", "30"), ("all", "--rho", "0.3"),
                 ("all", "--n-kernels", "12"), ("all", "--trials-kernels", "500"),
                 ("kernels",), ("var-i",), ("e-ii1",)):
        with pytest.raises(SystemExit) as info:
            run_cli("verify", *argv)
        assert info.value.code == 2
    capsys.readouterr()


def test_verify_report_replays_the_run(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    run_cli("verify", "all", "--trials", "200", "--seed", "3", "--workers", "2",
            "--report", str(first))
    config = json.loads(first.read_text())["config"]
    assert config == {"which": "all", "seed": 3, "workers": 2, "trials": 200}
    argv = ["verify", config.pop("which"), "--report", str(second)]
    for key, value in config.items():
        argv += ["--" + key, str(value)]
    run_cli(*argv)
    capsys.readouterr()
    assert second.read_text() == first.read_text()
