import json

import numpy as np
import pytest

from hidim import SimConfig
from hidim.cli import main


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
                        "reject", "max_statistic", "n", "m"}
    assert obj["n"] == 40 and obj["m"] == 4


def test_test_csv_format(tmp_path, capsys):
    rng = np.random.default_rng(6)
    path = tmp_path / "data.csv"
    write_csv(path, rng.standard_normal((30, 3)))
    assert run_cli("test", str(path), "--format", "csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_value,centered,z_value,p_value,alpha,reject,max_statistic"
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
    err = capsys.readouterr().err
    assert code == 3
    assert "column" in err and "0" in err


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


def test_power_skipped_row(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = run_cli("power", "--m", "8", "--n", "30", "--trials", "120",
                   "--seed", "1", "--family", "sparse-pairs:1",
                   "--b-grid", "0,60", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[-1].endswith("true")


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
    cfg = SimConfig.from_json_obj(obj["config"])
    assert cfg.m == 6 and cfg.n == 25 and cfg.trials == 120 and cfg.seed.master == 7
    assert np.loadtxt(z_out).shape == (120,)


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


def test_gen_unachievable(capsys):
    code = run_cli("gen", "--family", "sparse-pairs:1", "--b", "99", "--m", "10",
                   "--n", "10", "--seed", "0", "--out", "-")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_workers_env_fallback(monkeypatch, capsys):
    null = ("null", "--m", "6", "--n", "20", "--trials", "100", "--seed", "1")
    monkeypatch.setenv("HIDIM_WORKERS", "3")
    assert run_cli(*null) == 0
    assert json.loads(capsys.readouterr().out)["config"]["workers"] == 3
    for bad in ("junk", "0", "-2"):
        monkeypatch.setenv("HIDIM_WORKERS", bad)
        assert run_cli(*null) == 2
        assert capsys.readouterr().err == (
            f"error: HIDIM_WORKERS must be a positive integer, got '{bad}'\n")
    # an explicit --workers never reads the variable
    assert run_cli(*null, "--workers", "2") == 0
    assert json.loads(capsys.readouterr().out)["config"]["workers"] == 2


def test_verify_isserlis(capsys):
    assert run_cli("verify", "isserlis") == 0
    out = capsys.readouterr().out
    assert "partition count" in out and "FAIL" not in out


def test_verify_bad_sizes(capsys):
    # a sample variance needs two trials, a sample one row
    for which in ("var-i", "e-ii1"):
        assert run_cli("verify", which, "--trials", "0") == 2
        assert "at least 2 trials" in capsys.readouterr().err
    assert run_cli("verify", "var-i", "--n", "0", "--trials", "100") == 2
    assert "n must be a positive integer" in capsys.readouterr().err
    for trials in ("1", "0", "-3"):
        assert run_cli("verify", "kernels", "--trials-kernels", trials) == 2
        assert "at least 2 trials" in capsys.readouterr().err


def test_verify_moments_table(capsys):
    assert run_cli("verify-moments") == 0
    out = capsys.readouterr().out
    assert "closed form" in out and "oracle" in out


def test_verify_kernels_quick(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli("verify", "kernels", "--rho", "0.5", "--n-kernels", "10",
                   "--trials-kernels", "20000", "--seed", "4",
                   "--report", str(report))
    capsys.readouterr()
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["all_passed"] is True
    assert len(obj["checks"]) == 5


def test_verify_report_replays_the_run(tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    run_cli("verify", "e-ii1", "--m-ii1", "6", "--n-ii1", "25", "--trials", "200",
            "--seed", "3", "--workers", "2", "--n-kernels", "12",
            "--trials-kernels", "500", "--report", str(first))
    config = json.loads(first.read_text())["config"]
    assert config == {"which": "e-ii1", "seed": 3, "workers": 2, "m": 5, "n": 30,
                      "trials": 200, "m_ii1": 6, "n_ii1": 25, "rho": 0.5,
                      "n_kernels": 12, "trials_kernels": 500}
    argv = ["verify", config.pop("which"), "--report", str(second)]
    for key, value in config.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    run_cli(*argv)
    capsys.readouterr()
    assert second.read_text() == first.read_text()
