"""Command-line interface.

Subcommands: test (run the independence test on a CSV of observations),
power (power curve over a b grid), null (null calibration), verify /
verify-moments (exact-identity and Monte Carlo oracle gates), gen
(sample synthetic data from a calibrated alternative).

Exit codes: 0 success, 1 verification gate failure, 2 usage/config/parse
error, 3 degenerate data (zero-variance column).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (ConfigError, DegenerateColumn, DomainError, HidimError,
                     NotPositiveSemidefinite, Unachievable)
from .generators import (AlternativeFamily, Seed, calibrate_to_theta,
                         make_family_matrix, sample_from_matrix)
from .matrix import CorrMatrix
from .moments import (central_pair_moment, central_product_moment,
                      f_partial, kernel_expectations, pair_partitions, s_sum)
from .stats import CovMode, DataMatrix, max_statistic, rao_score_test
# verify_var_i and verify_e_ii1 are not called here, but bench/tracing.py
# wraps them at this lookup site, so the names stay bound.
from .sim import (MomentCheck, SimConfig, e_ii1_check, run_checks, run_null,
                  run_power_curve, var_i_check, verification_report_json,
                  verify_e_ii1, verify_kernels, verify_var_i, write_power_csv)
from . import kernels as _kernels

_EXIT_OK = 0
_EXIT_GATE = 1
_EXIT_USAGE = 2
_EXIT_DEGENERATE = 3


def _workers_default() -> int:
    """Worker count when --workers is not given: HIDIM_WORKERS if set, else 1."""
    env = os.environ.get("HIDIM_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"HIDIM_WORKERS must be a positive integer, got {env!r}")
    return workers


def _cov_mode(text: str) -> CovMode:
    return CovMode.KNOWN_ZERO_MEAN if text == "zero-mean" else CovMode.SAMPLE_CENTERED


def _print_table(rows, header) -> None:
    widths = [max(len(str(r[i])) for r in ([header] + rows)) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def cmd_test(args) -> int:
    try:
        values = np.loadtxt(args.data, delimiter=",", skiprows=1 if args.header else 0,
                            ndmin=2)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read data file: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        data = DataMatrix(values)
    except ValueError as exc:
        print(f"error: invalid data: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    if data.n < 2 or data.m < 2:
        print("error: need at least 2 rows and 2 columns", file=sys.stderr)
        return _EXIT_USAGE
    mode = _cov_mode(args.cov_mode)
    try:
        report = rao_score_test(data, args.alpha, mode)
        max_stat = max_statistic(data, mode)
    except DegenerateColumn as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    if args.format == "json":
        obj = report.to_json_obj()
        obj.update({"max_statistic": max_stat, "n": data.n, "m": data.m,
                    "cov_mode": mode.value, "version": __version__})
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        print("t_value,centered,z_value,p_value,alpha,reject,max_statistic")
        print(",".join([repr(report.t_value), repr(report.centered),
                        repr(report.z_value), repr(report.p_value),
                        repr(report.alpha), "true" if report.reject else "false",
                        repr(max_stat)]))
    else:
        rows = [
            ("statistic T", f"{report.t_value:.10g}"),
            ("centered (T - m(m-1)/(2n))", f"{report.centered:.10g}"),
            ("z value", f"{report.z_value:.10g}"),
            ("p value", f"{report.p_value:.6g}"),
            ("alpha", f"{report.alpha:g}"),
            ("reject independence", "yes" if report.reject else "no"),
            ("max squared correlation", f"{max_stat:.10g}"),
        ]
        _print_table(rows, ("quantity", "value"))
    return _EXIT_OK


def _config_from_args(args) -> SimConfig:
    if getattr(args, "config", None):
        with open(args.config) as handle:
            cfg = SimConfig.from_json_obj(json.load(handle))
        return cfg
    b_grid = ()
    if getattr(args, "b_grid", None):
        b_grid = tuple(float(v) for v in args.b_grid.split(","))
    return SimConfig(
        m=args.m, n=args.n, trials=args.trials, alpha=args.alpha,
        seed=Seed(args.seed), family=AlternativeFamily.parse(args.family),
        b_grid=b_grid, cov_mode=_cov_mode(args.cov_mode), workers=args.workers)


def cmd_power(args) -> int:
    try:
        config = _config_from_args(args)
        config.validate()
        if not config.b_grid:
            raise ConfigError("power runs need a nonempty --b-grid")
        points = run_power_curve(config)
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    handle, close = _open_out(args.out)
    try:
        write_power_csv(points, handle)
    finally:
        if close:
            handle.close()
    live = [p for p in points if not p.skipped]
    gap = max((abs(p.empirical_power - p.predicted_power) for p in live), default=float("nan"))
    summary = (f"max |empirical - predicted| = {gap:.4g} over {len(live)} points "
               f"({len(points) - len(live)} skipped); predictions are asymptotic, "
               "agreement windows are engineering tolerances")
    print(summary, file=sys.stderr if close is False else sys.stdout)
    return _EXIT_OK


def cmd_null(args) -> int:
    try:
        config = _config_from_args(args)
        report = run_null(config, z_samples_path=args.z_out)
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    text = json.dumps(report.to_json_obj(), indent=2)
    if args.out and args.out != "-":
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return _EXIT_OK


def cmd_gen(args) -> int:
    try:
        family = AlternativeFamily.parse(args.family)
        r = calibrate_to_theta(family, args.b, args.m, args.n)
        data = sample_from_matrix(r, args.n, Seed(args.seed), args.trial)
    except (Unachievable, NotPositiveSemidefinite, DomainError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    handle, close = _open_out(args.out)
    try:
        np.savetxt(handle, data.values, delimiter=",", fmt="%.17g")
    finally:
        if close:
            handle.close()
    r_out = args.r_out
    if r_out is None and args.out and args.out != "-":
        r_out = args.out + ".r.json"
    if r_out:
        with open(r_out, "w") as handle:
            handle.write(r.to_json() + "\n")
    return _EXIT_OK


def _exact_identity_rows():
    """(quantity, closed form, oracle value, |relative error|) rows for the
    fast deterministic identity gates."""
    rng = np.random.default_rng(20240817)
    rows = []

    for k in range(1, 7):
        import math
        closed = math.factorial(2 * k) // (2 ** k * math.factorial(k))
        oracle = len(pair_partitions(k))
        rows.append((f"partition count k={k}", closed, oracle,
                     abs(closed - oracle) / closed))

    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 8))
        a = rng.standard_normal((m, m + 3))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        r = CorrMatrix(cov / np.outer(d, d))
        idx = rng.integers(0, m, size=4)
        closed = central_pair_moment(*(int(i) for i in idx), r)
        oracle = central_product_moment([(int(idx[0]), int(idx[1])),
                                         (int(idx[2]), int(idx[3]))], r)
        scale = max(abs(closed), abs(oracle), 1e-12)
        worst = max(worst, abs(closed - oracle) / scale)
    rows.append(("pair moment identity (200 random)", "-", "-", worst))

    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(2, 15))
        a = rng.standard_normal((m, m + 3))
        cov = a @ a.T
        d = np.sqrt(np.diag(cov))
        r = CorrMatrix(cov / np.outer(d, d))
        off = r.rho[np.triu_indices(m, 1)]
        closed = float(np.sum(1.0 + 2.0 * off ** 2 + off ** 4))
        oracle = s_sum(2, r)
        worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-12))
    rows.append(("S(2) closed form (25 random)", "-", "-", worst))

    worst = 0.0
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.9):
        for n in (4, 6, 10, 25):
            exact = kernel_expectations(rho, n)
            for name, closed in (("h1", exact.e_h1), ("h2", exact.e_h2),
                                 ("h3", exact.e_h3)):
                oracle = _kernels.expectation_by_expansion(name, rho, n)
                worst = max(worst, abs(closed - oracle) / max(abs(closed), 1e-12))
    rows.append(("kernel means vs expansion (grid)", "-", "-", worst))
    return rows


def cmd_verify_moments(args) -> int:
    rows = _exact_identity_rows()
    printable = [(q, str(c), str(o), f"{err:.3e}") for q, c, o, err in rows]
    _print_table(printable, ("quantity", "closed form", "oracle", "|rel err|"))
    ok = all(err <= 1e-12 for _, _, _, err in rows)
    print("all identities pass" if ok else "IDENTITY FAILURE", file=sys.stderr)
    return _EXIT_OK if ok else _EXIT_GATE


def _run_verify(which: str, args) -> int:
    failures = []
    checks: list[MomentCheck] = []
    seed = Seed(args.seed)

    if which in ("all", "isserlis"):
        rows = _exact_identity_rows()
        for quantity, _, _, err in rows:
            status = "pass" if err <= 1e-12 else "FAIL"
            print(f"{status}  {quantity}: |rel err| = {err:.3e}")
            if err > 1e-12:
                failures.append(quantity)
        # partial-derivative spot identities at a few exactly-known points
        spots = [
            (("f(1,1,rho)"), f_partial((0, 0, 0), 1.0, 1.0, 0.7), 0.49),
            (("d2f/du3^2"), f_partial((0, 0, 2), 1.0, 1.0, 0.7), 2.0),
            (("d2f/du1du3"), f_partial((1, 0, 1), 1.0, 1.0, 0.7), -1.4),
        ]
        for name, got, want in spots:
            err = abs(got - want)
            status = "pass" if err <= 1e-12 else "FAIL"
            print(f"{status}  {name}: |err| = {err:.3e}")
            if err > 1e-12:
                failures.append(name)

    if which in ("all", "kernels"):
        checks.extend(verify_kernels(args.rho, args.n_kernels, args.trials_kernels, seed))

    moment_checks = []
    if which in ("all", "var-i"):
        equi = make_family_matrix(AlternativeFamily.equicorrelation(), 0.2, args.m)
        moment_checks += [var_i_check(CorrMatrix.identity(args.m), args.n),
                          var_i_check(equi, args.n, name="var_i_equi")]
    if which in ("all", "e-ii1"):
        moment_checks.append(e_ii1_check(CorrMatrix.identity(args.m_ii1), args.n_ii1))
    if moment_checks:
        for results in run_checks(moment_checks, args.trials, seed, workers=args.workers):
            checks.extend(results)

    for chk in checks:
        status = "pass" if chk.passed else "FAIL"
        print(f"{status}  {chk.name}: mc = {chk.mc_value:.6g}, exact = {chk.exact:.6g}, "
              f"|z| = {abs(chk.z_score):.2f}")
        if not chk.passed:
            failures.append(chk.name)

    if args.report:
        # every option of the run, so the report replays it
        cfg = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "report")}
        with open(args.report, "w") as handle:
            handle.write(verification_report_json(checks, cfg) + "\n")

    if failures:
        print("failed gates: " + ", ".join(failures), file=sys.stderr)
        return _EXIT_GATE
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidim",
        description="Independence testing for many jointly normal variables "
                    "via the sum of squared pairwise sample correlations.")
    parser.add_argument("--version", action="version", version=f"hidim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the independence test on a CSV file")
    p_test.add_argument("data", help="CSV with n rows (samples) and m columns (variables)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--header", action="store_true", help="skip a header row")
    p_test.add_argument("--cov-mode", choices=["zero-mean", "centered"], default="centered")
    p_test.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p_test.set_defaults(func=cmd_test)

    p_power = sub.add_parser("power", help="empirical power curve over a b grid")
    p_power.add_argument("--config", help="JSON SimConfig file (flags override nothing)")
    p_power.add_argument("--m", type=int, default=40)
    p_power.add_argument("--n", type=int, default=80)
    p_power.add_argument("--trials", type=int, default=1000)
    p_power.add_argument("--alpha", type=float, default=0.05)
    p_power.add_argument("--seed", type=int, default=0)
    p_power.add_argument("--workers", type=int)
    p_power.add_argument("--family", default="equicorrelation")
    p_power.add_argument("--b-grid", default="0,1,2,3")
    p_power.add_argument("--cov-mode", choices=["zero-mean", "centered"],
                         default="zero-mean")
    p_power.add_argument("--out", default="-", help="CSV output path ('-' = stdout)")
    p_power.set_defaults(func=cmd_power)

    p_null = sub.add_parser("null", help="null calibration at level alpha")
    p_null.add_argument("--config")
    p_null.add_argument("--m", type=int, default=50)
    p_null.add_argument("--n", type=int, default=100)
    p_null.add_argument("--trials", type=int, default=1000)
    p_null.add_argument("--alpha", type=float, default=0.05)
    p_null.add_argument("--seed", type=int, default=0)
    p_null.add_argument("--workers", type=int)
    p_null.add_argument("--family", default="equicorrelation")
    p_null.add_argument("--cov-mode", choices=["zero-mean", "centered"],
                        default="zero-mean")
    p_null.add_argument("--out", default="-", help="JSON report path ('-' = stdout)")
    p_null.add_argument("--z-out", default=None,
                        help="optional CSV of standardized statistic samples")
    p_null.set_defaults(func=cmd_null)

    p_verify = sub.add_parser("verify", help="run verification gates")
    p_verify.add_argument("which", choices=["all", "isserlis", "kernels", "var-i", "e-ii1"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=int)
    p_verify.add_argument("--m", type=int, default=5, help="dimension for var-i")
    p_verify.add_argument("--n", type=int, default=30, help="sample size for var-i")
    p_verify.add_argument("--trials", type=int, default=20000,
                          help="trials for var-i / e-ii1")
    p_verify.add_argument("--m-ii1", type=int, default=4)
    p_verify.add_argument("--n-ii1", type=int, default=20)
    p_verify.add_argument("--rho", type=float, default=0.5, help="rho for kernels")
    p_verify.add_argument("--n-kernels", type=int, default=10)
    p_verify.add_argument("--trials-kernels", type=int, default=100000)
    p_verify.add_argument("--report", default=None, help="optional JSON report path")
    p_verify.set_defaults(func=lambda args: _run_verify(args.which, args))

    p_vm = sub.add_parser("verify-moments",
                          help="table of exact moment identities vs oracles")
    p_vm.set_defaults(func=cmd_verify_moments)

    p_gen = sub.add_parser("gen", help="sample synthetic data from a calibrated alternative")
    p_gen.add_argument("--family", default="equicorrelation")
    p_gen.add_argument("--b", type=float, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--trial", type=int, default=0)
    p_gen.add_argument("--out", default="-", help="data CSV path ('-' = stdout)")
    p_gen.add_argument("--r-out", default=None,
                       help="correlation matrix JSON path (default: <out>.r.json)")
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "workers", 1) is None:
            args.workers = _workers_default()
        return args.func(args)
    except HidimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
