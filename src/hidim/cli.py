"""Command-line interface.

Subcommands: test (run the independence test on a CSV of observations),
power (power curve over a b grid), null (null calibration), verify
(exact-identity and Monte Carlo oracle gates), gen (sample synthetic data
from a calibrated alternative).

Exit codes: 0 success, 1 verification gate failure, 3 degenerate data (a
DegenerateColumn), 2 any other HidimError, ValueError, MemoryError or
OSError (usage, config, parse, a file that cannot be read or written, a
memory request the OS refuses).  The subcommands raise; ``main`` alone maps
an exception to its one ``error:`` line and exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateColumn, HidimError, require_count
from .generators import (AlternativeFamily, Seed, calibrate_to_theta,
                         make_family_matrix, sample_from_matrix)
from .matrix import CorrMatrix
# verify_var_i, verify_e_ii1 and the six moments names after identity_rows
# are not called here, but bench/tracing.py wraps them at this lookup site,
# so the names stay bound.
from .moments import (IDENTITY_BOUND, identity_rows, central_pair_moment,
                      central_product_moment, f_partial, kernel_expectations,
                      pair_partitions, s_sum)
from .stats import CovMode, DataMatrix, rao_score_test
from .sim import (MomentCheck, SimConfig, e_ii1_check, run_checks, run_null,
                  run_power_curve, var_i_check, verification_report_json,
                  verify_e_ii1, verify_kernels, verify_var_i, write_power_csv)

_EXIT_OK = 0
_EXIT_GATE = 1
_EXIT_USAGE = 2
_EXIT_DEGENERATE = 3


def _check_writable(out=None, **files) -> None:
    """Open each output path and close it, so that one that cannot be
    written raises its OSError (exit 2) before the run rather than after it.
    An existing file is opened for appending and left as it is until the run
    writes it; a missing one is created and removed at once, so a run that
    fails leaves no file behind.  `out` may be '-' for stdout; `files`, keyed
    by their flag's dest, share neither stdout ('-') nor a file with another."""
    named = {}
    for dest, path in {"out": out, **files}.items():
        flag = "--" + dest.replace("_", "-")
        if path == "-" and dest != "out":
            raise ConfigError(f"{flag} needs a file path, not '-'")
        if path is None or path == "-":
            continue
        first = named.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ConfigError(f"{first} and {flag} name the same file: {path}")
        try:
            open(path, "x").close()
            os.remove(path)
        except FileExistsError:
            open(path, "a").close()


@contextlib.contextmanager
def _sized(m, n):
    """Re-raise what numpy raises for an array it cannot make, a ValueError
    past its dimension limit or a MemoryError the OS refused, as a
    ConfigError that names the m and n of the run."""
    try:
        yield
    except HidimError:
        raise
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"cannot run m = {m} and n = {n}: {exc}") from exc


def _output(path: str):
    """The text handle an --out path names: stdout for '-', else the file,
    truncated."""
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="")


def cmd_test(args) -> int:
    try:
        with warnings.catch_warnings():  # DataMatrix reports an empty file
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(args.data, delimiter=",",
                                skiprows=1 if args.header else 0, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data file: {exc}") from exc
    try:
        data = DataMatrix(values)
    except ValueError as exc:
        raise ConfigError(f"invalid data: {exc}") from exc
    if data.n < 2 or data.m < 2:
        raise ConfigError("need at least 2 rows and 2 columns")
    mode = CovMode(args.cov_mode)
    # an overflow surfaces as a DomainError, not as numpy warnings
    with np.errstate(all="ignore"):
        report = rao_score_test(data, args.alpha, mode)

    # (key, label, value, table format) of each reported quantity
    rows = [("t_value", "statistic T", report.t_value, ".10g"),
            ("centered", "centered (T - m(m-1)/(2n))", report.centered, ".10g"),
            ("z_value", "z value", report.z_value, ".10g"),
            ("p_value", "p value", report.p_value, ".6g"),
            ("alpha", "alpha", report.alpha, "g"),
            ("reject", "reject independence", report.reject, None)]
    if args.format == "json":
        obj = {key: value for key, _, value, _ in rows}
        obj.update({"n": data.n, "m": data.m, "cov_mode": mode.value, "version": __version__})
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        print(",".join(key for key, _, _, _ in rows))
        print(",".join(json.dumps(value) for _, _, value, _ in rows))
    else:
        table = [("quantity", "value")] + [
            (label, format(value, spec) if spec else "yes" if value else "no")
            for _, label, value, spec in rows]
        widths = [max(len(row[i]) for row in table) for i in range(2)]
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in table]
        print("\n".join([lines[0], "-" * len(lines[0])] + lines[1:]))
    return _EXIT_OK


def _config_from_args(args) -> SimConfig:
    """The run's config: the --config file's object, or else the run flags,
    whose dests are SimConfig's field names."""
    if args.config:
        with open(args.config) as handle:
            obj = json.load(handle)
    else:
        names = {f.name for f in fields(SimConfig)}
        obj = {key: value for key, value in vars(args).items() if key in names}
        text = obj.get("b_grid")
        if text is not None:
            obj["b_grid"] = [float(b) for b in text.split(",")] if text else []
    return SimConfig.from_json_obj(obj)


def cmd_power(args) -> int:
    config = _config_from_args(args)
    if not config.b_grid:
        source = f'"b_grid" in {args.config}' if args.config else "--b-grid"
        raise ConfigError(f"power runs need a nonempty b grid: {source} is empty")
    _check_writable(args.out)
    with _sized(config.m, config.n):
        points = run_power_curve(config)
    with _output(args.out) as handle:
        write_power_csv(points, handle)
    live = [p for p in points if not p.skipped]
    gap = max((abs(p.empirical_power - p.predicted_power) for p in live), default=float("nan"))
    summary = (f"max |empirical - predicted| = {gap:.4g} over {len(live)} points "
               f"({len(points) - len(live)} skipped); predictions are asymptotic, "
               "agreement windows are engineering tolerances")
    print(summary, file=sys.stderr if args.out == "-" else sys.stdout)
    return _EXIT_OK


def cmd_null(args) -> int:
    config = _config_from_args(args)
    # only a config file can set these, and a null run has no alternative
    ignored = [key for key, at_default in (
                   ("family", config.family == AlternativeFamily.equicorrelation()),
                   ("b_grid", not config.b_grid)) if not at_default]
    if ignored:
        raise ConfigError(f"null runs ignore config key(s) {', '.join(ignored)}: "
                          f"leave them out of {args.config} or at their defaults")
    _check_writable(args.out, z_out=args.z_out)
    with _sized(config.m, config.n):
        report = run_null(config)
    if args.z_out is not None:
        np.savetxt(args.z_out, report.z_values, fmt="%.17g")
    with _output(args.out) as handle:
        handle.write(json.dumps({**report.to_json_obj(), "z_samples_path": args.z_out},
                                indent=2) + "\n")
    return _EXIT_OK


def cmd_gen(args) -> int:
    r_out = args.r_out
    if r_out is None and args.out != "-":
        r_out = args.out + ".r.json"
    family = AlternativeFamily.parse(args.family)
    with _sized(args.m, args.n):
        r = calibrate_to_theta(family, args.b, args.m, args.n)
    _check_writable(args.out, r_out=r_out)
    with _sized(args.m, args.n):
        data = sample_from_matrix(r, args.n, Seed(args.seed), args.trial)
    with _output(args.out) as handle:
        np.savetxt(handle, data.values, delimiter=",", fmt="%.17g")
    if r_out:
        with open(r_out, "w") as handle:
            handle.write(r.to_json() + "\n")
    return _EXIT_OK


def cmd_verify(args) -> int:
    # an option no check can take fails before any gate runs
    if args.which == "all":
        require_count("--workers", args.workers, 1, ConfigError)
        require_count("--trials", args.trials, 2, ConfigError)
    _check_writable(report=args.report)
    identities = []
    checks: list[MomentCheck] = []

    for quantity, label, err in identity_rows():
        passed = bool(err <= IDENTITY_BOUND)
        print(f"{'pass' if passed else 'FAIL'}  {quantity}: {label} = {err:.3e}")
        identities.append({"name": quantity, "error": err, "bound": IDENTITY_BOUND,
                           "passed": passed})

    if args.which == "all":
        # one fixed battery; other sizes run through the library calls
        seed = Seed(args.seed)
        checks.extend(verify_kernels(0.5, 10, 100_000, seed))
        equi = make_family_matrix(AlternativeFamily.equicorrelation(), 0.2, 5)
        moment_checks = [var_i_check(CorrMatrix.identity(5), 30),
                         var_i_check(equi, 30, name="var_i_equi"),
                         e_ii1_check(CorrMatrix.identity(4), 20)]
        for results in run_checks(moment_checks, args.trials, seed, workers=args.workers):
            checks.extend(results)

    for chk in checks:
        status = "pass" if chk.passed else "FAIL"
        print(f"{status}  {chk.name}: mc = {chk.mc_value:.6g}, exact = {chk.exact:.6g}, "
              f"|z| = {abs(chk.z_score):.2f}")

    if args.report:
        # every option of the run, so the report replays it
        cfg = {key: value for key, value in vars(args).items()
               if key not in ("command", "func", "report")}
        with open(args.report, "w") as handle:
            handle.write(verification_report_json(checks, cfg, identities) + "\n")

    failures = [gate["name"] for gate in identities if not gate["passed"]]
    failures += [chk.name for chk in checks if not chk.passed]
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

    def add_run_parser(name, summary, m, n, out_help):
        """A subcommand with the run flags of power and null, whose dests
        are SimConfig's field names."""
        sub_parser = sub.add_parser(name, help=summary)
        sub_parser.add_argument("--config", help="JSON SimConfig file; when given, "
                                "the other run flags are ignored")
        sub_parser.add_argument("--m", type=int, default=m)
        sub_parser.add_argument("--n", type=int, default=n)
        sub_parser.add_argument("--trials", type=int, default=1000)
        sub_parser.add_argument("--alpha", type=float, default=0.05)
        sub_parser.add_argument("--seed", type=int, default=0)
        sub_parser.add_argument("--workers", type=int, default=1)
        sub_parser.add_argument("--cov-mode", choices=["zero-mean", "centered"],
                                default="zero-mean")
        sub_parser.add_argument("--out", default="-", help=out_help)
        return sub_parser

    p_power = add_run_parser("power", "empirical power curve over a b grid", 40, 80,
                             "CSV output path ('-' = stdout)")
    p_power.add_argument("--family", default="equicorrelation")
    p_power.add_argument("--b-grid", default="0,1,2,3")
    p_power.set_defaults(func=cmd_power)

    p_null = add_run_parser("null", "null calibration at level alpha", 50, 100,
                            "JSON report path ('-' = stdout)")
    p_null.add_argument("--z-out", default=None,
                        help="optional CSV of standardized statistic samples")
    p_null.set_defaults(func=cmd_null)

    p_verify = sub.add_parser("verify", help="run verification gates")
    modes = p_verify.add_subparsers(dest="which", required=True)
    p_all = modes.add_parser("all", help="the identity gates and the Monte Carlo checks")
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--workers", type=int, default=1)
    p_all.add_argument("--trials", type=int, default=20000,
                       help="trials for the var-i and e-ii1 checks")
    p_isserlis = modes.add_parser("isserlis", help="the identity gates alone; they draw nothing")
    for mode in (p_all, p_isserlis):
        mode.add_argument("--report", default=None, help="optional JSON report path")
    p_verify.set_defaults(func=cmd_verify)

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
        return args.func(args)
    except (HidimError, ValueError, MemoryError, OSError) as exc:
        # numpy's MemoryError names the size and shape it could not allocate,
        # an OSError the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE if isinstance(exc, DegenerateColumn) else _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
