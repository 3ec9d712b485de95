"""Self-tests of the benchmark: every output check must fail on a corrupted
output, the wrappers must leave hidim as they found it, and every name must
be one the benchmark format accepts.

    python3 -m pytest -q bench/test_bench.py      # from the repository root
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
HIDIM_MODULES = ("hidim", "hidim.cli", "hidim.errors", "hidim.generators", "hidim.kernels",
                 "hidim.matrix", "hidim.moments", "hidim.sim", "hidim.stats", "hidim.theory")


class SmallPower(workloads.PaperPower):
    m, n, trials, b_grid = 10, 30, 100, (0.0, 1.0, 2.0)
    trials_per_pass = trials * len(b_grid)


class SmallNull(workloads.ScaleNull):
    m, n, trials = 12, 40, 100
    trials_per_pass = trials


def _flip_one(points):
    point = points[1]
    flipped = dataclasses.replace(point, empirical_power=point.empirical_power
                                  + 1.0 / point.trials)
    return [points[0], flipped] + list(points[2:])


def test_power_recount_matches_and_catches_one_flipped_rejection():
    workload = SmallPower()
    points = workload.run(11)
    assert workload.check_pass(11, points) == []
    assert workload.check_pass(11, _flip_one(points)) != []


def test_power_run_checks_catch_corruption():
    workload = SmallPower()
    outputs = [workload.run(seed) for seed in (1, 2, 3)]
    assert workload.check_run(outputs, workload.run(1)) == []
    assert workload.check_run(outputs, _flip_one(workload.run(1))) != []


def test_size_window_and_monotonicity_can_fail():
    lo, hi = workloads.binomial_window(4000, 0.05)
    assert workloads.check_size_window(200, 4000, 0.05) == []
    assert workloads.check_size_window(lo - 1, 4000, 0.05) != []
    assert workloads.check_size_window(hi + 1, 4000, 0.05) != []
    assert workloads.check_monotone([0.05, 0.2, 0.6], [0.005, 0.01, 0.01]) == []
    assert workloads.check_monotone([0.05, 0.6, 0.2], [0.005, 0.01, 0.01]) != []


def test_null_z_values_byte_identity_catches_one_changed_byte():
    workload = SmallNull()
    reference = workload.warm_up(5)
    report = workload.run(5)
    assert workload.check_pass(5, report) == []
    assert workloads.check_identical(report.z_values.tobytes(),
                                     reference.z_values.tobytes(), "z") == []
    raw = bytearray(report.z_values.tobytes())
    raw[3] ^= 0x01
    assert workloads.check_identical(bytes(raw), reference.z_values.tobytes(), "z") != []


def _record_workers(monkeypatch):
    sim = importlib.import_module("hidim.sim")
    workers, real = [], sim.run_null

    def run_null(config):
        workers.append(config.workers)
        return real(config)

    monkeypatch.setattr(sim, "run_null", run_null)
    return workers


def test_null_run_compares_its_first_pass_with_a_single_worker_pass(monkeypatch):
    workers = _record_workers(monkeypatch)
    warm, passes, failures = run.run_checked(SmallNull(), [5, 6, 7], 0.0, 2)
    assert failures == []
    assert workers == [1, 2, 2] and warm.seed == passes[0].seed == 5


def test_null_run_fails_when_two_workers_differ_from_one(monkeypatch):
    class Skewed(SmallNull):
        def warm_up(self, seed):
            report = super().warm_up(seed)
            z = report.z_values.copy()
            z[0] = np.nextafter(z[0], np.inf)
            return dataclasses.replace(report, z_values=z)

    _, _, failures = run.run_checked(Skewed(), [5, 6], 0.0, 1)
    assert any("2 workers against 1 worker" in f for f in failures), failures


def test_null_reported_size_and_ks_must_match_z_values():
    workload = SmallNull()
    report = workload.run(6)
    assert workload.check_pass(6, dataclasses.replace(
        report, empirical_size=report.empirical_size + 0.01)) != []
    assert workload.check_pass(6, dataclasses.replace(
        report, ks_statistic=report.ks_statistic + 1e-9)) != []


def test_null_windows_accept_the_exact_null_and_reject_a_shifted_one():
    m, n = workloads.ScaleNull.m, workloads.ScaleNull.n
    mean_z, sd_z = workloads.centered_null_z(m, n)
    rng = np.random.default_rng(0)
    z = mean_z + sd_z * rng.standard_normal(1500)
    assert workloads.check_null_windows(z, m, n, 0.05) == []
    assert workloads.check_null_windows(z - mean_z, m, n, 0.05) != []
    assert workloads.check_null_windows(z + 0.15, m, n, 0.05) != []


def test_verify_checks_catch_exit_code_and_perturbed_var_i():
    reference = [case["value"] for case in workloads.load_reference()["var_i_exact"]]
    assert workloads.check_var_i(reference, reference) == []
    perturbed = list(reference)
    perturbed[2] *= 1.0 + 1e-11
    assert workloads.check_var_i(perturbed, reference) != []


def _verify_text(seed: int):
    workload = workloads.VerifyAll()
    workload.prepare()
    out = workload.run(seed)
    assert workload.check_pass(seed, out) == []
    return out.exit_code, out.text


def test_verify_output_checks_identities_exit_code_and_finite_z():
    code, text = _verify_text(4)
    assert code == 0 and workloads.check_verify_output(0, text) == []
    assert workloads.check_verify_output(1, text) != []      # exit code without a FAIL
    # a Monte Carlo check over hidim's |z| <= 3 fails hidim, not this check ...
    over_three = re.sub(r"^pass  (h1: .*\|z\| = )\S+$", r"FAIL  \g<1>5.40", text, flags=re.M)
    assert over_three != text
    assert workloads.check_verify_output(workloads.EXIT_GATE, over_three) == []
    # ... a z that is not a number, a failed identity or a missing row does
    nan = re.sub(r"^pass  (h1: .*\|z\| = )\S+$", r"FAIL  \g<1>nan", text, flags=re.M)
    assert workloads.check_verify_output(workloads.EXIT_GATE, nan) != []
    identity = text.replace("pass  S(2) closed form", "FAIL  S(2) closed form")
    assert workloads.check_verify_output(workloads.EXIT_GATE, identity) != []
    missing = "\n".join(line for line in text.splitlines() if not line.startswith("pass  e_i:"))
    assert workloads.check_verify_output(0, missing) != []


def test_median_z_catches_a_bias_but_not_one_wild_pass():
    code, text = _verify_text(7)
    z = workloads.signed_z(text)
    assert len(z) == workloads.VERIFY_MC_CHECKS
    assert abs(z["h1"]) == float(re.search(r"^pass  h1: .*\|z\| = (\S+)$", text,
                                           re.M).group(1))
    assert workloads.check_median_z([z]) == []
    assert workloads.check_median_z([{"h1": 0.5}] * 5 + [{"h1": -40.0}] * 3) == []
    assert workloads.check_median_z([{"h1": 3.6}] * 5 + [{"h1": 0.0}] * 3) != []
    # only the first MEDIAN_PASSES passes count
    assert workloads.check_median_z([{"h1": 0.0}] * 8 + [{"h1": 9.0}] * 20) == []


def test_var_i_reference_reproduces():
    workload = workloads.VerifyAll()
    workload.prepare()
    values = [importlib.import_module("hidim.moments").var_i_exact(r, n)
              for r, n in workload._matrices]
    reference = [case["value"] for case in workloads.load_reference()["var_i_exact"]]
    assert workloads.check_var_i(values, reference) == []


def _snapshot():
    return {name: dict(vars(importlib.import_module(name))) for name in HIDIM_MODULES}


def _assert_unchanged(before):
    after = _snapshot()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_instrument_restores_every_attribute_even_on_error():
    before = _snapshot()
    tracer = tracing.Tracer("test")
    with tracing.instrument(tracer):
        SmallPower().run(3)
    _assert_unchanged(before)
    assert any(s.name == "stats.decompose" for s in tracer.spans)
    with pytest.raises(ZeroDivisionError):
        with tracing.instrument(tracing.Tracer("test")):
            1 / 0
    _assert_unchanged(before)


def test_traced_pass_is_byte_identical_and_spans_nest():
    workload = SmallNull()
    plain = workload.run(9)
    tracer = tracing.Tracer("test")
    with tracing.instrument(tracer):
        traced = workload.run(9)
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    aggs = tracing.aggregate(tracer.spans)
    assert aggs["sim.trial"].calls == workload.trials
    assert aggs["generators.standard_normal_block"].quantity == workload.trials * 40 * 12
    assert "stats.decompose" not in aggs
    trial_ids = {i for i, s in enumerate(tracer.spans) if s.name == "sim.trial"}
    for s in tracer.spans:
        if s.name == "generators.sample_gaussian":
            assert s.parent in trial_ids
    values = layers.compute(aggs, workload.workers, 0, 1.0)
    assert [metric for metric, *_ in layers.PER_LAYER] == list(values)
    assert 0.0 < values["sim.worker_busy_ratio"] <= 1.05


def test_self_time_subtracts_the_union_of_children():
    spans = [tracing.Span("a", 0.0, 10.0, None, 1, "r"),
             tracing.Span("b", 1.0, 4.0, 0, 1, "r"),
             tracing.Span("b", 3.0, 6.0, 0, 2, "r"),
             tracing.Span("c", 8.0, 9.0, 0, 1, "r")]
    aggs = tracing.aggregate(spans)
    assert aggs["a"].self_time == pytest.approx(10.0 - 5.0 - 1.0)
    assert aggs["b"].calls == 2 and aggs["b"].total == pytest.approx(6.0)
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0
    assert tracing.tail_percentile([1.0] * 5)[0] == 50.0


def test_names_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    per_layer = [metric for metric, *_ in layers.PER_LAYER]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, *_ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for entry in spec["per_layer"] + spec["end_to_end"] + spec["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    units = {metric: (unit, better) for metric, unit, better, *_ in layers.PER_LAYER}
    for entry in spec["per_layer"]:
        assert (entry["unit"], entry["better"]) == units[entry["name"]]


def test_each_pass_is_scaled_by_the_calibrations_around_it(monkeypatch):
    calibrations = iter([9.9, 0.1, 0.3, 0.2, 0.2])     # the first is a warm-up
    monkeypatch.setattr(run, "calibrate", lambda threads=1: next(calibrations))

    class Fixed:
        workers = 1

        def run(self, seed):
            return seed

    passes = run.run_passes(Fixed(), [5, 6, 7], budget=0.0, min_passes=3)
    assert [p.output for p in passes] == [5, 6, 7]
    assert [p.calibration for p in passes] == pytest.approx([0.2, 0.25, 0.2])
    nominal = run.CALIBRATION_NOMINAL_S
    assert run.host_scaled(3.0, 2.0 * nominal) == pytest.approx(1.5)
