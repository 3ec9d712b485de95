"""Per-layer metrics of a traced run, and which end-to-end metric each
should move on which workload (written down before any change is measured).

Layers are hidim's modules: generators, theory, matrix, stats, sim,
moments, kernels and cli (errors has nothing to measure).  Every number
comes from the spans of a fixed number of traced passes, so counts repeat
exactly for a given workload and times are comparable across commits.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from tracing import Aggregate, layer_self_time, tail_percentile

# (metric, unit, better, end-to-end metric it should move, where it should move it)
PER_LAYER = (
    ("stats.decompose.calls", "count", "lower", "trials_per_s",
     "paper-power (~70% of trial time), verify-all e-ii1; no change on scale-null"),
    ("stats.decompose.total_ms", "ms", "lower", "trials_per_s", "paper-power, verify-all"),
    ("stats.decompose.p50_us", "us", "lower", "trials_per_s", "paper-power, verify-all"),
    ("stats.decompose.tail_us", "us", "lower", "trials_per_s", "paper-power, verify-all"),
    ("sim.decompose_share", "ratio", "lower", "trials_per_s", "paper-power, verify-all"),
    ("theory.normal_quantile.calls", "count", "lower", "trials_per_s",
     "scale-null (~70% of trial time), paper-power (~17%)"),
    ("theory.normal_quantile.total_ms", "ms", "lower", "trials_per_s", "scale-null, paper-power"),
    ("theory.normal_quantile.ns_per_value", "ns", "lower", "trials_per_s",
     "scale-null, paper-power"),
    ("generators.sample_gaussian.calls", "count", "lower", "trials_per_s",
     "scale-null (sampling share), verify-all (per-call overhead)"),
    ("generators.sample_gaussian.total_ms", "ms", "lower", "trials_per_s",
     "scale-null, verify-all"),
    ("generators.sample_gaussian.self_ms", "ms", "lower", "trials_per_s",
     "scale-null, verify-all"),
    ("generators.sample_gaussian.p50_us", "us", "lower", "trials_per_s",
     "scale-null, verify-all"),
    ("generators.sample_gaussian.tail_us", "us", "lower", "trials_per_s",
     "scale-null, verify-all"),
    ("generators.standard_normal_block.self_ms", "ms", "lower", "trials_per_s",
     "scale-null, verify-all (Philox uniforms)"),
    ("generators.normals_drawn", "count", "lower", "trials_per_s", "scale-null, verify-all"),
    ("stats.statistic_t.calls", "count", "lower", "trials_per_s",
     "scale-null (Gram at m=320)"),
    ("stats.statistic_t.total_ms", "ms", "lower", "trials_per_s", "scale-null"),
    ("stats.statistic_t.p50_us", "us", "lower", "trials_per_s", "scale-null"),
    ("stats.statistic_t.tail_us", "us", "lower", "trials_per_s", "scale-null"),
    ("stats.term_i.calls", "count", "lower", "trials_per_s", "verify-all"),
    ("stats.term_i.total_ms", "ms", "lower", "trials_per_s", "verify-all"),
    ("stats.term_i.p50_us", "us", "lower", "trials_per_s", "verify-all"),
    ("sim.self_ms", "ms", "lower", "trials_per_s",
     "verify-all, paper-power; ~none on scale-null"),
    ("sim.per_trial_overhead_us", "us", "lower", "trials_per_s", "verify-all, paper-power"),
    ("sim.worker_busy_ratio", "ratio", "higher", "trials_per_s", "scale-null only"),
    ("sim.run_power_curve.total_ms", "ms", "lower", "trials_per_s", "paper-power"),
    ("sim.run_null.total_ms", "ms", "lower", "trials_per_s", "scale-null"),
    ("sim.verify_var_i.total_ms", "ms", "lower", "trials_per_s", "verify-all"),
    ("sim.verify_e_ii1.total_ms", "ms", "lower", "trials_per_s", "verify-all"),
    ("sim.verify_kernels.total_ms", "ms", "lower", "trials_per_s", "verify-all"),
    ("sim.skipped_points", "count", "lower", "trials_per_s", "paper-power"),
    ("matrix.cholesky.calls", "count", "lower", "trials_per_s", "paper-power, scale-null (small)"),
    ("matrix.cholesky.total_ms", "ms", "lower", "trials_per_s", "paper-power, scale-null (small)"),
    ("matrix.cholesky.jitter_ratio", "ratio", "lower", "trials_per_s", "paper-power, scale-null"),
    ("generators.calibrate_to_theta.calls", "count", "lower", "trials_per_s", "paper-power"),
    ("generators.calibrate_to_theta.total_ms", "ms", "lower", "trials_per_s", "paper-power"),
    ("moments.var_i_exact.calls", "count", "lower", "trials_per_s", "verify-all only"),
    ("moments.var_i_exact.total_ms", "ms", "lower", "trials_per_s", "verify-all only"),
    ("moments.s_sum.calls", "count", "lower", "trials_per_s", "verify-all only"),
    ("moments.s_sum.total_ms", "ms", "lower", "trials_per_s", "verify-all only"),
    ("kernels.evaluate.calls", "count", "lower", "trials_per_s", "verify-all only"),
    ("kernels.evaluate.total_ms", "ms", "lower", "trials_per_s", "verify-all only"),
    ("cli.main.total_ms", "ms", "lower", "trials_per_s", "verify-all only"),
    ("cli.self_ms", "ms", "lower", "trials_per_s", "verify-all only"),
    ("trace_overhead_ratio", "ratio", "lower", "-", "every workload"),
)

# Spans of one Monte Carlo run: the denominators of the worker busy ratio.
_RUN_SPANS = ("sim.run_power_curve", "sim.run_null", "sim.verify_var_i", "sim.verify_e_ii1")


def _timing(prefix: str, agg: Aggregate, fields) -> Dict[str, float]:
    values = {
        "calls": float(agg.calls),
        "total_ms": agg.total * 1e3,
        "self_ms": agg.self_time * 1e3,
        "p50_us": float(np.percentile(agg.durations, 50.0)) * 1e6 if agg.calls else 0.0,
        "tail_us": tail_percentile(agg.durations)[1] * 1e6,
    }
    return {f"{prefix}.{f}": values[f] for f in fields}


def compute(aggs: Dict[str, Aggregate], workers: int, skipped_points: int,
            overhead_ratio: float) -> Dict[str, float]:
    """Every metric of PER_LAYER from the aggregated spans of the traced passes."""
    def get(name: str) -> Aggregate:
        return aggs.get(name, Aggregate())

    trial, quantile = get("sim.trial"), get("theory.normal_quantile")
    decompose, cholesky = get("stats.decompose"), get("matrix.cholesky")
    sim_self = layer_self_time(aggs, "sim")
    run_time = sum(get(name).total for name in _RUN_SPANS)

    out: Dict[str, float] = {}
    out.update(_timing("stats.decompose", decompose, ("calls", "total_ms", "p50_us", "tail_us")))
    out["sim.decompose_share"] = decompose.total / trial.total if trial.total else 0.0
    out.update(_timing("theory.normal_quantile", quantile, ("calls", "total_ms")))
    out["theory.normal_quantile.ns_per_value"] = (
        quantile.total * 1e9 / quantile.quantity if quantile.quantity else 0.0)
    out.update(_timing("generators.sample_gaussian", get("generators.sample_gaussian"),
                       ("calls", "total_ms", "self_ms", "p50_us", "tail_us")))
    block = get("generators.standard_normal_block")
    out["generators.standard_normal_block.self_ms"] = block.self_time * 1e3
    out["generators.normals_drawn"] = block.quantity
    out.update(_timing("stats.statistic_t", get("stats.statistic_t"),
                       ("calls", "total_ms", "p50_us", "tail_us")))
    out.update(_timing("stats.term_i", get("stats.term_i"), ("calls", "total_ms", "p50_us")))
    out["sim.self_ms"] = sim_self * 1e3
    out["sim.per_trial_overhead_us"] = sim_self * 1e6 / trial.calls if trial.calls else 0.0
    out["sim.worker_busy_ratio"] = trial.total / (workers * run_time) if run_time else 0.0
    for name in ("run_power_curve", "run_null", "verify_var_i", "verify_e_ii1",
                 "verify_kernels"):
        out[f"sim.{name}.total_ms"] = get(f"sim.{name}").total * 1e3
    out["sim.skipped_points"] = float(skipped_points)
    out.update(_timing("matrix.cholesky", cholesky, ("calls", "total_ms")))
    out["matrix.cholesky.jitter_ratio"] = (
        cholesky.quantity / cholesky.calls if cholesky.calls else 0.0)
    out.update(_timing("generators.calibrate_to_theta", get("generators.calibrate_to_theta"),
                       ("calls", "total_ms")))
    for name in ("moments.var_i_exact", "moments.s_sum", "kernels.evaluate"):
        out.update(_timing(name, get(name), ("calls", "total_ms")))
    out["cli.main.total_ms"] = get("cli.main").total * 1e3
    out["cli.self_ms"] = layer_self_time(aggs, "cli") * 1e3
    out["trace_overhead_ratio"] = overhead_ratio
    return out
