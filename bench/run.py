"""hidim benchmark: one workload per run, outputs checked, metrics as JSON.

Usage (from the repository root):

    python3 bench/run.py --workload paper-power --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

A run is a closed loop in one process: an untimed reference pass (single
worker on scale-null, the byte-identity reference of its first pass), then
passes back to back for ``--seconds``, each a fixed amount of work made from a
seed derived from ``--seed``.  A fixed calibration workload that does not touch
hidim runs before the first pass and after every pass; the time metrics are
scaled by it to a host of fixed speed (see ``calibrate``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time on untraced passes and then re-runs the
first passes with every layer boundary wrapped (see tracing.py), checks
that the traced outputs are byte-identical, and reports the per-layer
metrics (see layers.py).  The last line of standard output is one JSON
object; the exit code is 1 when any output check fails.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is loaded anywhere in this process:
# 2 BLAS threads x 2 workers on 2 cores cost ~30% wall time on scale-null.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HIDIM_WORKERS", None)      # the workloads fix their worker counts

import argparse
import glob
import hashlib
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper-power", "scale-null", "verify-all")

# (name, unit, better); the bounds live in BENCHMARK.json.
# wall_s, the median pass wall, is printed but not listed: a pass is a fixed
# number of trials, so it measures the same pass walls as trials_per_s.
END_TO_END = (
    ("trials_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_REPEATS = 11
# Wall time of ``calibrate`` on the reference host (2-vCPU Xeon container,
# Python 3.11, numpy 2.4, 1 BLAS thread).  Any fixed value would do: it only
# sets the scale of the reported times.
CALIBRATION_NOMINAL_S = 0.25

SETUP_CODE = """import time
t0 = time.perf_counter()
import numpy, scipy
import hidim, hidim.cli, hidim.sim
{statement}
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Pass:
    seed: int
    wall: float
    output: object            # None when the pass raised
    error: str = ""
    calibration: float = CALIBRATION_NOMINAL_S    # calibration wall around the pass


def _serial_work() -> float:
    """A Python loop, small BLAS products and Philox draws: the kinds of work
    a single-threaded hidim trial does."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(20170125))
    a = rng.standard_normal((80, 40))
    total = 0.0
    for i in range(1000000):
        total += i * i
    for _ in range(2000):
        g = a.T @ a
        d = np.diag(g)
        total += float(np.sum(g * g / np.outer(d, d)))
    for _ in range(10):
        total += float(np.sort(rng.standard_normal(200000))[100000])
    return total


def _parallel_work(stream: int) -> float:
    """Philox uniforms through ndtri and a 640x320 Gram product: the work of a
    scale-null trial, which releases the GIL, so threads running it at once
    need a core each."""
    import numpy as np
    from scipy.special import ndtri
    rng = np.random.Generator(np.random.Philox(20170125 + stream))
    a = rng.standard_normal((640, 320))
    total = 0.0
    for _ in range(14):
        total += float(np.sum(ndtri(rng.random(400000))))
        total += float((a.T @ a)[0, 0])
    return total


def calibrate(threads: int = 1) -> float:
    """Wall time of a fixed piece of work that does not use hidim, on
    ``threads`` threads (a workload's worker count).

    The host is shared, and its speed drifts by up to 2x within minutes (a
    0.1 s version of ``_serial_work`` took 0.06 s to 0.11 s in one run, and
    back-to-back samples of it differed by 8%; the calibration takes ~0.25 s
    so that one sample averages out more of that fast noise).  Every timed
    piece of hidim work is divided by the mean of the calibrations just
    before and after it, which cancels the drift; a change to hidim leaves
    the calibration as it was.  A pool of workers also slows when the host
    takes back a core, which one thread does not see (scale-null ran 15%
    slower for minutes while ``_serial_work`` kept its speed), so with
    ``threads`` > 1 each thread runs ``_parallel_work`` at once.
    """
    start = time.perf_counter()
    if threads == 1:
        totals = [_serial_work()]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            totals = list(pool.map(_parallel_work, range(threads)))
    wall = time.perf_counter() - start
    if not all(math.isfinite(total) for total in totals):
        raise RuntimeError("calibration computed a non-finite value")
    return wall


def host_scaled(wall: float, calibration: float) -> float:
    """``wall`` on a host that runs the calibration in CALIBRATION_NOMINAL_S."""
    return wall * CALIBRATION_NOMINAL_S / calibration


def pass_seeds(seed: int, count: int = 10000) -> List[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def run_pass(run: Callable[[int], object], seed: int) -> Pass:
    start = time.perf_counter()
    try:
        output = run(seed)
    except Exception:          # a pass that raises fails all of its trials
        return Pass(seed, time.perf_counter() - start, None, traceback.format_exc())
    return Pass(seed, time.perf_counter() - start, output)


def run_passes(workload, seeds: List[int], budget: float, min_passes: int) -> List[Pass]:
    """Passes back to back, each between two calibrations."""
    passes: List[Pass] = []
    start = time.perf_counter()
    calibrate(workload.workers)             # warm-up: its first call runs slow
    before = calibrate(workload.workers)
    while len(passes) < min_passes or time.perf_counter() - start < budget:
        p = run_pass(workload.run, seeds[len(passes)])
        after = calibrate(workload.workers)
        p.calibration = (before + after) / 2.0
        passes.append(p)
        before = after
    return passes


def run_checked(workload, seeds: List[int], budget: float,
                min_passes: int) -> Tuple[Pass, List[Pass], List[str]]:
    """The reference pass (``workload.warm_up`` of the first seed, untimed),
    then timed passes for ``budget`` seconds, and every output check's
    failures."""
    warm = run_pass(workload.warm_up, seeds[0])
    passes = run_passes(workload, seeds, budget, min_passes)
    failures: List[str] = []
    for i, p in enumerate([warm] + passes):
        if p.output is None:
            failures.append(f"pass {i} raised: {p.error.strip().splitlines()[-1]}")
            sys.stderr.write(p.error)
        else:
            failures += workload.check_pass(p.seed, p.output)
    outputs = [p.output for p in passes if p.output is not None]
    if outputs and warm.output is not None:
        failures += workload.check_run(outputs, warm.output)
    return warm, passes, failures


def measure_setup(workload) -> Tuple[float, float]:
    """Median, over fresh processes, of importing hidim, numpy and scipy
    and constructing the workload's configuration: host-scaled, and as
    measured."""
    code = SETUP_CODE.format(statement=workload.setup_statement())
    env = dict(os.environ, PYTHONPATH=SRC)
    scaled, raw = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup process failed:\n{proc.stderr}")
        after = calibrate()
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(host_scaled(raw[-1], (before + after) / 2.0))
        before = after
    return statistics.median(scaled), statistics.median(raw)


# -- environment record ----------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hidim", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "workers": workload.workers,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# -- one workload ----------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]()
    env = environment(workload, seed)
    setup_s, raw_setup_s = (None, None) if trace else measure_setup(workload)
    workload.prepare()
    seeds = pass_seeds(seed)

    if trace:       # the traced passes repeat the first untraced ones
        _, passes, failures = run_checked(workload, seeds, seconds / 2.0,
                                          max(workload.min_passes, workload.traced_passes))
    else:
        _, passes, failures = run_checked(workload, seeds, seconds, workload.min_passes)
    outputs = [p.output for p in passes if p.output is not None]

    lines = [f"{key}: {value}" for key, value in env.items()]
    lines += workload.report(outputs) if outputs else []

    walls = [p.wall for p in passes]
    if trace:
        tracer = tracing.Tracer(run_id=f"{name}-{seed}")
        with tracing.instrument(tracer):
            traced = [run_pass(workload.run, seeds[k])
                      for k in range(workload.traced_passes)]
        for k, p in enumerate(traced):
            if p.output is None:
                failures.append(f"traced pass {k} raised: {p.error.strip().splitlines()[-1]}")
            elif passes[k].output is not None:
                failures += workloads.check_identical(
                    workload.fingerprint(p.output), workload.fingerprint(passes[k].output),
                    f"traced pass {k} against untraced")
        overhead = (statistics.median(p.wall for p in traced) / statistics.median(walls))
        aggs = tracing.aggregate(tracer.spans)
        values = layers.compute(aggs, workload.workers,
                                workload.skipped_points([p.output for p in traced
                                                         if p.output is not None]),
                                overhead)
        units = {metric: unit for metric, unit, *_ in layers.PER_LAYER}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
        lines.append(f"per-layer metrics over {workload.traced_passes} traced passes "
                     f"({len(tracer.spans)} spans):")
        for metric, value in values.items():
            lines.append(f"  {metric:42s} {value:14.6g} {units[metric]}")
        busiest = sorted(aggs.items(), key=lambda kv: -kv[1].self_time)[:8]
        lines.append("self time by span: " + ", ".join(
            f"{k} {a.self_time * 1e3:.1f} ms" for k, a in busiest))
    else:
        values = {
            # Trials completed per host-scaled second of the run.  Over the
            # same runs this spread less than the median of per-pass rates
            # (interquartile range 0.073 against 0.089 of the median on
            # verify-all), whose 8 passes each see ~2.5 s of a host that
            # changes speed from one second to the next.
            "trials_per_s": workload.trials_per_pass * len(passes) / sum(
                host_scaled(p.wall, p.calibration) for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {metric: unit for metric, unit, _ in END_TO_END}
        for metric, value in values.items():
            lines.append(f"{metric:14s} {value:12.6g} {units[metric]}")
        lines.append(f"host-scaled to a calibration of {CALIBRATION_NOMINAL_S} s; as measured "
                     f"(median calibration {statistics.median(p.calibration for p in passes):.4g} s):")
        lines.append(f"  {'trials_per_s':14s} "
                     f"{workload.trials_per_pass * len(walls) / sum(walls):12.6g} 1/s")
        lines.append(f"  {'setup_s':14s} {raw_setup_s:12.6g} s")
        lines.append(f"  {'wall_s':14s} {statistics.median(walls):12.6g} s (median pass)")

    traced_count = workload.traced_passes if trace else 0
    attempted = workload.trials_per_pass * (1 + len(passes) + traced_count)
    failed = attempted if failures else 0     # a raising pass is a failure too
    lines.append(f"passes {len(passes)} (+1 warm-up), pass walls "
                 + " ".join(f"{w:.3f}" for w in walls) + " s")
    lines.append(f"failed_ratio   {failed / attempted:12.6g} ({failed} of {attempted} "
                 "trials failed)")
    lines += [f"CHECK FAILED: {f}" for f in failures] or ["all output checks passed"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as handle:
        json.dump({"workload": name, "environment": env, "failures": failures,
                   "pass_walls": walls,
                   "pass_calibrations": [p.calibration for p in passes], **result}, handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process (so peak memory is per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(out[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print("== summary")
    for metric, entry in merged["metrics"].items():
        print(f"{metric:56s} {entry['value']:14.6g} {entry['unit']}")
    print(f"failed_ratio {merged['failed'] / max(merged['attempted'], 1):.6g} "
          f"({merged['failed']} of {merged['attempted']} trials)")
    print(json.dumps(merged))
    return code or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hidim", "__init__.py")):
        print(f"error: no hidim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, SRC)
    import hidim
    if not os.path.abspath(hidim.__file__).startswith(SRC + os.sep):
        print(f"error: imported hidim from {hidim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
