"""Run the benchmark once per seed on each workload and summarise the spread.

Usage (from the repository root):

    python3 bench/sweep.py --workloads verify-all --seeds 11-20 --out bench/out/sweep.json

Each run is ``bench/run.py --workload W --seed S --seconds N --trace 0`` in
its own process, one after another.  For every end-to-end metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile range over the median; it also gives each run's wall time,
so the whole set can be checked against the time the benchmark may take.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in definition["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    parser.add_argument("--seconds", type=int, default=definition["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    summary = {}
    for name in args.workloads.split(","):
        values, walls = {}, []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: exit {proc.returncode}, correct {result['correct']}")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v[-1]:.6g}" for m, v in values.items()) + f" ({walls[-1]:.1f} s)",
                flush=True)
        summary[name] = {"run_wall_s": walls}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3,
                                     "iqr_over_median": (q3 - q1) / median, "values": vals}
            print(f"  {name} {metric}: median {median:.6g}, iqr/median {(q3 - q1) / median:.4f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
