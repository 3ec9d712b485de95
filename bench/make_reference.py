"""Write bench/reference.json: the verify-all reference data.

    python3 bench/make_reference.py            # from the repository root

It records ``var_i_exact``, the exact Var(I) of the five verify-all
matrices as computed at the commit that defined the benchmark.  Every
verify-all pass must reproduce them to 1e-12 relative.

Regenerating the file to make a failing check pass defeats the check.
"""

from __future__ import annotations

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("HIDIM_WORKERS", None)
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hidim.moments  # noqa: E402
from workloads import REFERENCE_PATH, VerifyAll, equicorrelation_cell  # noqa: E402


def main() -> int:
    workload = VerifyAll()
    cases = []
    for b, m, n in workload.var_i_cases:
        value = hidim.moments.var_i_exact(equicorrelation_cell(b, m, n), n)
        cases.append({"family": "equicorrelation", "b": b, "m": m, "n": n, "value": value})
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"var_i_exact": cases}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
