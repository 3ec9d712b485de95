import numpy as np
import pytest

from hidim import CorrMatrix, DataMatrix
from hidim.moments import random_corr  # noqa: F401  (the tests' random R)


def martingale_differences(data: DataMatrix, r: CorrMatrix) -> np.ndarray:
    """The n+1 martingale differences Y_0..Y_n whose sum is term I, the
    oracle of ``term_i`` by a loop over the samples.

    Y_0 = Y_1 = 0 and, for samples i >= 2 (1-based),
    Y_i = (2/n^2) sum_{p<q} c_i (c_1 + ... + c_{i-1}).
    """
    n = data.n
    upper = np.triu_indices(data.m, 1)
    y = np.zeros(n + 1)
    running = np.zeros(len(upper[0]))
    scale = 2.0 / float(n) ** 2
    for i in range(1, n + 1):
        xi = data.values[i - 1]
        ci = (np.outer(xi, xi) - r.rho)[upper]
        if i >= 2:
            y[i] = scale * float(ci @ running)
        running += ci
    return y


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
