"""Correlation matrices, dependency-signal size, and Cholesky support.

Dense storage throughout: the statistic itself is a dense O(m^2) sum, so
m stays at experiment scale and O(m^2) memory is acceptable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveSemidefinite

# Jitter ladder for numerically rank-deficient matrices (e.g. equicorrelation
# near its PSD boundary); recorded in the factor for reproducibility.
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of the square ``arr``, exactly symmetric and of unit
    diagonal."""
    arr = 0.5 * (arr + arr.T)
    np.fill_diagonal(arr, 1.0)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CorrMatrix:
    """An m x m correlation matrix with unit diagonal.

    The constructor enforces structure (square, finite, symmetric to 1e-12,
    unit diagonal to 1e-12) and then stores an exactly symmetrized read-only
    copy.  Positive semidefiniteness is enforced where it matters, by
    ``cholesky``.
    """

    rho: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rho, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError("correlation matrix must be square and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("correlation matrix entries must be finite")
        if np.max(np.abs(arr - arr.T)) > 1e-12:
            raise ValueError("correlation matrix must be symmetric")
        if np.max(np.abs(np.diag(arr) - 1.0)) > 1e-12:
            raise ValueError("correlation matrix must have unit diagonal")
        object.__setattr__(self, "rho", _symmetrized(arr))

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "CorrMatrix":
        """The CorrMatrix the constructor would store for the float64 array
        ``arr``, without its structure checks: only for an ``arr`` whose
        construction makes it square, finite, symmetric and of unit
        diagonal to 1e-12."""
        self = cls.__new__(cls)
        object.__setattr__(self, "rho", _symmetrized(arr))
        return self

    @property
    def m(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def identity(cls, m: int) -> "CorrMatrix":
        return cls(np.eye(m))

    def to_json(self) -> str:
        """The matrix as the JSON object {"m": int, "rho": [[...]]}."""
        return json.dumps({"m": self.m, "rho": self.rho.tolist()})


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor with the diagonal jitter that was needed."""

    lower: np.ndarray
    jitter_applied: float = 0.0

    def __post_init__(self):
        arr = np.array(self.lower, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "lower", arr)

    @property
    def m(self) -> int:
        return self.lower.shape[0]


def off_diagonal_norm(rho: np.ndarray) -> np.ndarray:
    """Frobenius norm of rho - I over the last two axes of a (..., m, m) array."""
    off = rho - np.eye(rho.shape[-1])
    return np.sqrt(np.sum((off * off).reshape(rho.shape[:-2] + (-1,)), axis=-1))


def frobenius_signal(r: CorrMatrix) -> float:
    """Frobenius norm of R - I: sqrt(sum of all squared off-diagonal entries)."""
    return float(off_diagonal_norm(r.rho))


def cholesky(r: CorrMatrix) -> CholeskyFactor:
    """Lower Cholesky factor of R, retrying up the jitter ladder.

    Raises NotPositiveSemidefinite if R + 1e-8 * I still fails to factor.
    """
    for jitter in JITTER_LADDER:
        target = r.rho if jitter == 0.0 else r.rho + jitter * np.eye(r.m)
        try:
            lower = np.linalg.cholesky(target)
        except np.linalg.LinAlgError:
            continue
        return CholeskyFactor(lower=lower, jitter_applied=jitter)
    raise NotPositiveSemidefinite(
        f"matrix is not positive semidefinite (max jitter {JITTER_LADDER[-1]:g} failed)"
    )
