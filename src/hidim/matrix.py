"""Correlation matrices, dependency-signal size, and the Cholesky factor.

Dense storage throughout: the statistic itself is a dense O(m^2) sum, so
m stays at experiment scale and O(m^2) memory is acceptable.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveSemidefinite


@functools.lru_cache(maxsize=16)
def pair_offsets(m: int) -> np.ndarray:
    """Flat offsets p * m + q of the pairs p < q in row-major order, the order
    of every sum over the pairs; cached and read-only, as callers share it."""
    p, q = np.triu_indices(m, 1)
    flat = p * m + q
    flat.flags.writeable = False
    return flat


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of the square ``arr``, exactly symmetric and of unit
    diagonal."""
    arr = 0.5 * (arr + arr.T)
    arr.flat[::arr.shape[0] + 1] = 1.0      # the diagonal; np.fill_diagonal costs ~4x as much
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CorrMatrix:
    """An m x m correlation matrix with unit diagonal.

    The constructor enforces structure (square, finite, symmetric to 1e-12,
    unit diagonal to 1e-12) and then stores an exactly symmetrized read-only
    copy.  Positive definiteness is enforced where it matters, by
    ``cholesky``: a matrix with no plain Cholesky factor is never sampled.
    """

    rho: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.rho):     # a cast would drop the imaginary parts
            raise ValueError("correlation matrix must be real, got complex entries")
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

    @functools.cached_property
    def pairs(self) -> np.ndarray:
        """The m(m-1)/2 correlations rho_pq, p < q, in ``pair_offsets`` order;
        built on first use and read-only, as every caller shares it."""
        pairs = self.rho.ravel()[pair_offsets(self.m)]
        pairs.flags.writeable = False
        return pairs

    @functools.cached_property
    def squares(self) -> np.ndarray:
        """R * R (entrywise) with a zero diagonal; built on first use and
        read-only, as every caller shares it."""
        squares = self.rho * self.rho
        squares.flat[::self.m + 1] = 0.0
        squares.flags.writeable = False
        return squares

    @classmethod
    def identity(cls, m: int) -> "CorrMatrix":
        return cls(np.eye(m))

    def to_json(self) -> str:
        """The matrix as the JSON object {"m": int, "rho": [[...]]}."""
        return json.dumps({"m": self.m, "rho": self.rho.tolist()})


@dataclass(frozen=True)
class CholeskyFactor:
    """The lower-triangular factor L of R = L L'.  ``jitter_applied`` is
    always 0.0 and stays only because the benchmark's tracer reads it."""

    lower: np.ndarray
    jitter_applied: float = 0.0

    def __post_init__(self):
        arr = np.array(self.lower, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "lower", arr)

    @property
    def m(self) -> int:
        return self.lower.shape[0]


def frobenius_signal(r: CorrMatrix) -> float:
    """Frobenius norm of R - I: sqrt(sum of all squared off-diagonal entries)."""
    return float(np.sqrt(np.sum(r.squares)))


def cholesky(r: CorrMatrix) -> CholeskyFactor:
    """The plain lower Cholesky factor of R, with no diagonal jitter; raises
    NotPositiveSemidefinite when R has none, so no sample is ever drawn
    from a matrix other than R."""
    try:
        return CholeskyFactor(np.linalg.cholesky(r.rho))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveSemidefinite(
            "matrix is not positive definite: it has no Cholesky factor") from exc
