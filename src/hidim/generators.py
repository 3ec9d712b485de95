"""Alternative-family correlation matrices and reproducible Gaussian sampling.

Sampling uses counter-based Philox streams keyed by (seed, trial): a
trial's n*m uniforms are one fixed-size block of the stream, so row i's
draws are a pure function of (seed, trial, i) no matter how trials are
scheduled across workers.  Standard normals come from the inverse CDF
applied to uniforms strictly inside (0, 1): the top 53 bits k of each raw
64-bit draw map to (k + 1/2) 2^-53, with k capped at 2^53 - 2 because
the top value would round to exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPositiveSemidefinite, Unachievable
from .matrix import CholeskyFactor, CorrMatrix, cholesky
from .stats import DataMatrix
from .theory import normal_quantile

_FAMILY_KINDS = ("equicorrelation", "sparse_pairs", "banded")


@dataclass(frozen=True)
class Seed:
    """Master seed of the counter-based random streams (64-bit unsigned)."""

    master: int

    def __post_init__(self):
        if not 0 <= int(self.master) < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "master", int(self.master))


@dataclass(frozen=True)
class AlternativeFamily:
    """A one-parameter family of unit-diagonal correlation patterns.

    kind is one of 'equicorrelation' (all off-diagonal entries equal),
    'sparse_pairs' (``pairs`` disjoint correlated pairs), or 'banded'
    (entries within ``bandwidth`` of the diagonal).  The signal size is
    strictly increasing in the family parameter rho >= 0.
    """

    kind: str
    pairs: int = 1
    bandwidth: int = 1

    def __post_init__(self):
        if self.kind not in _FAMILY_KINDS:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if self.kind == "sparse_pairs" and self.pairs < 1:
            raise DomainError("sparse_pairs needs at least one pair")
        if self.kind == "banded" and self.bandwidth < 1:
            raise DomainError("banded needs bandwidth >= 1")

    @classmethod
    def equicorrelation(cls) -> "AlternativeFamily":
        return cls(kind="equicorrelation")

    @classmethod
    def sparse_pairs(cls, pairs: int) -> "AlternativeFamily":
        return cls(kind="sparse_pairs", pairs=pairs)

    @classmethod
    def banded(cls, bandwidth: int) -> "AlternativeFamily":
        return cls(kind="banded", bandwidth=bandwidth)

    @classmethod
    def parse(cls, text: str) -> "AlternativeFamily":
        """Parse CLI syntax: equicorrelation | sparse-pairs:k | banded:w."""
        name, _, arg = text.partition(":")
        name = name.strip().lower().replace("-", "_")
        if name == "equicorrelation":
            if arg:
                raise DomainError("equicorrelation takes no parameter")
            return cls.equicorrelation()
        if name in ("sparse_pairs", "banded"):
            if not arg:
                raise DomainError(f"{text!r}: missing integer parameter")
            try:
                value = int(arg)
            except ValueError as exc:
                raise DomainError(f"{text!r}: parameter must be an integer") from exc
            return cls.sparse_pairs(value) if name == "sparse_pairs" else cls.banded(value)
        raise DomainError(f"unknown family {text!r}")

    @property
    def label(self) -> str:
        if self.kind == "sparse_pairs":
            return f"sparse-pairs:{self.pairs}"
        if self.kind == "banded":
            return f"banded:{self.bandwidth}"
        return "equicorrelation"

    def signal_coefficient(self, m: int) -> float:
        """Frobenius signal per unit rho: ||R(rho) - I||_F = coefficient * |rho|."""
        if self.kind == "equicorrelation":
            return float(np.sqrt(m * (m - 1)))
        if self.kind == "sparse_pairs":
            if 2 * self.pairs > m:
                raise Unachievable(f"{self.pairs} disjoint pairs need m >= {2 * self.pairs}")
            return float(np.sqrt(2 * self.pairs))
        count = sum(m - d for d in range(1, min(self.bandwidth, m - 1) + 1))
        return float(np.sqrt(2 * count))


def make_family_matrix(family: AlternativeFamily, rho: float, m: int) -> CorrMatrix:
    """Instantiate the family pattern at parameter rho as a valid CorrMatrix."""
    if m < 2:
        raise DomainError("m must be at least 2")
    if family.kind == "equicorrelation":
        if not -1.0 / (m - 1) < rho < 1.0:
            raise NotPositiveSemidefinite(
                f"equicorrelation requires -1/(m-1) < rho < 1, got {rho!r}")
        arr = np.full((m, m), rho)
        np.fill_diagonal(arr, 1.0)
        return CorrMatrix(arr)
    if family.kind == "sparse_pairs":
        if abs(rho) >= 1.0:
            raise NotPositiveSemidefinite(f"sparse pairs require |rho| < 1, got {rho!r}")
        if 2 * family.pairs > m:
            raise Unachievable(f"{family.pairs} disjoint pairs need m >= {2 * family.pairs}")
        arr = np.eye(m)
        for k in range(family.pairs):
            arr[2 * k, 2 * k + 1] = rho
            arr[2 * k + 1, 2 * k] = rho
        return CorrMatrix(arr)
    # banded: no closed-form PSD range; the Cholesky gate decides
    arr = np.eye(m)
    for d in range(1, min(family.bandwidth, m - 1) + 1):
        idx = np.arange(m - d)
        arr[idx, idx + d] = rho
        arr[idx + d, idx] = rho
    result = CorrMatrix(arr)
    cholesky(result)  # raises NotPositiveSemidefinite on failure
    return result


def calibrate_to_theta(family: AlternativeFamily, b: float, m: int, n: int) -> CorrMatrix:
    """Family member with Frobenius signal exactly b * sqrt(m/n).

    Solves for the family parameter in closed form; raises Unachievable
    when no positive semidefinite member attains the target.
    """
    if b < 0.0:
        raise DomainError("b must be nonnegative")
    target = b * np.sqrt(m / n)
    rho = target / family.signal_coefficient(m)
    try:
        return make_family_matrix(family, rho, m)
    except NotPositiveSemidefinite as exc:
        raise Unachievable(
            f"signal {target:.6g} needs rho = {rho:.6g}, outside the PSD range "
            f"of {family.label}") from exc


_SHIFT = np.uint64(11)
_SCALE = float(2.0 ** -53)
# (2^53 - 1) + 1/2 rounds to 2^53 in double precision, so the top 53-bit
# value shares the uniform of the one below it instead of giving 1.0.
_TOP = np.uint64(2 ** 53 - 2)


# np.random.Philox(key=...) starts with its 4-word counter at zero and its
# 4-word buffer empty (buffer_pos 4); a re-keyed generator starts there too.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _philox_raw(master: int, streams: range, count: int) -> np.ndarray:
    """`count` raw 64-bit draws from each stream (master, s), s in `streams`,
    as a (len(streams), count) array.  One generator serves every stream: it
    is built for the first and re-keyed through its state for the others."""
    raw = np.empty((len(streams), count), dtype=np.uint64)
    bits = None
    for row, stream in enumerate(streams):
        key = np.array([master, stream], dtype=np.uint64)
        if bits is None:
            bits = np.random.Philox(key=key)
        else:
            bits.state = {"bit_generator": "Philox",
                          "state": {"counter": _ZERO_WORDS, "key": key},
                          "buffer": _ZERO_WORDS, "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
        raw[row] = bits.random_raw(count)
    return raw


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    """(min(raw >> 11, _TOP) + 1/2) 2^-53, overwriting ``raw`` on the way."""
    np.right_shift(raw, _SHIFT, out=raw)
    u = np.minimum(raw, _TOP, out=raw).astype(np.float64)
    u += 0.5
    u *= _SCALE
    return u


def _uniform_open(master: int, stream: int, count: int) -> np.ndarray:
    """`count` uniforms in the open interval (0,1) from stream (master, stream)."""
    return _to_uniform(_philox_raw(master, range(stream, stream + 1), count))[0]


def standard_normal_blocks(seed: Seed, trials: range, rows: int, cols: int) -> np.ndarray:
    """(len(trials), rows, cols) stack whose k-th slice is the block of
    standard normals for (seed, trials[k]), drawn with one uniform transform
    and one normal quantile over the whole range."""
    if len(trials) and min(trials[0], trials[-1]) < 0:
        raise DomainError("trial index must be nonnegative")
    z = normal_quantile(_to_uniform(_philox_raw(seed.master, trials, rows * cols)))
    return np.negative(z, out=z).reshape(len(trials), rows, cols)


def standard_normal_block(seed: Seed, trial: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic rows x cols block of standard normals for (seed, trial)."""
    return standard_normal_blocks(seed, range(trial, trial + 1), rows, cols)[0]


def sample_gaussian(chol: CholeskyFactor, n: int, seed: Seed, trial: int) -> DataMatrix:
    """n i.i.d. zero-mean rows with correlation L L' for the given (seed, trial)."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    z = standard_normal_block(seed, trial, n, chol.m)
    return DataMatrix(z @ chol.lower.T)


def sample_from_matrix(r: CorrMatrix, n: int, seed: Seed, trial: int) -> DataMatrix:
    """Convenience wrapper: factor R and sample in one step."""
    return sample_gaussian(cholesky(r), n, seed, trial)
