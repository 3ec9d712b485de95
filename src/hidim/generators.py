"""Alternative-family correlation matrices and reproducible Gaussian sampling.

Sampling uses counter-based Philox streams keyed by (seed, trial): a
trial's n*m standard normals are the first n*m that numpy's
``Generator.standard_normal`` (the ziggurat of Marsaglia & Tsang, 2000)
makes of stream (seed, trial), so row i's draws are a pure function of
(seed, trial, i) no matter how trials are scheduled across workers.  The
normals are generated in stream order, so the first k of a longer draw are
the draw of k.  One generator is re-keyed per stream and writes each
stream's row of the output in place: a draw allocates its output and
nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NotPositiveSemidefinite, Unachievable, require_count,
                     require_integer, require_signal)
from .matrix import CholeskyFactor, CorrMatrix, cholesky
from .stats import DataMatrix
# Not called here: bench/tracing.py wraps normal_quantile at this lookup site
# and fails on a missing attribute, so the name stays bound.
from .theory import normal_quantile

# whether each family kind takes the integer k (a pair count or a bandwidth)
_TAKES_K = {"equicorrelation": False, "sparse_pairs": True, "banded": True}


@dataclass(frozen=True)
class Seed:
    """Master seed of the counter-based random streams (64-bit unsigned)."""

    master: int

    def __post_init__(self):
        require_integer("seed", self.master)
        if not 0 <= int(self.master) < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "master", int(self.master))


@dataclass(frozen=True)
class AlternativeFamily:
    """A one-parameter family of correlation matrices R(rho) = I + rho P.

    The pattern P is a symmetric matrix with a zero diagonal, fixed by the
    family's kind and, for the kinds that take one, its integer k >= 1:
    'equicorrelation' (P = 1 off the diagonal, no k), 'sparse_pairs'
    (k disjoint correlated pairs) or 'banded' (P = 1 within bandwidth k of
    the diagonal).  The Frobenius signal ||R(rho) - I||_F is
    ||P||_F * |rho|, strictly increasing in rho >= 0.
    """

    kind: str
    k: int | None = None

    def __post_init__(self):
        if self.kind not in _TAKES_K:
            raise DomainError(f"unknown family kind {self.kind!r}")
        if _TAKES_K[self.kind]:
            require_count(f"{self.kind} k", self.k, 1)
        elif self.k is not None:
            raise DomainError(f"{self.kind} takes no parameter")

    @classmethod
    def equicorrelation(cls) -> "AlternativeFamily":
        return cls("equicorrelation")

    @classmethod
    def sparse_pairs(cls, pairs: int) -> "AlternativeFamily":
        return cls("sparse_pairs", pairs)

    @classmethod
    def banded(cls, bandwidth: int) -> "AlternativeFamily":
        return cls("banded", bandwidth)

    @classmethod
    def parse(cls, text: str) -> "AlternativeFamily":
        """Parse CLI syntax: equicorrelation | sparse-pairs:k | banded:w."""
        name, _, arg = text.partition(":")
        try:
            k = int(arg) if arg else None
        except ValueError as exc:
            raise DomainError(f"{text!r}: parameter must be an integer") from exc
        return cls(name.strip().lower().replace("-", "_"), k)

    @property
    def label(self) -> str:
        name = self.kind.replace("_", "-")
        return name if self.k is None else f"{name}:{self.k}"

    def pattern(self, m: int) -> np.ndarray:
        """The family's pattern P on m variables: symmetric, zero on the
        diagonal, with members R(rho) = I + rho P of Frobenius signal
        ||P||_F * |rho|."""
        require_integer("m", m)
        j = np.arange(m)
        i = j[:, None]
        if self.kind == "equicorrelation":
            mask = i != j
        elif self.kind == "sparse_pairs":
            if 2 * self.k > m:
                raise Unachievable(f"{self.k} disjoint pairs need m >= {2 * self.k}")
            mask = (i != j) & (i // 2 == j // 2) & (i < 2 * self.k)
        else:
            mask = (i != j) & (abs(i - j) <= self.k)
        return mask.astype(float)

    def signal_coefficient(self, m: int) -> float:
        """Frobenius signal per unit rho: ||R(rho) - I||_F = ||P||_F * |rho|."""
        return float(np.linalg.norm(self.pattern(m)))


def make_family_matrix(family: AlternativeFamily, rho: float, m: int) -> CorrMatrix:
    """The family member R(rho) = I + rho P on m variables.  For every kind
    it is a member exactly when ``cholesky`` factors it; otherwise, and for
    a non-finite rho, NotPositiveSemidefinite is raised."""
    require_count("m", m, 2)
    if not math.isfinite(rho):
        raise NotPositiveSemidefinite(f"rho must be finite, got {rho!r}")
    # |rho| near the float limit overflows to inf as CorrMatrix symmetrizes
    # R; such an R has no factor either, so the overflow is no error here
    with np.errstate(over="ignore"):
        result = CorrMatrix(np.eye(m) + rho * family.pattern(m))
    cholesky(result)
    return result


def calibrate_to_theta(family: AlternativeFamily, b: float, m: int, n: int) -> CorrMatrix:
    """Family member with Frobenius signal exactly b * sqrt(m/n).

    Solves for the family parameter in closed form; raises Unachievable
    when the member it names has no Cholesky factor, an overflowing
    signal among them.
    """
    require_signal(b)
    require_count("m", m, 2)
    require_count("n", n, 1)
    target = b * math.sqrt(m / n)
    rho = target / family.signal_coefficient(m)
    try:
        return make_family_matrix(family, rho, m)
    except NotPositiveSemidefinite as exc:
        raise Unachievable(
            f"signal {target:.6g} needs rho = {rho:.6g}, outside the PSD range "
            f"of {family.label}") from exc


# Generator.random gives the top 53 bits k of a raw draw as k 2^-53; adding
# 2^-54 gives (k + 1/2) 2^-53, which rounds to 1.0 for k = 2^53 - 1, so that
# draw is capped to the uniform of the one below it.
_HALF_STEP = 2.0 ** -54
_TOP = 1.0 - 2.0 ** -52


# np.random.Philox(key=...) starts with its 4-word counter at zero and its
# 4-word buffer empty (buffer_pos 4); a re-keyed generator starts there too.
# The state setter takes plain ints, which it converts faster than arrays.
_ZERO_WORDS = (0, 0, 0, 0)


def _philox_rows(master: int, streams: range, count: int, method: str) -> np.ndarray:
    """(len(streams), count) array whose row k is the first count values
    that Generator method `method` (called with out=row) makes of stream
    (master, streams[k]): one generator, re-keyed through its state per
    stream, writes each row."""
    out = np.empty((len(streams), count))
    bits = np.random.Philox(key=0)
    fill = getattr(np.random.Generator(bits), method)
    for row, stream in zip(out, streams):
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": _ZERO_WORDS, "key": (master, stream)},
                      "buffer": _ZERO_WORDS, "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}
        fill(out=row)
    return out


def _philox_uniforms(master: int, streams: range, count: int) -> np.ndarray:
    """The first count uniforms (min(k, 2^53 - 2) + 1/2) 2^-53 in (0, 1) of
    each stream (master, s), s in `streams`, k the top 53 bits of a raw
    word, as a (len(streams), count) array."""
    u = _philox_rows(master, streams, count, "random")
    u += _HALF_STEP
    return np.minimum(u, _TOP, out=u)


# Called nowhere in hidim: bench/tracing.py wraps it where hidim.sim binds it
# and fails on a missing attribute, so it stays.
def _uniform_open(master: int, stream: int, count: int) -> np.ndarray:
    """The first count uniforms in (0, 1) of stream (master, stream)."""
    return _philox_uniforms(master, range(stream, stream + 1), count)[0]


def standard_normal_blocks(seed: Seed, trials: range, rows: int, cols: int) -> np.ndarray:
    """(len(trials), rows, cols) stack whose k-th slice is the block of
    standard normals for (seed, trials[k]), written in place, so the stack
    is the only array the draw allocates."""
    require_count("rows", rows, 0)
    require_count("cols", cols, 0)
    # Philox keys each stream by a 64-bit word
    if len(trials) and not (0 <= trials[0] < 2 ** 64 and 0 <= trials[-1] < 2 ** 64):
        raise DomainError("trial index must fit in an unsigned 64-bit integer")
    # Python ints, so a product of two small numpy integers cannot wrap
    return _philox_rows(seed.master, trials, int(rows) * int(cols),
                        "standard_normal").reshape(len(trials), rows, cols)


def standard_normal_block(seed: Seed, trial: int, rows: int, cols: int) -> np.ndarray:
    """Deterministic rows x cols block of standard normals for (seed, trial)."""
    require_integer("trial", trial)
    return standard_normal_blocks(seed, range(trial, trial + 1), rows, cols)[0]


def sample_gaussian(chol: CholeskyFactor, n: int, seed: Seed, trial: int) -> DataMatrix:
    """n i.i.d. zero-mean rows with correlation L L' for the given (seed, trial)."""
    require_count("n", n, 1)
    z = standard_normal_block(seed, trial, n, chol.m)
    return DataMatrix(z @ chol.lower.T)


def sample_from_matrix(r: CorrMatrix, n: int, seed: Seed, trial: int) -> DataMatrix:
    """Convenience wrapper: factor R and sample in one step."""
    return sample_gaussian(cholesky(r), n, seed, trial)
