"""Deterministic vector math and simplex geometry primitives.

All arithmetic is 64-bit floating point. Randomness anywhere in the
package flows through :func:`make_rng`, which pins the generator to
numpy's PCG64 so identical seeds give identical streams across runs
and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

__all__ = [
    "ParamVector",
    "WeightVector",
    "make_rng",
    "derive_seed",
    "softmax_neg",
    "weighted_sum",
]

SIMPLEX_SUM_TOL = 1e-9


def make_rng(seed: int | Sequence[int]) -> np.random.Generator:
    """Seeded PCG64 generator; the single PRNG algorithm used in this repo."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def derive_seed(*parts: int) -> int:
    """Mix integer parts into a fresh 64-bit seed, deterministically."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True).reshape(-1)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat vector of real-valued model parameters.

    Coordinates are finite float64; the array is copied and frozen at
    construction so instances are safe to share across threads.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("parameter vector must be 1-D with dim >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter vector has non-finite coordinates")
        object.__setattr__(self, "coords", _freeze(arr))

    @property
    def dim(self) -> int:
        return self.coords.size

    def __len__(self) -> int:
        return self.coords.size


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Point on the probability simplex: entries >= 0, sum within 1e-9 of 1."""

    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("weight vector must be 1-D with K >= 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("weight vector has non-finite entries")
        if np.any(arr < 0.0):
            raise ValueError("weight vector has negative entries")
        if abs(float(arr.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"weights sum to {arr.sum():.17g}, not 1")
        object.__setattr__(self, "weights", _freeze(arr))

    @property
    def k(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.weights.size


def _check_errors(errors: Sequence[float]) -> np.ndarray:
    """The cohort's errors E as 1-D float64 (no copy if already so), nonempty and finite."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 0:
        raise ValueError("empty cohort")
    if not np.all(np.isfinite(e)):
        raise ValueError("non-finite error metric")
    return e


def softmax_neg(values: Sequence[float], alpha: float) -> WeightVector:
    """Weights proportional to exp(-alpha * value), normalized to sum 1.

    The products -alpha * value are shifted by their max, so every
    exponent is <= 0 and adding a constant to all values leaves the
    result unchanged. A product can still overflow (alpha near the float
    range, or a huge value); then the values are shifted by their least
    one before scaling, so an overflowing exponent is -inf and its weight
    0: in the limit of huge alpha, equal weight on the least values.
    Neither route warns.
    """
    v = _check_errors(values)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError("alpha must be finite and >= 0")
    with np.errstate(over="ignore"):
        z = -alpha * v
        if np.isfinite(z).all():
            z -= z.max()
        else:
            z = -alpha * (v - v.min())
    e = np.exp(z)
    return WeightVector(e / e.sum())


def _project_simplex(x: list[float]) -> list[float]:
    """Euclidean projection of finite floats onto the simplex, unchecked:
    the inner step of the projected solver. It runs over Python floats,
    in the order and to the bit of numpy's sort, cumsum and maximum."""
    u, rho = sorted(x, reverse=True), -1
    for i, (ui, ci) in enumerate(zip(u, accumulate(u))):  # rho: the last positive index
        if ui - (ci - 1.0) / (i + 1) > 0.0:
            rho, css = i, ci - 1.0
    if rho < 0:  # exact arithmetic always keeps rho = 0; rounding may not
        raise ValueError("entries too large to project onto the simplex in float64")
    tau = css / (rho + 1.0)
    return [v - tau if v > tau else 0.0 for v in x]  # v - tau > 0 iff v > tau


def project_simplex(point: Sequence[float]) -> WeightVector:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold construction: the unique nearest simplex point is
    max(x - tau, 0) with tau chosen so the result sums to 1.
    """
    x = np.asarray(point, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise ValueError("empty point")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite coordinates")
    return WeightVector(_project_simplex(x.tolist()))


def weighted_sum(thetas: np.ndarray, w: WeightVector) -> ParamVector:
    """w @ thetas: the weighted sum of the rows of a [K, P] parameter
    matrix; exact for 0/1 weights."""
    if len(thetas) != w.k:
        raise ValueError(f"got {len(thetas)} parameter rows for {w.k} weights")
    return ParamVector(w.weights @ thetas)
