"""Simplex-constrained client weighting and regularized aggregation.

Two routes to the same weights: the closed-form softmax over negated
composite errors, and iterative solvers (entropic mirror descent or
Euclidean projected gradient) minimizing

    Phi(w) = sum_k w_k E_k + tau * sum_k w_k ln w_k

over the simplex, with tau = 1/alpha. Its exact minimizer is the
closed-form softmax, so the two routes cross-validate each other.
Diagnostics for the fixed-point, convexity, and generalization behavior
of the scheme live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import sub
from typing import Sequence

import numpy as np

from .datagen import ClientDataset
from .metafeatures import CompositeErrorConfig
from .models import ModelSpec, holdout_losses
from .numerics import (ParamVector, WeightVector, _check_errors, _project_simplex, softmax_neg,
                       weighted_sum)

__all__ = [
    "MetaParams",
    "AggregationOutcome",
    "AGGREGATOR_MODES",
    "phi_objective",
    "weights_iterative",
    "aggregate",
    "fedavg_weights",
    "meta_agg",
    "adapt_meta_params",
    "contraction_estimate",
    "jensen_gap",
    "generalization_bound",
]

#: Aggregation modes, spelled as the config key `aggregator` takes them;
#: every mode but fedavg weights clients through meta_agg.
AGGREGATOR_MODES = ("metafl_closed", "metafl_mirror", "metafl_projected", "fedavg")

# Projected-gradient iterates can land on the boundary, where ln w blows
# up; gradient evaluation clamps weights at this floor.
BOUNDARY_CLAMP = 1e-12

#: Mirror steps per chunk: the mirror solve checks its iterates for
#: finiteness and convergence once per chunk.
MIRROR_CHUNK = 16


@dataclass(frozen=True)
class MetaParams:
    """Aggregator knobs: softmax temperature alpha, shrinkage lambda,
    solver step eta, and the composite-error coefficients. The entropic
    strength tau is no knob: resolved_tau derives it from alpha.

    eta = 0 is allowed: contraction_estimate reads it as the identity
    step, modulus 1. weights_iterative rejects it.
    """

    alpha: float = 1.0
    lam: float = 0.0
    eta: float = 0.1
    max_iters: int = 500
    tol: float = 1e-10
    c: CompositeErrorConfig = field(default_factory=CompositeErrorConfig)

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be finite and >= 0")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lam must be finite and >= 0")
        if self.alpha > 0.0 and not np.isfinite(1.0 / self.alpha):
            raise ValueError("alpha must be 0 or have a finite 1/alpha")
        if not np.isfinite(self.eta) or self.eta < 0.0:
            raise ValueError("eta must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")

    def resolved_tau(self) -> float:
        """tau = 1/alpha, and 1.0 at alpha = 0: the one map from alpha to tau."""
        return 1.0 / self.alpha if self.alpha > 0.0 else 1.0


@dataclass(frozen=True)
class AggregationOutcome:
    """Aggregated parameters plus the weighting evidence behind them.

    solver_iters and solver_residual are those weights_iterative returned,
    and 0 when no iterative solve ran.
    """

    theta_g: ParamVector
    weights: WeightVector
    phi_value: float
    solver_iters: int
    solver_residual: float


def phi_objective(w: WeightVector, errors: Sequence[float], tau: float) -> float:
    """Linear cost plus entropic regularizer, with the 0 ln 0 = 0 convention."""
    e = _check_errors(errors)
    if e.size != w.k:
        raise ValueError("errors and weights lengths differ")
    if not np.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and >= 0")
    wv = w.weights
    nz = wv > 0.0
    entropy_term = float((wv[nz] * np.log(wv[nz])).sum())
    return float(wv @ e) + tau * entropy_term


def _projected_solve(e: np.ndarray, mp: MetaParams, tau: float) -> tuple[WeightVector, int, float]:
    """weights_iterative's projected-gradient loop over Python floats: each
    step is the numpy step w - eta * (E + tau * (1 + ln max(w,
    BOUNDARY_CLAMP))), then numerics._project_simplex of that target, in
    numpy's order and to the bit. A non-finite target is not projected but
    reported as divergence. Only the log stays np.log, as math.log rounds
    some inputs apart."""
    k, eta, errs = e.size, mp.eta, e.tolist()
    w, residual = [1.0 / k] * k, math.inf
    for t in range(1, mp.max_iters + 1):
        logs = np.log([v if v > BOUNDARY_CLAMP else BOUNDARY_CLAMP for v in w]).tolist()
        w_next = target = [v - eta * (ek + tau * (1.0 + lv)) for v, ek, lv in zip(w, errs, logs)]
        if all(map(math.isfinite, target)):
            w_next = _project_simplex(target)
        if not all(map(math.isfinite, w_next)):
            raise ValueError(f"divergence in projected solver at iteration {t}")
        residual = max(map(abs, map(sub, w_next, w)))
        w = w_next
        if residual < mp.tol:
            return WeightVector(w), t, residual
    return WeightVector(w), mp.max_iters, residual


def _mirror_solve(e: np.ndarray, mp: MetaParams, tau: float) -> tuple[WeightVector, int, float]:
    """weights_iterative's mirror-descent loop, MIRROR_CHUNK steps at a
    time in preallocated buffers. Each step is, in numpy's order and to
    the bit, log_w = ln max(w, BOUNDARY_CLAMP), z = log_w - eta * (E +
    tau * (1 + log_w)), z -= max z, w' = exp z / sum exp z. A chunk's
    iterates are checked together: the first that meets mp.tol is
    returned, else the first non-finite one is reported as divergence at
    its own iteration."""
    k, eta = e.size, mp.eta
    ws = np.empty((MIRROR_CHUNK + 1, k))  # row 0 the chunk's start, row j its iterate j
    ws[0] = 1.0 / k
    log_w, step = np.empty(k), np.empty(k)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite iterate is divergence
        while done < mp.max_iters:
            steps = min(MIRROR_CHUNK, mp.max_iters - done)
            for j in range(1, steps + 1):
                w = ws[j]
                np.maximum(ws[j - 1], BOUNDARY_CLAMP, out=log_w)
                np.log(log_w, out=log_w)
                np.add(log_w, 1.0, out=step)
                np.multiply(step, tau, out=step)
                np.add(step, e, out=step)
                np.multiply(step, eta, out=step)
                np.subtract(log_w, step, out=w)
                np.subtract(w, np.maximum.reduce(w), out=w)
                np.exp(w, out=w)
                np.divide(w, np.add.reduce(w), out=w)
            chunk = ws[1 : steps + 1]
            residuals = np.abs(chunk - ws[:steps]).max(axis=1)
            # a NaN, once in an iterate, fills every later one and no NaN
            # residual meets tol, so a met tol comes before any divergence
            met = np.flatnonzero(residuals < mp.tol)
            if met.size:
                i = int(met[0])
                return WeightVector(chunk[i]), done + i + 1, float(residuals[i])
            diverged = np.flatnonzero(~np.isfinite(chunk).all(axis=1))
            if diverged.size:
                t = done + int(diverged[0]) + 1
                raise ValueError(f"divergence in mirror solver at iteration {t}")
            done += steps
            ws[0] = ws[steps]
    return WeightVector(ws[0]), mp.max_iters, float(residuals[-1])


def weights_iterative(
    errors: Sequence[float], mp: MetaParams, solver: str = "mirror"
) -> tuple[WeightVector, int, float]:
    """Iterate the chosen update from uniform until the sup-norm residual
    drops below mp.tol or mp.max_iters is reached.

    Returns (weights, iterations used, final residual). mp.eta must be > 0:
    a zero step would report the uniform start as converged.

    From uniform, mirror iterate t is softmax_neg(E, alpha_t) with
    alpha_t = (1 - (1 - eta*tau)^t) / tau while no weight hits
    BOUNDARY_CLAMP, so for eta*tau <= 1 an unconverged mirror solve reports
    the closed form at a smaller alpha than mp.alpha.

    The projected solve runs over Python floats (_projected_solve): 0.2
    (K = 2) to 0.7 (K = 24) of the numpy loop's time, but more from about
    K = 40 on, 5.4 times at K = 300 (README). The mirror step is an exp,
    which math.exp rounds apart from np.exp, so it stays in numpy
    (_mirror_solve): its steps write into buffers made once per call, and
    finiteness and the residual are checked once per MIRROR_CHUNK steps.
    """
    if solver not in ("mirror", "projected"):
        raise ValueError("solver must be one of ('mirror', 'projected')")
    if mp.eta == 0.0:
        raise ValueError(f"eta must be > 0 for the {solver} solver")
    e = _check_errors(errors)
    k = e.size
    if k == 1:
        return WeightVector(np.ones(1)), 0, 0.0
    tau = mp.resolved_tau()
    if solver == "projected":
        return _projected_solve(e, mp, tau)
    return _mirror_solve(e, mp, tau)


def aggregate(thetas: np.ndarray, w: WeightVector, lam: float) -> ParamVector:
    """Weighted sum of the rows of thetas [K, P], shrunk by 1/(1 + lambda)."""
    if not np.isfinite(lam) or lam < 0.0:
        raise ValueError("lam must be finite and >= 0")
    mean = weighted_sum(thetas, w)
    return ParamVector(mean.coords / (1.0 + lam))


def fedavg_weights(n: Sequence[int]) -> WeightVector:
    """Sample-share weights n_k / n."""
    counts = np.asarray(n, dtype=np.float64).reshape(-1)
    if counts.size == 0:
        raise ValueError("empty cohort")
    if np.any(counts < 1):
        raise ValueError("all n_k must be >= 1")
    return WeightVector(counts / counts.sum())


def meta_agg(
    thetas: np.ndarray, errors: np.ndarray, mp: MetaParams, mode: str = "metafl_closed"
) -> AggregationOutcome:
    """Weight solve over the composite errors E [K], shrunk weighted sum
    of the parameter rows thetas [K, P], and the bookkeeping values.

    mode is a metafl_* entry of AGGREGATOR_MODES; metafl_mirror and
    metafl_projected solve with the weights_iterative solver they name.
    Every mode minimizes Phi at tau = 1/alpha. alpha = 0 means uniform
    averaging in every mode: the exact alpha -> 0 limit of both routes,
    and the closed form's softmax at alpha = 0.
    """
    if mode not in AGGREGATOR_MODES or mode == "fedavg":
        raise ValueError(f"mode must be a metafl_* entry of {AGGREGATOR_MODES}, got {mode!r}")
    e = _check_errors(errors)
    iters, residual = 0, 0.0
    if mode == "metafl_closed" or mp.alpha == 0.0:
        weights = softmax_neg(e, mp.alpha)
    else:
        weights, iters, residual = weights_iterative(e, mp, mode.removeprefix("metafl_"))
    return AggregationOutcome(
        theta_g=aggregate(thetas, weights, mp.lam),
        weights=weights,
        phi_value=phi_objective(weights, e, mp.resolved_tau()),
        solver_iters=iters,
        solver_residual=residual,
    )


def adapt_meta_params(
    mp: MetaParams,
    candidates_alpha: Sequence[float],
    thetas: np.ndarray,
    errors: np.ndarray,
    spec: ModelSpec,
    global_val: ClientDataset,
) -> MetaParams:
    """Grid-search alpha: weight the errors E [K] by each candidate's
    closed form, aggregate the rows of thetas [K, P], and keep the
    candidate whose aggregated model scores the lowest loss on the
    server-held validation set. Every candidate's aggregate is scored in
    one holdout_losses pass. Ties break toward the smallest alpha.
    """
    candidates = [float(a) for a in candidates_alpha]
    if not candidates:
        raise ValueError("empty grid")
    grid = np.stack([aggregate(thetas, softmax_neg(errors, a), mp.lam).coords for a in candidates])
    # the least (loss, alpha): ties go to the smaller alpha; a NaN wins only if first
    _, best_alpha = min(zip(holdout_losses(spec, grid, global_val).tolist(), candidates))
    return replace(mp, alpha=best_alpha)


def contraction_estimate(errors: Sequence[float], mp: MetaParams) -> float:
    """Lipschitz modulus |1 - eta * tau| of one entropic mirror step (0 for
    one client): the step is affine in ln w with slope 1 - eta * tau, so in
    the log-ratio (Hilbert projective) metric it scales every distance by
    exactly that (Beck & Teboulle 2003). The errors only shift ln w.
    """
    if _check_errors(errors).size == 1:
        return 0.0
    return abs(1.0 - mp.eta * mp.resolved_tau())


def jensen_gap(spec: ModelSpec, thetas: np.ndarray, w: WeightVector, data: ClientDataset) -> float:
    """Weighted mean loss of the rows of thetas [K, P] on data minus the
    loss of their weighted mean, all K + 1 scored in one holdout_losses
    pass.

    Nonnegative whenever the loss is convex in the parameters, which
    holds for hidden_dim = 0 models. Raises ValueError if a loss is not
    finite.
    """
    mean_theta = weighted_sum(thetas, w)
    losses = holdout_losses(spec, np.vstack([thetas, mean_theta.coords]), data)
    if not np.isfinite(losses).all():
        raise ValueError("jensen_gap: a holdout loss is not finite")
    return float(w.weights @ losses[:-1]) - float(losses[-1])


def generalization_bound(log_h: float, m: int, kl_avg: float) -> float:
    """Diagnostic bound sqrt(2 log_h / m) + sqrt(2 kl_avg / m) + 1/sqrt(m)."""
    if log_h < 0.0 or kl_avg < 0.0:
        raise ValueError("log_h and kl_avg must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.sqrt(2.0 * log_h / m) + math.sqrt(2.0 * kl_avg / m) + 1.0 / math.sqrt(m)
