"""Simplex-constrained client weighting and regularized aggregation.

Two routes to the same weights: the closed-form softmax over negated
composite errors, and iterative solvers (entropic mirror descent or
Euclidean projected gradient) minimizing

    Phi(w) = sum_k w_k E_k + tau * sum_k w_k ln w_k

over the simplex. For tau = 1/alpha the exact minimizer of Phi is the
closed-form softmax, so the two routes cross-validate each other.
Diagnostics for the fixed-point, convexity, and generalization behavior
of the scheme live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .datagen import ClientDataset
from .metafeatures import CompositeErrorConfig
from .models import ModelSpec, local_loss
from .numerics import (
    ParamVector, Rng, WeightVector, _check_errors, _project_simplex, softmax_neg, weighted_sum,
)

__all__ = [
    "MetaParams",
    "AggregationOutcome",
    "AGGREGATOR_MODES",
    "phi_objective",
    "phi_gradient",
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


@dataclass(frozen=True)
class MetaParams:
    """Aggregator knobs: softmax temperature alpha, shrinkage lambda,
    entropic strength tau (defaults to 1/alpha), solver step eta, and the
    composite-error coefficients.

    eta = 0 is allowed so the identity update can be probed in
    diagnostics; weights_iterative rejects it.
    """

    alpha: float = 1.0
    lam: float = 0.0
    tau: float | None = None
    eta: float = 0.1
    max_iters: int = 500
    tol: float = 1e-10
    c: CompositeErrorConfig = field(default_factory=CompositeErrorConfig)

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be finite and >= 0")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lam must be finite and >= 0")
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be finite and positive when given")
        if self.tau is None and self.alpha > 0.0 and not np.isfinite(1.0 / self.alpha):
            raise ValueError("alpha must be 0 or have a finite 1/alpha when tau is unset")
        if not np.isfinite(self.eta) or self.eta < 0.0:
            raise ValueError("eta must be finite and >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must lie in (0, 1)")

    def resolved_tau(self) -> float:
        """tau if set, else 1/alpha; 1.0 in the degenerate alpha = 0 case."""
        if self.tau is not None:
            return self.tau
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


def _clamped_log(w: np.ndarray) -> np.ndarray:
    """ln w_k with w clamped at BOUNDARY_CLAMP."""
    return np.log(np.maximum(w, BOUNDARY_CLAMP))


def _gradient(log_w: np.ndarray, e: np.ndarray, tau: float) -> np.ndarray:
    """E_k + tau (1 + ln w_k), given log_w = _clamped_log(w)."""
    return e + tau * (1.0 + log_w)


def phi_gradient(w: WeightVector, errors: Sequence[float], tau: float) -> np.ndarray:
    """Analytic gradient E_k + tau (1 + ln w_k); defined on the interior only."""
    e = _check_errors(errors)
    if e.size != w.k:
        raise ValueError("errors and weights lengths differ")
    if not np.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and >= 0")
    if np.any(w.weights <= 0.0):
        raise ValueError("boundary gradient undefined")
    return _gradient(_clamped_log(w.weights), e, tau)


def _mirror_step(w: np.ndarray, e: np.ndarray, tau: float, eta: float) -> np.ndarray:
    if eta == 0.0:
        return w
    log_w = _clamped_log(w)
    z = log_w - eta * _gradient(log_w, e, tau)
    z -= z.max()
    out = np.exp(z)
    return out / out.sum()


def _projected_step(w: np.ndarray, e: np.ndarray, tau: float, eta: float) -> np.ndarray:
    """One projected-gradient step; a non-finite target is returned as is,
    for the solver loop to report as divergence, not warned about."""
    target = w - eta * _gradient(_clamped_log(w), e, tau)
    return _project_simplex(target) if np.isfinite(target).all() else target


#: Each solver's step, and the numpy warnings its whole solve turns off.
_STEPS = {
    "mirror": (_mirror_step, {}),
    "projected": (_projected_step, {"over": "ignore", "invalid": "ignore"}),
}


def weights_iterative(
    errors: Sequence[float], mp: MetaParams, solver: str = "mirror"
) -> tuple[WeightVector, int, float]:
    """Iterate the chosen update from uniform until the sup-norm residual
    drops below mp.tol or mp.max_iters is reached.

    Returns (weights, iterations used, final residual). mp.eta must be > 0:
    a zero step would report the uniform start as converged.
    """
    if solver not in _STEPS:
        raise ValueError(f"solver must be one of {tuple(_STEPS)}")
    if mp.eta == 0.0:
        raise ValueError(f"eta must be > 0 for the {solver} solver")
    e = _check_errors(errors)
    k = e.size
    if k == 1:
        return WeightVector(np.ones(1)), 0, 0.0
    tau = mp.resolved_tau()
    step, quiet = _STEPS[solver]
    w = np.full(k, 1.0 / k)
    residual = math.inf
    with np.errstate(**quiet):
        for t in range(1, mp.max_iters + 1):
            w_next = step(w, e, tau, mp.eta)
            if not np.isfinite(w_next).all():
                raise ValueError(f"divergence in {solver} solver at iteration {t}")
            residual = float(np.abs(w_next - w).max())
            w = w_next
            if residual < mp.tol:
                return WeightVector(w), t, residual
    return WeightVector(w), mp.max_iters, residual


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
    alpha = 0 (with tau unset) means temperature-free uniform averaging
    in every mode; it is the exact alpha -> 0 limit of both routes, and
    the closed form's softmax at alpha = 0.
    """
    if mode not in AGGREGATOR_MODES or mode == "fedavg":
        raise ValueError(f"mode must be a metafl_* entry of {AGGREGATOR_MODES}, got {mode!r}")
    e = _check_errors(errors)
    iters, residual = 0, 0.0
    if mode == "metafl_closed" or (mp.alpha == 0.0 and mp.tau is None):
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
    server-held validation set. Ties break toward the smallest alpha;
    tau resets to track the winner.
    """
    candidates = [float(a) for a in candidates_alpha]
    if not candidates:
        raise ValueError("empty grid")
    best_alpha = None
    best_loss = math.inf
    for alpha in candidates:
        theta = aggregate(thetas, softmax_neg(errors, alpha), mp.lam)
        loss = local_loss(spec, theta, global_val)
        if (
            best_alpha is None
            or loss < best_loss
            or (loss == best_loss and alpha < best_alpha)
        ):
            best_alpha, best_loss = alpha, loss
    return replace(mp, alpha=best_alpha, tau=None)


def _log_ratio_dist(w: np.ndarray, w_other: np.ndarray) -> float:
    # Hilbert projective metric: max-minus-min of coordinate log ratios.
    r = np.log(np.maximum(w, 1e-300)) - np.log(np.maximum(w_other, 1e-300))
    return float(r.max() - r.min())


def contraction_estimate(
    errors: Sequence[float], mp: MetaParams, samples: int, rng: Rng
) -> float:
    """Empirical Lipschitz modulus of one mirror step over random simplex
    pairs: sup d(step(w), step(w')) / d(w, w').

    Distances use the log-ratio (Hilbert projective) metric, the natural
    metric for multiplicative updates; in it the entropic mirror step has
    global contraction factor |1 - eta * tau|, so the default
    eta = 0.1, tau = 1 configuration estimates ~0.9. The Euclidean ratio
    is unbounded near the simplex boundary and would not witness the
    fixed-point behavior.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    e = _check_errors(errors)
    k = e.size
    if k == 1:
        return 0.0
    tau = mp.resolved_tau()
    best = 0.0
    for _ in range(samples):
        w = rng.dirichlet(np.ones(k))
        w_other = rng.dirichlet(np.ones(k))
        dist = _log_ratio_dist(w, w_other)
        if dist == 0.0:
            continue
        moved = _log_ratio_dist(
            _mirror_step(w, e, tau, mp.eta), _mirror_step(w_other, e, tau, mp.eta)
        )
        best = max(best, moved / dist)
    return best


def jensen_gap(
    spec: ModelSpec,
    thetas: np.ndarray,
    w: WeightVector,
    data: ClientDataset,
    loss_fn: Callable[[ParamVector], float] | None = None,
) -> float:
    """Weighted mean loss of the rows of thetas [K, P] minus the loss of
    their weighted mean.

    Nonnegative whenever the loss is convex in the parameters, which
    holds for hidden_dim = 0 models. loss_fn overrides the default
    model loss on ``data`` (used by surrogate-loss checks).
    """
    if loss_fn is None:
        loss_fn = lambda theta: local_loss(spec, theta, data)
    mean_theta = weighted_sum(thetas, w)
    mean_of_losses = float(
        w.weights @ np.array([loss_fn(ParamVector(theta)) for theta in thetas])
    )
    return mean_of_losses - loss_fn(mean_theta)


def generalization_bound(log_h: float, m: int, kl_avg: float) -> float:
    """Diagnostic bound sqrt(2 log_h / m) + sqrt(2 kl_avg / m) + 1/sqrt(m)."""
    if log_h < 0.0 or kl_avg < 0.0:
        raise ValueError("log_h and kl_avg must be >= 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.sqrt(2.0 * log_h / m) + math.sqrt(2.0 * kl_avg / m) + 1.0 / math.sqrt(m)
