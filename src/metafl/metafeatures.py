"""Per-client descriptors and the composite error they feed.

A cohort's meta-features form a [K, len(FEATURE_FIELDS)] matrix, one row
per client in FEATURE_FIELDS column order. The composite error for
client k is its validation loss plus an affine combination of its
(optionally cohort-normalized) row; with all coefficients zero it
reduces to the loss alone, and no features are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datagen import Segments, label_distribution
from .models import (
    ModelSpec, TrainConfig, _check_nonnegative, cohort_losses, param_count, train_cohort,
)
from .numerics import ParamVector, _check_errors

__all__ = [
    "FEATURE_FIELDS",
    "CompositeErrorConfig",
    "extract",
    "composite_errors",
]

#: Feature-matrix column order, also the order of CompositeErrorConfig.c.
FEATURE_FIELDS = (
    "dataset_size",
    "label_entropy",
    "update_norm",
    "data_complexity",
    "lr_sensitivity",
)


@dataclass(frozen=True)
class CompositeErrorConfig:
    """Coefficients (one per FEATURE_FIELDS entry, may be negative) and
    whether features are min-max normalized across the cohort first."""

    c: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0)
    normalize: bool = True

    def __post_init__(self):
        coeffs = tuple(float(v) for v in self.c)
        if len(coeffs) != len(FEATURE_FIELDS):
            raise ValueError(f"need {len(FEATURE_FIELDS)} coefficients, got {len(coeffs)}")
        if not all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "c", coeffs)

    @property
    def uses_features(self) -> bool:
        """True when some coefficient is nonzero, so features can move E_k."""
        return any(v != 0.0 for v in self.c)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def extract(
    spec: ModelSpec,
    theta_prev: ParamVector,
    thetas: np.ndarray,
    clients: tuple[Segments, Segments],
    cfg: TrainConfig,
) -> np.ndarray:
    """Meta-feature matrix of a cohort's round, one row per client of the
    (train, val) sides, in FEATURE_FIELDS column order.

    Row k of thetas [K, P] holds client k's parameters after training from
    theta_prev. data_complexity is the validation loss of a linear probe
    trained for one epoch from zero on the client's train split;
    lr_sensitivity is the validation-loss delta from one extra training
    epoch at 1.5x the learning rate versus 1x, per unit of relative
    perturbation (0.5). The probe, 1x and 1.5x epochs each train the whole
    cohort in one train_cohort call, and each is scored in one
    cohort_losses call. Every feature must be finite and nonnegative.
    Raises ClientError naming the first failing client.
    """
    train, val = clients
    shape = (len(train.n), theta_prev.dim)
    if thetas.shape != shape:
        raise ValueError(f"dimension mismatch: parameters of shape {thetas.shape}, need {shape}")
    probe_spec = ModelSpec(spec.input_dim, 0, spec.num_classes, spec.activation)
    probe_zero = np.zeros((len(train.n), param_count(probe_spec)))
    one_epoch = replace(cfg, epochs=1)
    bumped = replace(cfg, epochs=1, learning_rate=1.5 * cfg.learning_rate)
    probes = train_cohort(probe_spec, probe_zero, train, one_epoch)
    bases = train_cohort(spec, thetas, train, one_epoch)
    bumps = train_cohort(spec, thetas, train, bumped)
    loss_base = cohort_losses(spec, bases, val)
    loss_bump = cohort_losses(spec, bumps, val)
    features = np.column_stack([
        train.n,
        [_entropy(p) for p in label_distribution(train, spec.num_classes)],
        [np.linalg.norm(row - theta_prev.coords) for row in thetas],
        cohort_losses(probe_spec, probes, val),
        np.abs(loss_bump - loss_base) / 0.5,
    ])
    _check_nonnegative("meta-features", features)
    return features


def composite_errors(
    losses: Sequence[float],
    features: np.ndarray | None,
    cfg: CompositeErrorConfig,
) -> np.ndarray:
    """Composite error for every cohort member at once.

    features is the cohort's [K, len(FEATURE_FIELDS)] matrix. With
    cfg.normalize each column is min-max scaled over the cohort; a
    constant column scales to 0 so it cannot tilt the errors. When no
    coefficient is nonzero the errors are the losses, and features may
    be None.
    """
    loss_arr = _check_errors(losses)
    if not cfg.uses_features:
        return loss_arr.copy()
    if features is None:
        raise ValueError("nonzero coefficients need the cohort's meta-features")
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.shape != (loss_arr.size, len(FEATURE_FIELDS)):
        raise ValueError(f"features shape {matrix.shape} does not match {loss_arr.size} losses")
    if cfg.normalize:
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        span = hi - lo
        scaled = np.zeros_like(matrix)
        active = span > 0.0
        scaled[:, active] = (matrix[:, active] - lo[active]) / span[active]
        matrix = scaled
    return loss_arr + matrix @ np.asarray(cfg.c)
