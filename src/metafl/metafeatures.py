"""Per-client descriptors and the composite error they feed.

The composite error for client k is its validation loss plus an affine
combination of (optionally cohort-normalized) meta-features; with all
coefficients zero it reduces to the loss alone, and no features are
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .datagen import ClientDataset
from .models import ClientError, ModelSpec, TrainConfig, local_loss, param_count, train_cohort
from .numerics import ParamVector

__all__ = [
    "FEATURE_FIELDS",
    "MetaFeatures",
    "CompositeErrorConfig",
    "extract",
    "composite_errors",
]

#: Coefficient order used by CompositeErrorConfig.c.
FEATURE_FIELDS = (
    "dataset_size",
    "label_entropy",
    "update_norm",
    "data_complexity",
    "lr_sensitivity",
)


@dataclass(frozen=True)
class MetaFeatures:
    """Descriptors of one client's data and learning dynamics."""

    dataset_size: int
    label_entropy: float
    update_norm: float
    data_complexity: float
    lr_sensitivity: float

    def __post_init__(self):
        values = self.as_array()
        if not np.all(np.isfinite(values)):
            raise ValueError("meta-features must be finite")
        if np.any(values < 0.0):
            raise ValueError("meta-features must be nonnegative")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in FEATURE_FIELDS], dtype=np.float64)


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


def _entropy(labels: np.ndarray, num_classes: int) -> float:
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    p = counts / counts.sum()
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def extract(
    spec: ModelSpec,
    theta_prev: ParamVector,
    thetas: Sequence[ParamVector],
    clients: Sequence[tuple[ClientDataset, ClientDataset]],
    cfg: TrainConfig,
) -> list[MetaFeatures]:
    """Meta-feature vectors of a cohort's round, one per (train, val) client.

    thetas holds each client's parameters after training from theta_prev.
    data_complexity is the validation loss of a linear probe trained for
    one epoch from zero on the client's train split; lr_sensitivity is
    the validation-loss delta from one extra training epoch at 1.5x the
    learning rate versus 1x, per unit of relative perturbation (0.5).
    The probe, 1x and 1.5x epochs each train the whole cohort in one
    train_cohort call. Raises ClientError naming the first failing client.
    """
    if len(thetas) != len(clients):
        raise ValueError("thetas and clients lengths differ")
    for k, theta_k in enumerate(thetas):
        if theta_k.dim != theta_prev.dim:
            raise ClientError(k, "dimension mismatch between previous and current parameters")
    trains = [train for train, _ in clients]
    probe_spec = ModelSpec(spec.input_dim, 0, spec.num_classes, spec.activation)
    probe_zero = ParamVector(np.zeros(param_count(probe_spec)))
    one_epoch = replace(cfg, epochs=1)
    bumped = replace(cfg, epochs=1, learning_rate=1.5 * cfg.learning_rate)
    probes = train_cohort(probe_spec, [probe_zero] * len(clients), trains, one_epoch)
    bases = train_cohort(spec, thetas, trains, one_epoch)
    bumps = train_cohort(spec, thetas, trains, bumped)

    out = []
    for k, ((train, val), theta_k, probe, base, bump) in enumerate(
        zip(clients, thetas, probes, bases, bumps)
    ):
        try:
            loss_base = local_loss(spec, base, val)
            loss_bump = local_loss(spec, bump, val)
            out.append(MetaFeatures(
                dataset_size=train.n,
                label_entropy=_entropy(train.labels, spec.num_classes),
                update_norm=float(np.linalg.norm(theta_k.coords - theta_prev.coords)),
                data_complexity=local_loss(probe_spec, probe, val),
                lr_sensitivity=abs(loss_bump - loss_base) / 0.5,
            ))
        except ValueError as err:
            raise ClientError(k, str(err)) from err
    return out


def composite_errors(
    losses: Sequence[float],
    cohort: Sequence[MetaFeatures | None],
    cfg: CompositeErrorConfig,
) -> np.ndarray:
    """Composite error for every cohort member at once.

    With cfg.normalize each feature column is min-max scaled over the
    cohort; a constant column scales to 0 so it cannot tilt the errors.
    When no coefficient is nonzero the errors are the losses, and the
    cohort's entries may be None.
    """
    if len(losses) != len(cohort):
        raise ValueError("losses and cohort lengths differ")
    if len(cohort) == 0:
        raise ValueError("empty cohort")
    loss_arr = np.array(losses, dtype=np.float64)
    if not np.all(np.isfinite(loss_arr)):
        raise ValueError("non-finite loss")
    if not cfg.uses_features:
        return loss_arr
    if any(m is None for m in cohort):
        raise ValueError("nonzero coefficients need every member's meta-features")
    matrix = np.stack([m.as_array() for m in cohort])
    if cfg.normalize:
        lo = matrix.min(axis=0)
        hi = matrix.max(axis=0)
        span = hi - lo
        scaled = np.zeros_like(matrix)
        active = span > 0.0
        scaled[:, active] = (matrix[:, active] - lo[active]) / span[active]
        matrix = scaled
    return loss_arr + matrix @ np.asarray(cfg.c)
