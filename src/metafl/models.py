"""Local client models: softmax regression and a one-hidden-layer MLP.

Parameters live in a single flat vector (see :func:`param_count` for the
layout size). The training loss is mean cross-entropy in nats plus an
optional ridge penalty 0.5 * l2 * ||theta||^2; evaluation losses never
include the penalty. Argmax ties break toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .datagen import ClientDataset
from .numerics import ParamVector, make_rng

__all__ = [
    "ModelSpec",
    "TrainConfig",
    "PerformanceMetrics",
    "param_count",
    "init_params",
    "train_local",
    "evaluate",
    "local_loss",
]

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture shared by every client in a federation.

    hidden_dim == 0 selects plain softmax regression; hidden_dim > 0 adds
    one dense hidden layer with the chosen activation.
    """

    input_dim: int
    hidden_dim: int = 0
    num_classes: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.hidden_dim < 0:
            raise ValueError("hidden_dim must be >= 0")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD settings; seed drives the per-epoch shuffle."""

    learning_rate: float
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not np.isfinite(self.l2) or self.l2 < 0.0:
            raise ValueError("l2 must be finite and >= 0")


@dataclass(frozen=True)
class PerformanceMetrics:
    """Per-client evaluation summary reported to the aggregator."""

    val_loss: float
    val_accuracy: float

    def __post_init__(self):
        if not np.isfinite(self.val_loss):
            raise ValueError("val_loss must be finite")
        if self.val_loss < 0.0:
            raise ValueError("val_loss must be nonnegative")
        if not 0.0 <= self.val_accuracy <= 1.0:
            raise ValueError("val_accuracy must lie in [0, 1]")


def param_count(spec: ModelSpec) -> int:
    """Number of parameters implied by the architecture fields."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if h == 0:
        return d * c + c
    return d * h + h + h * c + c


def _unpack(spec: ModelSpec, theta: np.ndarray):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if h == 0:
        w = theta[: d * c].reshape(d, c)
        b = theta[d * c :]
        return w, b
    w1 = theta[: d * h].reshape(d, h)
    b1 = theta[d * h : d * h + h]
    w2 = theta[d * h + h : d * h + h + h * c].reshape(h, c)
    b2 = theta[d * h + h + h * c :]
    return w1, b1, w2, b2


def _check_dims(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> None:
    if theta.size != param_count(spec):
        raise ValueError(
            f"dimension mismatch: {theta.size} parameters, spec needs {param_count(spec)}"
        )
    if x.shape[1] != spec.input_dim:
        raise ValueError(
            f"dimension mismatch: features have dim {x.shape[1]}, spec.input_dim={spec.input_dim}"
        )


def _logits(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.hidden_dim == 0:
        w, b = _unpack(spec, theta)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(spec, theta)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
    return a1 @ w2 + b2


def _mean_ce(logits: np.ndarray, y: np.ndarray) -> float:
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(y.size), y]))


def _ce_grad_arrays(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float
) -> np.ndarray:
    n = x.shape[0]
    onehot_err_scale = 1.0 / n
    if spec.hidden_dim == 0:
        w, b = _unpack(spec, theta)
        z = x @ w + b
        p = _softmax_rows(z)
        p[np.arange(n), y] -= 1.0
        p *= onehot_err_scale
        grad = np.concatenate([(x.T @ p).ravel(), p.sum(axis=0)])
    else:
        w1, b1, w2, b2 = _unpack(spec, theta)
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
        z2 = a1 @ w2 + b2
        g2 = _softmax_rows(z2)
        g2[np.arange(n), y] -= 1.0
        g2 *= onehot_err_scale
        da1 = g2 @ w2.T
        dz1 = da1 * (z1 > 0.0) if spec.activation == "relu" else da1 * (1.0 - a1**2)
        grad = np.concatenate(
            [(x.T @ dz1).ravel(), dz1.sum(axis=0), (a1.T @ g2).ravel(), g2.sum(axis=0)]
        )
    if l2 > 0.0:
        grad += l2 * theta
    return grad


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Per-layer scaled-uniform weights, zero biases; pure in (spec, seed)."""
    rng = make_rng(seed)
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes

    def layer(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=fan_in * fan_out)

    if h == 0:
        parts = [layer(d, c), np.zeros(c)]
    else:
        parts = [layer(d, h), np.zeros(h), layer(h, c), np.zeros(c)]
    return ParamVector(np.concatenate(parts))


def train_local(
    spec: ModelSpec, params: ParamVector, data: ClientDataset, cfg: TrainConfig
) -> ParamVector:
    """Seeded mini-batch SGD on cross-entropy (+ ridge); input left untouched."""
    _check_dims(spec, params.coords, data.features)
    theta = params.coords.copy()
    if cfg.epochs == 0:
        return params
    rng = make_rng(cfg.seed)
    n = data.n
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = _ce_grad_arrays(
                spec, theta, data.features[batch], data.labels[batch], cfg.l2
            )
            theta -= cfg.learning_rate * grad
    if not np.all(np.isfinite(theta)):
        raise ValueError("training diverged to non-finite parameters")
    return ParamVector(theta)


def evaluate(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> PerformanceMetrics:
    """Mean cross-entropy (nats) and top-1 accuracy on ``data``."""
    _check_dims(spec, params.coords, data.features)
    logits = _logits(spec, params.coords, data.features)
    val_loss = _mean_ce(logits, data.labels)
    preds = np.argmax(logits, axis=1)
    val_acc = float(np.mean(preds == data.labels))
    return PerformanceMetrics(val_loss, val_acc)


def local_loss(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> float:
    """Mean cross-entropy of the model on the dataset, in nats."""
    _check_dims(spec, params.coords, data.features)
    return _mean_ce(_logits(spec, params.coords, data.features), data.labels)


def loss_and_grad(
    spec: ModelSpec, params: ParamVector, data: ClientDataset, l2: float = 0.0
) -> Tuple[float, np.ndarray]:
    """Training objective and its analytic gradient over the full dataset."""
    _check_dims(spec, params.coords, data.features)
    theta = params.coords
    loss = _mean_ce(_logits(spec, theta, data.features), data.labels)
    if l2 > 0.0:
        loss += 0.5 * l2 * float(theta @ theta)
    return loss, _ce_grad_arrays(spec, theta, data.features, data.labels, l2)
