"""Helpers only the tests use: central finite differences, the full-data
training objective with its analytic gradient, and a CSV writer in the
format datagen.load_csv reads."""

from __future__ import annotations

import csv
from typing import Callable, Sequence, Tuple

import numpy as np

from metafl.datagen import ClientDataset
from metafl.models import ModelSpec, _ce_grad_arrays, _check_cohort, _logits, _mean_ce
from metafl.numerics import ParamVector


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: Sequence[float], h: float
) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / (2h)."""
    if h <= 0.0:
        raise ValueError("step h must be positive")
    x0 = np.asarray(x, dtype=np.float64).reshape(-1)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        fp = float(f(x0 + step))
        fm = float(f(x0 - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def loss_and_grad(
    spec: ModelSpec, params: ParamVector, data: ClientDataset, l2: float = 0.0
) -> Tuple[float, np.ndarray]:
    """Training objective and its analytic gradient over the full dataset."""
    _check_cohort(spec, params.coords[None], [data])
    theta = params.coords
    loss = _mean_ce(_logits(spec, theta, data.features), data.labels)
    if l2 > 0.0:
        loss += 0.5 * l2 * float(theta @ theta)
    onehot = np.eye(spec.num_classes)[data.labels]
    return loss, _ce_grad_arrays(spec, theta[None], data.features[None], onehot[None], l2)[0]


def save_csv(data: ClientDataset, path: str) -> None:
    """Write a dataset in the load_csv format at full float64 precision."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        for x, y in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in x] + [int(y)])
