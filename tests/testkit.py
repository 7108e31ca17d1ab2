"""Helpers only the tests use: central finite differences, the analytic
gradient of Phi, the full-data training objective with its analytic
gradient, a CSV writer in the format datagen.load_csv reads, conversions
between per-client datasets and pooled sides, and reference copies of
the per-client data set-up, the forward pass, the SGD gradient, the
per-candidate alpha search and the iterative weight solve as they were
written before their rewrites, which the program must still equal
bitwise, and the sampled estimate of the mirror step's contraction
modulus that the exact one replaced."""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from typing import Callable, Sequence, Tuple

import numpy as np

from metafl.aggregator import MetaParams, _clamped_log, _gradient, _mirror_step, aggregate
from metafl.datagen import (
    MAX_PARTITION_ATTEMPTS, ClientDataset, PartitionConfig, Segments, make_blobs,
)
from metafl.models import ModelSpec, _ce_grad_arrays, _check_cohort, _unpack
from metafl.numerics import (
    ParamVector, WeightVector, _check_errors, derive_seed, make_rng, softmax_neg,
)


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


def phi_gradient(w: WeightVector, errors: Sequence[float], tau: float) -> np.ndarray:
    """Analytic gradient E_k + tau (1 + ln w_k) of Phi; defined on the
    interior only."""
    e = _check_errors(errors)
    if e.size != w.k:
        raise ValueError("errors and weights lengths differ")
    if not np.isfinite(tau) or tau < 0.0:
        raise ValueError("tau must be finite and >= 0")
    if np.any(w.weights <= 0.0):
        raise ValueError("boundary gradient undefined")
    return _gradient(_clamped_log(w.weights), e, tau)


def loss_and_grad(
    spec: ModelSpec, params: ParamVector, data: ClientDataset, l2: float = 0.0
) -> Tuple[float, np.ndarray]:
    """Training objective and its analytic gradient over the full dataset."""
    _check_cohort(spec, params.coords[None], data)
    theta = params.coords
    loss = reference_mean_ce(reference_logits(spec, theta, data.features), data.labels)
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


def pooled(datasets: Sequence[ClientDataset]) -> Segments:
    """Per-client datasets as one side, client k's rows the k-th segment."""
    return Segments(
        ClientDataset(
            np.concatenate([d.features for d in datasets]),
            np.concatenate([d.labels for d in datasets]),
        ),
        np.array([d.n for d in datasets]),
    )


def as_clients(pairs: Sequence[Tuple[ClientDataset, ClientDataset]]) -> Tuple[Segments, Segments]:
    """Per-client (train, val) pairs as the (train, val) sides."""
    return pooled([train for train, _ in pairs]), pooled([val for _, val in pairs])


def segment(side: Segments, k: int) -> ClientDataset:
    """Client k's rows of a side as its own dataset."""
    start = int(side.start[k])
    return side.data.subset(np.arange(start, start + side.n[k]))


def per_client(clients: Tuple[Segments, Segments]) -> list:
    """The (train, val) sides as per-client (train, val) pairs."""
    return [tuple(segment(side, k) for side in clients) for k in range(len(clients[0].n))]


def reference_partition(data: ClientDataset, cfg: PartitionConfig) -> list:
    """datagen.partition_dirichlet as it was when it built a (train, val)
    pair of datasets per client."""
    k = cfg.num_clients
    if data.n < k:
        raise ValueError(f"infeasible (n < K): {data.n} samples for {k} clients")
    rng = make_rng(cfg.seed)
    classes = np.unique(data.labels)
    for _ in range(MAX_PARTITION_ATTEMPTS):
        assignment = [[] for _ in range(k)]
        for cls in classes:
            idx = np.nonzero(data.labels == cls)[0]
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(k, cfg.dirichlet_beta))
            bounds = np.floor(np.cumsum(props) * idx.size).astype(int)
            bounds[-1] = idx.size
            start = 0
            for client, stop in enumerate(bounds):
                assignment[client].extend(idx[start:stop].tolist())
                start = stop
        if all(len(a) >= 2 for a in assignment):
            splits = []
            for a in assignment:
                idx = np.asarray(a, dtype=np.int64)
                idx = idx[rng.permutation(idx.size)]
                n_val = int(round(cfg.val_fraction * idx.size))
                n_val = min(max(n_val, 1), idx.size - 1)
                splits.append((data.subset(idx[n_val:]), data.subset(idx[:n_val])))
            return splits
    raise ValueError("retry exhaustion")


def reference_label_noise(
    data: ClientDataset, rate: float, seed: int, num_classes: int
) -> ClientDataset:
    """datagen.inject_label_noise as it was when it took a dataset."""
    count = int(round(rate * data.n))
    if count == 0:
        return data
    rng = make_rng(seed)
    flip = rng.choice(data.n, size=count, replace=False)
    labels = data.labels.copy()
    draws = rng.integers(0, num_classes - 1, size=count)
    old = labels[flip]
    labels[flip] = np.where(draws < old, draws, draws + 1)
    return ClientDataset(data.features, labels)


def reference_clients(cfg) -> list:
    """federation.build_federation's client splits for a synthetic pool,
    built as it was: a (train, val) pair of datasets per client, each
    noisy client's train split replaced by a relabelled copy."""
    spec, data, part = cfg.spec, cfg.data, cfg.partition
    pool = make_blobs(spec.num_classes, spec.input_dim, data.n_samples, data.spread, cfg.seed)
    order = make_rng([cfg.seed, 1]).permutation(pool.n)
    n_holdout = max(1, int(round(data.global_val_fraction * pool.n)))
    clients = reference_partition(pool.subset(order[n_holdout:]), part)
    noisy = []
    for k, (train, val) in enumerate(clients):
        if k in part.noise_clients and part.label_noise_rate > 0.0:
            train = reference_label_noise(
                train, part.label_noise_rate, derive_seed(part.seed, k, 11), spec.num_classes
            )
        noisy.append((train, val))
    return noisy


def reference_logits(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The logits of models._forward, each bias add and activation
    allocating its result."""
    if spec.hidden_dim == 0:
        w, b = _unpack(spec, theta)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(spec, theta)
    z1 = x @ w1 + b1
    a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
    return a1 @ w2 + b2


def reference_ce_grad_arrays(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, onehot: np.ndarray, l2: float
) -> np.ndarray:
    """models._ce_grad_arrays as written before it shared models._forward:
    its own allocating forward pass, the relu mask from the pre-activation,
    and the output-layer gradient written out in each branch."""
    onehot_err_scale = 1.0 / x.shape[1]
    xt = x.transpose(0, 2, 1)
    if spec.hidden_dim == 0:
        w, b = _unpack(spec, theta)
        p = reference_softmax_rows(x @ w + b)
        p -= onehot
        p *= onehot_err_scale
        parts = [xt @ p, p.sum(axis=1)]
    else:
        w1, b1, w2, b2 = _unpack(spec, theta)
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
        g2 = reference_softmax_rows(a1 @ w2 + b2)
        g2 -= onehot
        g2 *= onehot_err_scale
        da1 = g2 @ w2.transpose(0, 2, 1)
        dz1 = da1 * (z1 > 0.0) if spec.activation == "relu" else da1 * (1.0 - a1**2)
        parts = [xt @ dz1, dz1.sum(axis=1), a1.transpose(0, 2, 1) @ g2, g2.sum(axis=1)]
    grad = np.concatenate([part.reshape(len(theta), -1) for part in parts], axis=1)
    if l2 > 0.0:
        grad += l2 * theta
    return grad


def reference_local_loss(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> float:
    """models.local_loss as one unblocked pass over all of data's rows."""
    logits = reference_logits(spec, params.coords, data.features)
    return float(reference_mean_ce(logits, data.labels))


def reference_adapt_meta_params(
    mp: MetaParams,
    candidates_alpha: Sequence[float],
    thetas: np.ndarray,
    errors: np.ndarray,
    spec: ModelSpec,
    global_val: ClientDataset,
) -> MetaParams:
    """aggregator.adapt_meta_params as it was when it scored each
    candidate's aggregate in its own unblocked holdout pass."""
    candidates = [float(a) for a in candidates_alpha]
    if not candidates:
        raise ValueError("empty grid")
    best_alpha = None
    best_loss = math.inf
    for alpha in candidates:
        theta = aggregate(thetas, softmax_neg(errors, alpha), mp.lam)
        loss = reference_local_loss(spec, theta, global_val)
        if (
            best_alpha is None
            or loss < best_loss
            or (loss == best_loss and alpha < best_alpha)
        ):
            best_alpha, best_loss = alpha, loss
    return replace(mp, alpha=best_alpha)


def reference_mean_ce(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The mean over L of models._cross_entropy of logits [..., L, c]
    against labels [..., L], with numpy's row max, allocating each step."""
    m = logits.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(logits - m).sum(axis=-1))
    picked = logits.reshape(-1, logits.shape[-1])[np.arange(y.size), y.reshape(-1)]
    return np.mean(lse - picked.reshape(y.shape), axis=-1)


def reference_softmax_rows(z: np.ndarray) -> np.ndarray:
    """The softmax models._ce_grad_arrays takes of its logits, with
    numpy's row max, allocating each step."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _reference_project_simplex(x: np.ndarray) -> np.ndarray:
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, x.size + 1)
    rho = np.nonzero(u - css / idx > 0.0)[0][-1]
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


def _reference_projected_step(w: np.ndarray, e: np.ndarray, tau: float, eta: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        target = w - eta * _gradient(_clamped_log(w), e, tau)
    return _reference_project_simplex(target) if np.isfinite(target).all() else target


def reference_weights_iterative(
    errors: Sequence[float], mp: MetaParams, solver: str
) -> tuple[np.ndarray, int, float]:
    """aggregator.weights_iterative with a per-step error state:
    (weights, iterations, residual), or the same divergence ValueError."""
    e = np.asarray(errors, dtype=np.float64).reshape(-1)
    if e.size == 1:
        return np.ones(1), 0, 0.0
    tau = mp.resolved_tau()
    step = {"mirror": _mirror_step, "projected": _reference_projected_step}[solver]
    w = np.full(e.size, 1.0 / e.size)
    residual = math.inf
    for t in range(1, mp.max_iters + 1):
        w_next = step(w, e, tau, mp.eta)
        if not np.all(np.isfinite(w_next)):
            raise ValueError(f"divergence in {solver} solver at iteration {t}")
        residual = float(np.abs(w_next - w).max())
        w = w_next
        if residual < mp.tol:
            return w, t, residual
    return w, mp.max_iters, residual


def _log_ratio_dist(w: np.ndarray, w_other: np.ndarray) -> float:
    # Hilbert projective metric: max-minus-min of coordinate log ratios.
    r = np.log(np.maximum(w, 1e-300)) - np.log(np.maximum(w_other, 1e-300))
    return float(r.max() - r.min())


def sampled_contraction(
    errors: Sequence[float], mp: MetaParams, samples: int, rng: np.random.Generator
) -> float:
    """The largest ratio d(step(w), step(w')) / d(w, w') of one mirror step
    over `samples` pairs of uniform Dirichlet draws, in the log-ratio
    metric; 0 for a single client."""
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
