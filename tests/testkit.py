"""Helpers only the tests use: central finite differences, the analytic
gradient of Phi and the mirror step the solver oracle takes, the stacked
batch gradient, the full-data training objective with its analytic
gradient, a CSV writer in the format datagen.load_csv reads, conversions
between per-client datasets and pooled sides, the sampled contraction
modulus the exact one replaced, a patch of make_blobs' noise block size,
the memory bounds that the tests and tests/scale_memory.py share, and
the reference program.

reference_federation is the plain per-client program that run_rounds
stands for, and run_rounds must equal it bit for bit: one oracle for
every stacked path. The other reference_* copies are its parts, one per
kernel. A reference copy stays only where the oracle uses it or where
it pins a bit the oracle cannot reach, which its test names.
"""

from __future__ import annotations

import contextlib
import csv
import math
import tracemalloc
from dataclasses import replace
from typing import Callable, Sequence, Tuple
from unittest import mock

import numpy as np

from metafl import datagen
from metafl.aggregator import (
    BOUNDARY_CLAMP, AggregationOutcome, MetaParams, aggregate, fedavg_weights, meta_agg,
)
from metafl.datagen import (
    MAX_PARTITION_ATTEMPTS, ClientDataset, PartitionConfig, Segments, _read_csv,
)
from metafl.federation import DataConfig, ExperimentConfig, RoundRecord
from metafl.metafeatures import composite_errors
from metafl.models import (
    ModelSpec, TrainConfig, _ce_grad_into, _check_cohort, _unpack, init_params,
)
from metafl.numerics import (
    ParamVector, WeightVector, _check_errors, derive_seed, make_rng, softmax_neg,
)

#: set_up's tracemalloc peak, as a multiple of the bytes it keeps, per pool
#: source: a synthetic pool is drawn straight into the federation's row
#: order, while a CSV table is parsed whole and gathered into that order.
SETUP_PEAK_BOUND = {"synthetic": 1.35, "csv": 2.5}
#: evaluate's tracemalloc peak above its start on a 60,000-row holdout of
#: 16 features, wide_cohort's model at K = 3000.
EVALUATE_PEAK_BOUND = 2 * 1024 * 1024


def wide_cohort_config(k: int, seed: int = 0, **data) -> ExperimentConfig:
    """The wide_cohort benchmark's config at K = k clients, closed form,
    on a synthetic pool of 100·k rows unless data names a CSV file."""
    return ExperimentConfig(
        spec=ModelSpec(input_dim=16, hidden_dim=16, num_classes=4),
        partition=PartitionConfig(num_clients=k, dirichlet_beta=1.0, val_fraction=0.3,
                                  noise_clients=frozenset(range(0, k, 5)),
                                  label_noise_rate=0.4, seed=seed),
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=seed),
        meta=MetaParams(alpha=1.0),
        data=DataConfig(n_samples=100 * k, spread=0.7, global_val_fraction=0.2, **data),
        rounds=5,
        seed=seed,
    )


def traced(call: Callable[[], object]) -> tuple[object, int, int]:
    """(call's result, the bytes it left allocated, its peak), both byte
    counts above its start, as tracemalloc counts them."""
    started = tracemalloc.is_tracing()
    if not started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        held, peak = (count - base for count in tracemalloc.get_traced_memory())
    finally:
        if not started:
            tracemalloc.stop()
    return result, held, peak


def kept_bytes(fed: tuple) -> int:
    """The array bytes of set_up's result: both sides, the holdout, theta0."""
    (train, val), holdout, theta0 = fed
    return sum(array.nbytes for array in (
        train.data.features, train.data.labels, train.n, val.data.features, val.data.labels,
        val.n, holdout.features, holdout.labels, theta0.coords))


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


def _clamped_log(w: np.ndarray) -> np.ndarray:
    """ln w_k with w clamped at BOUNDARY_CLAMP."""
    return np.log(np.maximum(w, BOUNDARY_CLAMP))


def _gradient(log_w: np.ndarray, e: np.ndarray, tau: float) -> np.ndarray:
    """E_k + tau (1 + ln w_k), given log_w = _clamped_log(w)."""
    return e + tau * (1.0 + log_w)


def _mirror_step(w: np.ndarray, e: np.ndarray, tau: float, eta: float) -> np.ndarray:
    """One entropic mirror step from w, allocating each array."""
    log_w = _clamped_log(w)
    z = log_w - eta * _gradient(log_w, e, tau)
    z -= z.max()
    out = np.exp(z)
    return out / out.sum()


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


def ce_grad_arrays(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, onehot: np.ndarray, l2: float
) -> np.ndarray:
    """Batch gradients for a stack of members through models._ce_grad_into:
    theta [G, P], x [G, n, d] and one-hot labels [G, n, c] give [G, P], as
    a new array."""
    grad = np.empty_like(theta, dtype=np.float64)
    _ce_grad_into(spec, _unpack(spec, theta), x, onehot, _unpack(spec, grad))
    if l2 > 0.0:
        grad += l2 * theta
    return grad


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
    return loss, ce_grad_arrays(spec, theta[None], data.features[None], onehot[None], l2)[0]


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


@contextlib.contextmanager
def blob_blocks(dim: int, rows: int | None):
    """datagen.make_blobs draws its noise in blocks of `rows` rows of dim
    features (None leaves its own block size)."""
    if rows is None:
        yield
        return
    with mock.patch.object(datagen, "BLOB_BLOCK_BYTES", 8 * dim * rows):
        yield


def per_client(clients: Tuple[Segments, Segments]) -> list:
    """The (train, val) sides as per-client (train, val) pairs."""
    return [tuple(side.data.subset(side.start[k] + np.arange(side.n[k])) for side in clients)
            for k in range(len(clients[0].n))]


def reference_blobs(num_classes: int, dim: int, n: int, spread: float, seed: int) -> ClientDataset:
    """datagen.make_blobs as it was when it summed centroids[labels] and
    spread * noise into a new array, which ClientDataset copied and checked."""
    rng = make_rng(seed)
    while True:
        centroids = rng.normal(size=(num_classes, dim))
        diffs = centroids[:, None, :] - centroids[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=2))
        min_dist = dists[np.triu_indices(num_classes, k=1)].min()
        if min_dist > 0.0:
            break
    centroids /= min_dist
    labels = np.arange(n, dtype=np.int64) % num_classes
    labels = labels[rng.permutation(n)]
    with np.errstate(over="ignore"):
        features = centroids[labels] + spread * rng.normal(size=(n, dim))
    return ClientDataset(features, labels)


def reference_partition(labels: np.ndarray, cfg: PartitionConfig) -> tuple[list, list]:
    """datagen.partition_dirichlet as it was when it built each client's
    rows by extending a list with its slice of every class, attempt by
    attempt: (train, val), per client its positions in labels."""
    k = cfg.num_clients
    if labels.size < k:
        raise ValueError(f"infeasible (n < K): {labels.size} samples for {k} clients")
    rng = make_rng(cfg.seed)
    for _ in range(MAX_PARTITION_ATTEMPTS):
        assignment = [[] for _ in range(k)]
        for cls in np.unique(labels):
            idx = np.nonzero(labels == cls)[0]
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(k, cfg.dirichlet_beta))
            bounds = np.floor(np.cumsum(props) * idx.size).astype(int)
            bounds[-1] = idx.size
            start = 0
            for client, stop in enumerate(bounds):
                assignment[client].extend(idx[start:stop].tolist())
                start = stop
        if all(len(a) >= 2 for a in assignment):
            train, val = [], []
            for a in assignment:
                idx = np.asarray(a, dtype=np.int64)
                idx = idx[rng.permutation(idx.size)]
                n_val = int(round(cfg.val_fraction * idx.size))
                n_val = min(max(n_val, 1), idx.size - 1)
                train.append(idx[n_val:])
                val.append(idx[:n_val])
            return train, val
    raise ValueError(
        f"retry exhaustion: no assignment with >=1 train and >=1 val sample "
        f"per client after {MAX_PARTITION_ATTEMPTS} attempts"
    )


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


def reference_clients(cfg) -> tuple[list, ClientDataset]:
    """federation.build_federation built as it was: the pool (reference_blobs,
    or a CSV file read row by row), the rest of it after the holdout as a
    dataset, a (train, val) pair of datasets per client, each noisy
    client's train split replaced by a relabelled copy; and the server's
    holdout."""
    spec, data, part = cfg.spec, cfg.data, cfg.partition
    if data.csv_path is not None:
        pool = _read_csv(data.csv_path, spec.num_classes)
    else:
        pool = reference_blobs(
            spec.num_classes, spec.input_dim, data.n_samples, data.spread, cfg.seed
        )
    order = make_rng([cfg.seed, 1]).permutation(pool.n)
    n_holdout = max(1, int(round(data.global_val_fraction * pool.n)))
    rest = pool.subset(order[n_holdout:])
    clients = [(rest.subset(train), rest.subset(val))
               for train, val in zip(*reference_partition(rest.labels, part))]
    for k in part.noise_clients:
        train, val = clients[k]
        seed = derive_seed(part.seed, k, 11)
        clients[k] = reference_label_noise(train, part.label_noise_rate, seed, spec.num_classes), val
    return clients, pool.subset(order[:n_holdout])


def reference_federation(cfg) -> tuple[ParamVector, list]:
    """federation.run_rounds(cfg, *set_up(cfg)) as the per-client program:
    (the final global parameters, one RoundRecord per round with wall_ms 0).
    Past the seeded pool, it calls from the library only init_params,
    composite_errors, fedavg_weights, meta_agg, aggregate and, in the alpha
    search, softmax_neg."""
    spec, mp = cfg.spec, cfg.meta
    clients, holdout = reference_clients(cfg)
    fedavg = cfg.aggregator_mode == "fedavg"
    theta = init_params(spec, derive_seed(cfg.seed, 2))
    history = []
    for t in range(1, cfg.rounds + 1):
        train_cfg = replace(cfg.train, seed=derive_seed(cfg.train.seed, t))
        thetas = np.array([reference_train_local(spec, theta.coords, train, train_cfg)
                           for train, _ in clients])
        val_loss = [reference_local_loss(spec, ParamVector(th), val)
                    for th, (_, val) in zip(thetas, clients)]
        if fedavg:
            weights = fedavg_weights([train.n for train, _ in clients])
            outcome = AggregationOutcome(aggregate(thetas, weights, 0.0), weights, 0.0, 0, 0.0)
        else:
            features = None
            if mp.c.uses_features:
                features = np.array([reference_features(spec, theta.coords, th, *pair, train_cfg)
                                     for th, pair in zip(thetas, clients)])
            errors = composite_errors(val_loss, features, mp.c)
            if cfg.searches_alpha:
                mp = reference_adapt_meta_params(mp, cfg.alpha_grid, thetas, errors, spec, holdout)
            outcome = meta_agg(thetas, errors, mp, cfg.aggregator_mode)
        logits = reference_logits(spec, outcome.theta_g.coords, holdout.features)
        history.append(RoundRecord(
            round=t, weights=outcome.weights, alpha_used=0.0 if fedavg else mp.alpha,
            global_val_loss=float(reference_mean_ce(logits, holdout.labels)),
            global_val_accuracy=float(np.mean(np.argmax(logits, axis=1) == holdout.labels)),
            per_client_val_loss=tuple(val_loss), phi_value=outcome.phi_value,
            solver_iters=outcome.solver_iters, solver_residual=outcome.solver_residual, wall_ms=0,
        ))
        theta = outcome.theta_g
    return theta, history


def reference_features(spec: ModelSpec, theta_prev: np.ndarray, theta: np.ndarray,
                       train: ClientDataset, val: ClientDataset, cfg: TrainConfig) -> list:
    """One client's row of metafeatures.extract with every column weighted,
    in FEATURE_FIELDS order, from its parameters theta after training from
    theta_prev."""
    probe_spec = replace(spec, hidden_dim=0)
    one_epoch = replace(cfg, epochs=1)
    probe = reference_train_local(
        probe_spec, np.zeros((spec.input_dim + 1) * spec.num_classes), train, one_epoch
    )
    bumped = replace(one_epoch, learning_rate=1.5 * cfg.learning_rate)
    base, bump = (
        reference_local_loss(spec, ParamVector(reference_train_local(spec, theta, train, c)), val)
        for c in (one_epoch, bumped)
    )
    p = np.bincount(train.labels, minlength=spec.num_classes) / train.n
    p = p[p > 0.0]
    return [
        train.n,
        float(-(p * np.log(p)).sum()),
        np.linalg.norm(theta - theta_prev),
        reference_local_loss(probe_spec, ParamVector(probe), val),
        abs(bump - base) / 0.5,
    ]


def reference_train_local(
    spec: ModelSpec, theta0: np.ndarray, data: ClientDataset, cfg: TrainConfig
) -> np.ndarray:
    """models.train_local as the per-client SGD loop that train_cohort
    replaced: a fresh make_rng(cfg.seed), one permutation per epoch, one
    step per batch in order; returns the trained parameters, a new array."""
    theta = np.array(theta0, dtype=np.float64)
    rng = make_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x, y = data.features[batch], data.labels[batch]
            theta -= cfg.learning_rate * reference_grad(spec, theta, x, y, cfg.l2)
    return theta


def reference_grad(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float
) -> np.ndarray:
    """The gradient of one batch's mean cross-entropy (+ ridge) at theta
    [P], for rows x [n, d] and labels y [n]: an allocating forward pass,
    numpy's softmax, and each layer's backward step written out, the relu
    mask taken from the pre-activation."""
    *hidden, w, b = _unpack(spec, theta)
    a = x
    if hidden:
        z1 = x @ hidden[0] + hidden[1]
        a = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
    z = a @ w + b
    g = np.exp(z - z.max(axis=1, keepdims=True))
    g = g / g.sum(axis=1, keepdims=True)
    g[np.arange(len(y)), y] -= 1.0
    g *= 1.0 / len(y)
    parts = [a.T @ g, g.sum(axis=0)]
    if hidden:
        da = g @ w.T
        dz1 = da * (z1 > 0.0) if spec.activation == "relu" else da * (1.0 - a**2)
        parts[:0] = [x.T @ dz1, dz1.sum(axis=0)]
    grad = np.concatenate([part.ravel() for part in parts])
    if l2 > 0.0:
        grad += l2 * theta
    return grad


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
