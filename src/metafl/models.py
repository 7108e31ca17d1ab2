"""Local client models: softmax regression and a one-hidden-layer MLP.

Parameters live in a single flat vector (see :func:`param_count` for the
layout size). The training loss is mean cross-entropy in nats plus an
optional ridge penalty 0.5 * l2 * ||theta||^2; evaluation losses never
include the penalty. Argmax ties break toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import ClientDataset, Segments
from .numerics import ParamVector, make_rng

__all__ = [
    "ModelSpec",
    "TrainConfig",
    "PerformanceMetrics",
    "param_count",
    "init_params",
    "ClientError",
    "train_local",
    "train_cohort",
    "evaluate",
    "local_loss",
    "cohort_losses",
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
    """Views of the layers of theta [..., P]: weights [..., fan_in, fan_out]
    and biases [..., 1, fan_out], so a bias broadcasts over batch rows."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    lead = theta.shape[:-1]
    if h == 0:
        return theta[..., : d * c].reshape(*lead, d, c), theta[..., None, d * c :]
    end1, end2 = d * h + h, d * h + h + h * c
    return (
        theta[..., : d * h].reshape(*lead, d, h),
        theta[..., None, d * h : end1],
        theta[..., end1:end2].reshape(*lead, h, c),
        theta[..., None, end2:],
    )


def _check_cohort(spec: ModelSpec, thetas: np.ndarray, data: ClientDataset, k: int = 1) -> None:
    """thetas must be [k, P] for the k clients whose rows data holds, and
    data's features must have spec.input_dim columns."""
    need = (k, param_count(spec))
    if thetas.shape != need or data.dim != spec.input_dim:
        raise ValueError(f"dimension mismatch: parameters of shape {thetas.shape} on features "
                         f"of dim {data.dim}, need {need} and spec.input_dim={spec.input_dim}")


def _check_nonnegative(name: str, values: np.ndarray) -> None:
    """values [K, F] hold one row per cohort member; the first row with a
    non-finite or negative entry raises ClientError naming that member."""
    finite = np.isfinite(values).all(axis=1)
    bad = np.flatnonzero(~finite | (values < 0.0).any(axis=1))
    if bad.size:
        problem = "finite" if not finite[bad[0]] else "nonnegative"
        raise ClientError(int(bad[0]), f"{name} must be {problem}")


def _forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The output layer's input a (x itself with no hidden layer) and the
    logits; each bias add and activation acts in place on its matmul's output."""
    *hidden, w, b = _unpack(spec, theta)
    a = x
    if hidden:
        a = x @ hidden[0]
        a += hidden[1]
        if spec.activation == "relu":
            np.maximum(a, 0.0, out=a)
        else:
            np.tanh(a, out=a)
    z = a @ w
    z += b
    return a, z


def _row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=-1) by one np.maximum per column of z [..., L, c]: equal
    values (a zero or NaN may differ in sign), far faster over few classes."""
    m = np.maximum(z[..., 0], z[..., 1])
    for j in range(2, z.shape[-1]):
        np.maximum(m, z[..., j], out=m)
    return m


def _mean_ce(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of logits [..., L, c] against labels [..., L],
    reduced over L alone: one value per leading index."""
    m = _row_max(logits)
    e = logits - m[..., None]
    np.exp(e, out=e)
    lse = m + np.log(e.sum(axis=-1))
    picked = logits.reshape(-1, logits.shape[-1])[np.arange(y.size), y.reshape(-1)]
    return np.mean(lse - picked.reshape(y.shape), axis=-1)


def _ce_grad_arrays(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, onehot: np.ndarray, l2: float
) -> np.ndarray:
    """Batch gradients for a stack of members: theta [G, P], x [G, n, d]
    and one-hot labels [G, n, c] give [G, P]. Every operation acts within
    one member (a matmul per member, reductions over its own rows), so
    member g's gradient is bitwise the one its batch would give alone."""
    a, z = _forward(spec, theta, x)
    g = _softmax_rows(z)
    g -= onehot
    g *= 1.0 / x.shape[1]
    parts = [a.transpose(0, 2, 1) @ g, g.sum(axis=1)]
    if spec.hidden_dim:
        da = g @ _unpack(spec, theta)[2].transpose(0, 2, 1)
        # relu's derivative from its output: a > 0 exactly where z1 > 0
        da *= (a > 0.0) if spec.activation == "relu" else 1.0 - a**2
        parts[:0] = [x.transpose(0, 2, 1) @ da, da.sum(axis=1)]
    grad = np.concatenate([part.reshape(len(theta), -1) for part in parts], axis=1)
    if l2 > 0.0:
        grad += l2 * theta
    return grad


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - _row_max(z)[..., None])
    return e / e.sum(axis=-1, keepdims=True)


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


class ClientError(ValueError):
    """A failure of one member of a cohort; index is its cohort position."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def train_local(
    spec: ModelSpec, params: ParamVector, data: ClientDataset, cfg: TrainConfig
) -> ParamVector:
    """Seeded mini-batch SGD on cross-entropy (+ ridge); input left untouched."""
    side = Segments(data, np.array([data.n]))
    return ParamVector(train_cohort(spec, params.coords[None], side, cfg)[0])


def train_cohort(
    spec: ModelSpec, starts: np.ndarray, side: Segments, cfg: TrainConfig
) -> np.ndarray:
    """train_local for every member k, from row k of starts [K, P] on its
    segment of side, bitwise, in lockstep; returns the trained rows [K, P]
    as a new array.

    Each member shuffles as a fresh make_rng(cfg.seed) would, one
    permutation per epoch, and walks its batches in order; members of one
    size share those permutations, drawn once. At every global step the
    members still training take one stacked SGD step per batch length.
    Batches are never padded and nothing is reduced across members.
    Raises ClientError naming the first failing member in cohort order.
    """
    _check_cohort(spec, starts, side.data, len(side.n))
    if cfg.epochs == 0:
        return np.array(starts, dtype=np.float64)
    size, epochs = cfg.batch_size, cfg.epochs
    n = side.n
    per_epoch = -(-n // size)
    tail = n - (per_epoch - 1) * size
    steps = epochs * per_epoch

    # One draw per size and epoch, as above; member k's epochs run on from
    # drawn[k] in the joined shuffles.
    rng = make_rng(cfg.seed)
    fresh = rng.bit_generator.state
    sizes, size_of = np.unique(n, return_inverse=True)
    shuffles = []
    for n_k in sizes.tolist():
        rng.bit_generator.state = fresh  # a new make_rng(cfg.seed), at a tenth of the cost
        shuffles += [rng.permutation(n_k) for _ in range(epochs)]
    drawn = epochs * (np.cumsum(sizes) - sizes)[size_of]

    # Most steps first, so the members still training at a step are a
    # prefix; then longest last batch first, so members on batches of one
    # length mostly sit together and their group is a slice.
    order = np.lexsort((-tail, -steps))
    n, per_epoch, tail, steps = n[order], per_epoch[order], tail[order], steps[order]
    first, drawn = side.start[order], drawn[order]

    # The plan has one batch per (member, step), ordered by step, then batch
    # length, then member; each run of equal (step, length) is a group that
    # takes one stacked SGD step. rows lists the batches' rows in plan order.
    member = np.repeat(np.arange(n.size), steps)
    step = np.arange(member.size) - np.repeat(np.cumsum(steps) - steps, steps)
    epoch, within = np.divmod(step, per_epoch[member])
    start = drawn[member] + epoch * n[member] + within * size
    length = np.where(within == per_epoch[member] - 1, tail[member], size)
    plan = np.lexsort((member, length, step))
    member, step, start, length = member[plan], step[plan], start[plan], length[plan]
    end = np.cumsum(length)
    rows = np.concatenate(shuffles)[np.repeat(start - (end - length), length) + np.arange(end[-1])]
    rows += np.repeat(first[member], length)
    cuts = np.flatnonzero((step[1:] != step[:-1]) | (length[1:] != length[:-1])) + 1
    lo, hi = np.append(0, cuts), np.append(cuts, member.size)
    contiguous = member[hi - 1] - member[lo] == hi - lo - 1

    x = side.data.features
    onehot = np.eye(spec.num_classes)[side.data.labels]
    theta = np.asarray(starts, dtype=np.float64)[order]
    for g0, g1, r0, r1, m0, in_place in zip(
        lo.tolist(), hi.tolist(), (end - length)[lo].tolist(), end[hi - 1].tolist(),
        member[lo].tolist(), contiguous.tolist(),
    ):
        batch_rows = rows[r0:r1].reshape(g1 - g0, -1)
        sel = slice(m0, m0 + g1 - g0) if in_place else member[g0:g1]
        th = theta[sel]
        th -= cfg.learning_rate * _ce_grad_arrays(spec, th, x[batch_rows], onehot[batch_rows], cfg.l2)
        if not in_place:
            theta[sel] = th

    trained = np.empty_like(theta)
    trained[order] = theta
    finite = np.isfinite(trained).all(axis=1)
    if not finite.all():
        raise ClientError(int(np.argmin(finite)), "training diverged to non-finite parameters")
    return trained


def evaluate(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> PerformanceMetrics:
    """Mean cross-entropy (nats) and top-1 accuracy on ``data``."""
    _check_cohort(spec, params.coords[None], data)
    _, logits = _forward(spec, params.coords, data.features)
    val_loss = float(_mean_ce(logits, data.labels))
    preds = np.argmax(logits, axis=1)
    val_acc = float(np.mean(preds == data.labels))
    return PerformanceMetrics(val_loss, val_acc)


def local_loss(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> float:
    """Mean cross-entropy of the model on the dataset, in nats."""
    _check_cohort(spec, params.coords[None], data)
    return float(_mean_ce(_forward(spec, params.coords, data.features)[1], data.labels))


def cohort_losses(spec: ModelSpec, thetas: np.ndarray, side: Segments) -> np.ndarray:
    """local_loss for every member k, of row k of thetas [K, P] on its
    segment of side, bitwise; returns the losses [K].

    Members whose segments have one length share one stacked forward pass,
    and each member's mean is taken over its own rows. Nothing is padded
    or reduced across members.
    """
    _check_cohort(spec, thetas, side.data, len(side.n))
    losses = np.empty(len(side.n))
    order = np.argsort(side.n, kind="stable")
    n, first = side.n[order], side.start[order]
    cuts = (np.flatnonzero(np.diff(n)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(n)]):
        rows = first[lo:hi, None] + np.arange(n[lo])
        _, logits = _forward(spec, thetas[order[lo:hi]], side.data.features[rows])
        losses[order[lo:hi]] = _mean_ce(logits, side.data.labels[rows])
    return losses
