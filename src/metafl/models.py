"""Local client models: softmax regression and a one-hidden-layer MLP.

Parameters live in a single flat vector (see :func:`param_count` for the
layout size). The training loss is mean cross-entropy in nats plus an
optional ridge penalty 0.5 * l2 * ||theta||^2; evaluation losses never
include the penalty. Argmax ties break toward the lowest class index.
One forward pass (_forward) and one per-row cross-entropy (_cross_entropy)
score every model and feed the SGD gradient; each loss is one mean over
its own rows, so it is bitwise the same whichever function scores it.
Softmax rows are summed by _row_sum, one np.add per class column in
numpy's own pairwise order, so the sums keep numpy's bits.
train_cohort and cohort_losses take r·K member rows on a side of K
segments: member i reads segment i mod K, with the rows and shuffles of
member i mod K, so r copies of a cohort (for train_cohort, each at its
own learning rate) run as one cohort. train_cohort plans its lockstep
schedule once per tuple of segment sizes (with batch size, epochs and
copies), gathers its batches once per call and writes each step's
gradients into one buffer made per call; cohort_losses plans its size
groups once per tuple of segment sizes (with copies).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

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
    "holdout_losses",
    "cohort_losses",
]

ACTIVATIONS = ("relu", "tanh")

#: Most rows of one block of holdout_losses: a block's activations for the
#: whole parameter stack stay in cache while every vector scores it.
HOLDOUT_BLOCK = 512


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


def _check_side(spec: ModelSpec, thetas: np.ndarray, side: Segments) -> int:
    """_check_cohort for r·K member rows of thetas on the K segments of
    side, whose row counts must each be >= 1 and sum to the rows of
    side.data; returns the copies r >= 1."""
    n = side.n
    if (n < 1).any() or n.sum() != side.data.n:
        raise ValueError(f"segment counts must each be >= 1 and sum to the side's {side.data.n} "
                         f"rows, got {n.size} counts summing to {n.sum()}, "
                         f"{np.count_nonzero(n < 1)} of them below 1")
    copies = max(1, len(thetas) // n.size)
    _check_cohort(spec, thetas, side.data, copies * n.size)
    return copies


def _check_nonnegative(name: str, values: np.ndarray) -> None:
    """values [K, F] hold one row per cohort member; the first row with a
    non-finite or negative entry raises ClientError naming that member."""
    finite = np.isfinite(values).all(axis=1)
    bad = np.flatnonzero(~finite | (values < 0.0).any(axis=1))
    if bad.size:
        problem = "finite" if not finite[bad[0]] else "nonnegative"
        raise ClientError(int(bad[0]), f"{name} must be {problem}")


def _forward(
    spec: ModelSpec, layers: Sequence[np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The output layer's input a (x itself with no hidden layer) and the
    logits, each a new matmul result that its bias add and activation
    update in place. layers are _unpack's; a bias may instead be tiled to
    the rows of x, which adds the same bits without broadcasting."""
    *hidden, w, b = layers
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


def _row_sum(z: np.ndarray) -> np.ndarray:
    """z.sum(axis=-1) by one np.add per column of z [..., c], bitwise: numpy
    adds each row's pairwise sum to 0.0, a left fold below 8 columns, 8
    running sums up to 128 and two halves split at a multiple of 8 above,
    and so does this, far faster over few classes."""
    c = z.shape[-1]
    if c > 128:
        half = c // 2 - (c // 2) % 8
        return _row_sum(z[..., :half]) + _row_sum(z[..., half:])
    if c < 8:
        s = z[..., 0] + 0.0
        for j in range(1, c):
            s += z[..., j]
        return s
    body = c - c % 8
    r = [z[..., j] + z[..., j + 8] if body > 8 else z[..., j] for j in range(8)]
    for j in range(16, body):
        r[j % 8] += z[..., j]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(body, c):
        s += z[..., j]
    s += 0.0  # an all -0.0 row sums to +0.0, as numpy's 0.0 start gives
    return s


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, exp(z - m[..., None])) for the row max m of z [..., c], written over z."""
    m = _row_max(z)
    z -= m[..., None]
    return m, np.exp(z, out=z)


def _cross_entropy(z: np.ndarray, labels: tuple) -> np.ndarray:
    """Cross-entropy of each row of the logits z [..., c], as a new array;
    z[labels] picks each row's label logit, in the caller's layout. Consumes
    z: it holds the rows' shifted exponentials afterwards."""
    picked = z[labels]
    m, e = _shifted_exp(z)
    return m + np.log(_row_sum(e)) - picked


def _ce_grad_arrays(
    spec: ModelSpec, theta: np.ndarray, x: np.ndarray, onehot: np.ndarray, l2: float
) -> np.ndarray:
    """Batch gradients for a stack of members: theta [G, P], x [G, n, d]
    and one-hot labels [G, n, c] give [G, P], as a new array."""
    grad = np.empty_like(theta, dtype=np.float64)
    _ce_grad_into(spec, _unpack(spec, theta), x, onehot, _unpack(spec, grad))
    if l2 > 0.0:
        grad += l2 * theta
    return grad


def _ce_grad_into(
    spec: ModelSpec, layers: Sequence[np.ndarray], x: np.ndarray, onehot: np.ndarray,
    out: Sequence[np.ndarray],
) -> None:
    """The cross-entropy part of _ce_grad_arrays, written into out, the
    _unpack views of the members' gradient rows; layers are those of their
    parameter rows. Every operation acts within one member (a matmul per
    member, reductions over its own rows), so member g's gradient is
    bitwise the one its batch would give alone."""
    a, z = _forward(spec, layers, x)
    g = _shifted_exp(z)[1]
    g /= _row_sum(g)[..., None]
    g -= onehot
    g *= 1.0 / x.shape[1]
    np.matmul(a.transpose(0, 2, 1), g, out=out[-2])
    np.add.reduce(g, axis=1, keepdims=True, out=out[-1])
    if spec.hidden_dim:
        da = g @ layers[2].transpose(0, 2, 1)
        # relu's derivative from its output: a > 0 exactly where z1 > 0
        da *= (a > 0.0) if spec.activation == "relu" else 1.0 - a**2
        np.matmul(x.transpose(0, 2, 1), da, out=out[0])
        np.add.reduce(da, axis=1, keepdims=True, out=out[1])


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


class _Plan(NamedTuple):
    """train_cohort's schedule for one (n, batch size, epochs, copies).
    Lockstep position i trains cohort member order[i]; a plan row is one
    batch row of one (member, step), and each group of plan rows is one
    stacked SGD step."""

    sizes: tuple  # the distinct segment sizes; each draws `epochs` shuffles
    order: np.ndarray  # [M] the cohort member at each lockstep position
    pos: np.ndarray  # [R] each plan row's position in the joined shuffles
    offset: np.ndarray  # [R] the first side row of each plan row's member
    groups: tuple  # (k, r0, r1, sel): k positions sel (a slice if adjacent) take rows r0:r1


@functools.lru_cache(maxsize=3)
def _plan(n: tuple, size: int, epochs: int, copies: int = 1) -> _Plan:
    """The part of train_cohort that depends only on the segment sizes n
    (segment order), the batch size, epochs >= 1 and the copies r of the
    cohort (member i on segment i mod K), with read-only arrays. A run asks
    for up to three keys: its rounds' epochs, extract's one-epoch probe and
    its two copies of the cohort for one epoch."""
    segments = np.array(n)
    n = np.tile(segments, copies)
    per_epoch = -(-n // size)
    tail = n - (per_epoch - 1) * size
    steps = epochs * per_epoch

    # One draw per size and epoch; member k's epochs run on from drawn[k]
    # in the joined shuffles.
    sizes, size_of = np.unique(n, return_inverse=True)
    drawn = epochs * (np.cumsum(sizes) - sizes)[size_of]

    # Most steps first, so the members still training at a step are a
    # prefix; then longest last batch first, so members on batches of one
    # length mostly sit together and their group is a slice.
    order = np.lexsort((-tail, -steps))
    first = np.tile(np.cumsum(segments) - segments, copies)[order]
    n, per_epoch, tail, steps = n[order], per_epoch[order], tail[order], steps[order]
    drawn = drawn[order]

    # The plan has one batch per (member, step), ordered by step, then batch
    # length, then member; each run of equal (step, length) is a group.
    member = np.repeat(np.arange(n.size), steps)
    step = np.arange(member.size) - np.repeat(np.cumsum(steps) - steps, steps)
    epoch, within = np.divmod(step, per_epoch[member])
    start = drawn[member] + epoch * n[member] + within * size
    length = np.where(within == per_epoch[member] - 1, tail[member], size)
    plan = np.lexsort((member, length, step))
    member, step, start, length = member[plan], step[plan], start[plan], length[plan]
    end = np.cumsum(length)
    pos = np.repeat(start - (end - length), length) + np.arange(end[-1])
    offset = np.repeat(first[member], length)
    cuts = np.flatnonzero((step[1:] != step[:-1]) | (length[1:] != length[:-1])) + 1
    lo, hi = np.append(0, cuts), np.append(cuts, member.size)
    contiguous = member[hi - 1] - member[lo] == hi - lo - 1
    for array in (order, pos, offset, member):
        array.flags.writeable = False
    groups = tuple(
        (g1 - g0, r0, r1, slice(m0, m0 + g1 - g0) if in_place else member[g0:g1])
        for g0, g1, r0, r1, m0, in_place in zip(
            lo.tolist(), hi.tolist(), (end - length)[lo].tolist(), end[hi - 1].tolist(),
            member[lo].tolist(), contiguous.tolist(),
        )
    )
    return _Plan(tuple(sizes.tolist()), order, pos, offset, groups)


def train_cohort(
    spec: ModelSpec,
    starts: np.ndarray,
    side: Segments,
    cfg: TrainConfig,
    rates: np.ndarray | None = None,
) -> np.ndarray:
    """train_local for every member i, from row i of starts [M, P] on
    segment i mod K of side's K segments (M a multiple of K), bitwise, in
    lockstep; returns the trained rows [M, P] as a new array. rates [M],
    when given, are the members' learning rates in place of
    cfg.learning_rate, each step bitwise that of a config at that rate.

    Each member shuffles as a fresh make_rng(cfg.seed) would, one
    permutation per epoch, and walks its batches in order; members of one
    size share those permutations, drawn once. At every global step the
    members still training take one stacked SGD step per batch length.
    Batches are never padded and nothing is reduced across members.
    The schedule comes from _plan; only the shuffles are drawn per call,
    and every batch row is gathered once, in plan order. Each step writes
    its k members' gradients into the first k rows of one [M, P] buffer
    made per call, through layer views also made once per call, and
    updates their parameters in place.
    Raises ClientError naming the first failing member in cohort order
    and the first epoch that left it non-finite.
    """
    copies = _check_side(spec, starts, side)
    if rates is not None:
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != (len(starts),) or not (np.isfinite(rates) & (rates > 0.0)).all():
            raise ValueError(f"need {len(starts)} finite and positive learning rates")
    if cfg.epochs == 0:
        return np.array(starts, dtype=np.float64, order="C")
    trained = _descend(spec, starts, side, cfg, rates, copies)
    finite = np.isfinite(trained).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        epoch = _diverged_epoch(spec, starts, side, cfg, rates, i)
        raise ClientError(i, f"training diverged to non-finite parameters in epoch {epoch}")
    return trained


def _descend(spec: ModelSpec, starts: np.ndarray, side: Segments, cfg: TrainConfig,
             rates: np.ndarray | None, copies: int) -> np.ndarray:
    """train_cohort's SGD for cfg.epochs >= 1 on checked arguments, with
    the trained rows returned unchecked."""
    plan = _plan(tuple(side.n.tolist()), cfg.batch_size, cfg.epochs, copies)
    rng = make_rng(cfg.seed)
    fresh = rng.bit_generator.state
    shuffles = []
    for n_k in plan.sizes:
        rng.bit_generator.state = fresh  # a new make_rng(cfg.seed), at a tenth of the cost
        shuffles += [rng.permutation(n_k) for _ in range(cfg.epochs)]
    rows = np.concatenate(shuffles)[plan.pos]
    rows += plan.offset
    d, c = spec.input_dim, spec.num_classes
    # np.take gathers in about half the time that indexing by rows takes
    xs = np.take(side.data.features, rows, axis=0)
    ys = np.take(np.eye(c), np.take(side.data.labels, rows), axis=0)

    theta = np.asarray(starts, dtype=np.float64)[plan.order]
    grad = np.empty_like(theta)
    layers, grads = _unpack(spec, theta), _unpack(spec, grad)
    if rates is not None:
        rates = rates[plan.order, None]
    with np.errstate(over="ignore", invalid="ignore"):  # train_cohort names a divergence
        for k, r0, r1, sel in plan.groups:
            x, onehot = xs[r0:r1].reshape(k, -1, d), ys[r0:r1].reshape(k, -1, c)
            th, gr = theta[sel], grad[:k]  # th is a view for a slice, else a gathered copy
            views = [p[sel] for p in layers] if isinstance(sel, slice) else _unpack(spec, th)
            _ce_grad_into(spec, views, x, onehot, [p[:k] for p in grads])
            if cfg.l2 > 0.0:
                gr += cfg.l2 * th
            gr *= cfg.learning_rate if rates is None else rates[sel]
            th -= gr
            if not isinstance(sel, slice):
                theta[sel] = th

    trained = np.empty_like(theta)
    trained[plan.order] = theta
    return trained


def _diverged_epoch(spec: ModelSpec, starts: np.ndarray, side: Segments, cfg: TrainConfig,
                    rates: np.ndarray | None, i: int) -> int:
    """The first epoch after which member i of a diverged train_cohort call
    is non-finite. Member i replays alone on its segment at its rate; a
    replay of e epochs is the call's first e epochs, as the shuffles are
    the same, and a non-finite parameter stays non-finite under SGD, so
    about log2(cfg.epochs) replays bisect for the epoch."""
    k = i % side.n.size
    solo = Segments(side.data.subset(side.start[k] + np.arange(side.n[k])), side.n[k : k + 1])
    rate = None if rates is None else rates[i : i + 1]
    finite, diverged = 0, cfg.epochs  # member i is finite after `finite` epochs, not `diverged`
    while diverged - finite > 1:
        mid = (finite + diverged) // 2
        trained = _descend(spec, starts[i : i + 1], solo, replace(cfg, epochs=mid), rate, 1)
        finite, diverged = (mid, diverged) if np.isfinite(trained).all() else (finite, mid)
    return diverged


def evaluate(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> PerformanceMetrics:
    """Mean cross-entropy (nats) and top-1 accuracy on ``data``. An
    overflow is not warned of: PerformanceMetrics rejects the non-finite loss."""
    _check_cohort(spec, params.coords[None], data)
    with np.errstate(over="ignore", invalid="ignore"):
        _, logits = _forward(spec, _unpack(spec, params.coords), data.features)
        val_acc = float(np.mean(np.argmax(logits, axis=1) == data.labels))
        val_loss = float(np.mean(_cross_entropy(logits, (np.arange(data.n), data.labels))))
    return PerformanceMetrics(val_loss, val_acc)


def local_loss(spec: ModelSpec, params: ParamVector, data: ClientDataset) -> float:
    """Mean cross-entropy of the model on the dataset, in nats."""
    return float(holdout_losses(spec, params.coords[None], data)[0])


def holdout_losses(spec: ModelSpec, thetas: np.ndarray, data: ClientDataset) -> np.ndarray:
    """Mean cross-entropy (nats) of every row of thetas [M, P] on the one
    dataset data, each bitwise that of its own unblocked forward pass;
    returns the losses [M].

    The rows of data are scored in blocks of at most HOLDOUT_BLOCK rows,
    their sizes within one row of each other, all M models at once. Only
    per-row arithmetic is blocked: each block writes its rows'
    cross-entropies into one [M, n] array, and each loss is one mean over
    a full row of it. Each bias is tiled once per call to the largest
    block's rows, and every block adds a slice of its tile. An overflow
    is not warned of: it shows as a non-finite loss.
    """
    _check_cohort(spec, thetas, data, len(thetas))
    n = data.n
    blocks = -(-n // HOLDOUT_BLOCK)
    bounds = (np.arange(blocks + 1) * n // blocks).tolist()
    rows = -(-n // blocks)  # the largest block's
    tiled = [np.repeat(p, rows, axis=1) if i % 2 else p
             for i, p in enumerate(_unpack(spec, thetas))]
    ce = np.empty((len(thetas), n))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            layers = [p[:, : hi - lo] if i % 2 else p for i, p in enumerate(tiled)]
            _, z = _forward(spec, layers, data.features[lo:hi])
            labels = (slice(None), np.arange(hi - lo), data.labels[lo:hi])
            ce[:, lo:hi] = _cross_entropy(z, labels)
        return np.mean(ce, axis=1)


@functools.lru_cache(maxsize=2)
def _loss_plan(n: tuple, copies: int) -> tuple:
    """cohort_losses' size groups for the segment sizes n (segment order)
    and the copies r of the cohort (member i on segment i mod K), with
    read-only arrays: per segment length L, the members idx [G] of that
    length, their side rows [G, L] and the aranges [G, 1] and [L] that pick
    each row's label logit. A run asks for two keys: its validation side
    once and twice over."""
    segments = np.array(n)
    sizes, first = np.tile(segments, copies), np.tile(np.cumsum(segments) - segments, copies)
    order = np.argsort(sizes, kind="stable")
    sizes, first = sizes[order], first[order]
    cuts = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    groups = []
    for lo, hi in zip([0, *cuts], [*cuts, len(sizes)]):
        within = np.arange(sizes[lo])
        group = (order[lo:hi], first[lo:hi, None] + within, np.arange(hi - lo)[:, None], within)
        for array in group:
            array.flags.writeable = False
        groups.append(group)
    return tuple(groups)


def cohort_losses(spec: ModelSpec, thetas: np.ndarray, side: Segments) -> np.ndarray:
    """local_loss for every member i, of row i of thetas [M, P] on segment
    i mod K of side's K segments (M a multiple of K), bitwise; returns the
    losses [M].

    Members whose segments have one length share one stacked forward pass,
    and each member's mean is taken over its own rows. Nothing is padded
    or reduced across members. The size groups come from _loss_plan,
    made once per tuple of segment sizes and copies; a call only gathers
    and scores. An overflow is not warned of: it shows as a non-finite loss,
    which the caller's check names.
    """
    copies = _check_side(spec, thetas, side)
    losses = np.empty(len(thetas))
    features, labels = side.data.features, side.data.labels
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, rows, member, within in _loss_plan(tuple(side.n.tolist()), copies):
            _, logits = _forward(spec, _unpack(spec, thetas[idx]), features[rows])
            losses[idx] = np.mean(_cross_entropy(logits, (member, within, labels[rows])), axis=-1)
    return losses
