"""Local-model training and evaluation tests, incl. gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metafl.datagen import ClientDataset, make_blobs
from metafl.models import (
    ACTIVATIONS,
    ClientError,
    ModelSpec,
    PerformanceMetrics,
    TrainConfig,
    _ce_grad_arrays,
    _forward,
    _mean_ce,
    _row_max,
    _softmax_rows,
    _unpack,
    cohort_losses,
    evaluate,
    init_params,
    local_loss,
    param_count,
    train_cohort,
    train_local,
)
from metafl.numerics import ParamVector, make_rng
from testkit import (
    finite_diff_grad,
    loss_and_grad,
    pooled,
    reference_ce_grad_arrays,
    reference_logits,
    reference_mean_ce,
    reference_softmax_rows,
)

LOGISTIC_2D = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)


def per_sample_mean_ce(spec, theta, data):
    """Independent per-sample cross-entropy using plain math calls."""
    total = 0.0
    for x, y in zip(data.features, data.labels):
        if spec.hidden_dim == 0:
            w = np.reshape(theta[: spec.input_dim * spec.num_classes],
                           (spec.input_dim, spec.num_classes))
            b = theta[spec.input_dim * spec.num_classes:]
            z = x @ w + b
        else:
            raise NotImplementedError
        exps = [math.exp(v) for v in z]
        total += -math.log(exps[int(y)] / sum(exps))
    return total / data.n


def reference_train_local(spec, params, data, cfg):
    """The per-client SGD loop that train_cohort replaced, kept as the
    reference its results must equal bitwise."""
    theta = params.coords.copy()
    rng = make_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x, y = data.features[batch], data.labels[batch]
            theta -= cfg.learning_rate * reference_grad(spec, theta, x, y, cfg.l2)
    return theta


def reference_grad(spec, theta, x, y, l2):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    n = x.shape[0]

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    if h == 0:
        w, b = theta[: d * c].reshape(d, c), theta[d * c :]
        p = softmax(x @ w + b)
        p[np.arange(n), y] -= 1.0
        p *= 1.0 / n
        grad = np.concatenate([(x.T @ p).ravel(), p.sum(axis=0)])
    else:
        w1, b1 = theta[: d * h].reshape(d, h), theta[d * h : d * h + h]
        w2, b2 = theta[d * h + h : d * h + h + h * c].reshape(h, c), theta[d * h + h + h * c :]
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0) if spec.activation == "relu" else np.tanh(z1)
        g2 = softmax(a1 @ w2 + b2)
        g2[np.arange(n), y] -= 1.0
        g2 *= 1.0 / n
        da1 = g2 @ w2.T
        dz1 = da1 * (z1 > 0.0) if spec.activation == "relu" else da1 * (1.0 - a1**2)
        grad = np.concatenate(
            [(x.T @ dz1).ravel(), dz1.sum(axis=0), (a1.T @ g2).ravel(), g2.sum(axis=0)]
        )
    if l2 > 0.0:
        grad += l2 * theta
    return grad


@st.composite
def cohorts(draw):
    """(spec, starts, datasets, cfg): K 1-12 clients with unequal starts,
    batch 1-17, epochs 0-3, softmax/relu/tanh, l2 0 or 0.01. Their sizes,
    1-79 samples, come from a pool of at most 4, so that most cohorts hold
    members of one size, which share their shuffles."""
    d, c = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    spec = ModelSpec(d, draw(st.sampled_from([0, 3])), c, draw(st.sampled_from(ACTIVATIONS)))
    cfg = TrainConfig(
        learning_rate=draw(st.floats(0.01, 1.0)),
        epochs=draw(st.integers(0, 3)),
        batch_size=draw(st.integers(1, 17)),
        seed=draw(st.integers(0, 2**32)),
        l2=draw(st.sampled_from([0.0, 0.01])),
    )
    pool = draw(st.lists(st.integers(1, 79), min_size=1, max_size=4))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    rng = make_rng(draw(st.integers(0, 2**32)))
    datasets = [ClientDataset(rng.normal(size=(n, d)), rng.integers(0, c, n)) for n in sizes]
    starts = rng.normal(scale=0.5, size=(len(sizes), param_count(spec)))
    return spec, starts, datasets, cfg


@st.composite
def scored_cohorts(draw):
    """(spec, thetas, datasets): K 1-40 members of softmax, relu or tanh
    models, with dataset lengths 1-300 drawn from a pool of at most 4, so
    that lengths repeat and some exceed numpy's 128-element summation
    block."""
    d, c = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    spec = ModelSpec(d, draw(st.sampled_from([0, 3])), c, draw(st.sampled_from(ACTIVATIONS)))
    pool = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    rng = make_rng(draw(st.integers(0, 2**32)))
    datasets = [ClientDataset(rng.normal(size=(n, d)), rng.integers(0, c, n)) for n in sizes]
    thetas = rng.normal(scale=2.0, size=(len(sizes), param_count(spec)))
    return spec, thetas, datasets


class TestInitParams:
    def test_deterministic(self):
        a = init_params(LOGISTIC_2D, 5)
        b = init_params(LOGISTIC_2D, 5)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_param_count_logistic(self):
        assert init_params(LOGISTIC_2D, 0).dim == 2 * 2 + 2 == param_count(LOGISTIC_2D)

    def test_param_count_mlp(self):
        spec = ModelSpec(input_dim=3, hidden_dim=4, num_classes=2, activation="tanh")
        assert param_count(spec) == 3 * 4 + 4 + 4 * 2 + 2
        assert init_params(spec, 0).dim == param_count(spec)

    def test_seeds_differ(self):
        a = init_params(LOGISTIC_2D, 1)
        b = init_params(LOGISTIC_2D, 2)
        assert np.any(a.coords != b.coords)


class TestTrainLocal:
    def test_zero_epochs_is_identity(self):
        data = make_blobs(2, 2, 20, 0.5, 3)
        params = init_params(LOGISTIC_2D, 0)
        out = train_local(data=data, spec=LOGISTIC_2D, params=params,
                          cfg=TrainConfig(learning_rate=0.1, epochs=0))
        np.testing.assert_array_equal(out.coords, params.coords)

    def test_vanishing_learning_rate(self):
        data = make_blobs(2, 2, 20, 0.5, 3)
        params = init_params(LOGISTIC_2D, 0)
        out = train_local(LOGISTIC_2D, params, data, TrainConfig(learning_rate=1e-300, epochs=2))
        np.testing.assert_allclose(out.coords, params.coords, atol=1e-12)

    def test_one_step_matches_hand_gradient(self):
        # single sample x=(2, -1), label 0, theta = 0: predicted probs are
        # (0.5, 0.5), so dZ = (-0.5, 0.5), dW_jc = x_j dZ_c, db = dZ
        data = ClientDataset([[2.0, -1.0]], [0])
        lr = 0.3
        out = train_local(
            LOGISTIC_2D,
            ParamVector(np.zeros(6)),
            data,
            TrainConfig(learning_rate=lr, epochs=1, batch_size=1),
        )
        grad = np.array([2 * -0.5, 2 * 0.5, -1 * -0.5, -1 * 0.5, -0.5, 0.5])
        np.testing.assert_allclose(out.coords, -lr * grad, atol=1e-15)

    def test_deterministic(self):
        data = make_blobs(3, 4, 60, 0.8, 9)
        spec = ModelSpec(input_dim=4, hidden_dim=5, num_classes=3, activation="tanh")
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=21)
        params = init_params(spec, 2)
        a = train_local(spec, params, data, cfg)
        b = train_local(spec, params, data, cfg)
        np.testing.assert_array_equal(a.coords, b.coords)

    def test_input_unmodified(self):
        data = make_blobs(2, 2, 30, 0.5, 1)
        params = init_params(LOGISTIC_2D, 0)
        before = params.coords.copy()
        train_local(LOGISTIC_2D, params, data, TrainConfig(learning_rate=0.5, epochs=2))
        np.testing.assert_array_equal(params.coords, before)

    def test_dimension_mismatch(self):
        data = make_blobs(2, 3, 20, 0.5, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            train_local(LOGISTIC_2D, init_params(LOGISTIC_2D, 0), data,
                        TrainConfig(learning_rate=0.1))


class TestTrainCohort:
    @settings(max_examples=60, deadline=None)
    @given(cohort=cohorts())
    def test_equals_one_client_calls(self, cohort):
        spec, starts, datasets, cfg = cohort
        together = train_cohort(spec, starts, pooled(datasets), cfg)
        assert together.shape == starts.shape
        for start, data, got in zip(starts, datasets, together):
            alone = train_cohort(spec, start[None], pooled([data]), cfg)[0]
            assert np.array_equal(got, alone)
            assert np.array_equal(got, reference_train_local(spec, ParamVector(start), data, cfg))

    def test_failure_names_first_member_in_cohort_order(self):
        # members 1 and 2 diverge; the lockstep order is by batch count,
        # member 2 first and member 0 last
        pool = make_blobs(2, 2, 30, 0.5, 1)
        good = pool.subset(np.arange(10))
        small = ClientDataset(pool.features[:20] * 1e160, pool.labels[:20])
        large = ClientDataset(pool.features * 1e160, pool.labels)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClientError, match="diverged") as info:
                train_cohort(LOGISTIC_2D, starts(3), pooled([good, small, large]), cfg)
        assert info.value.index == 1

    def test_dimension_mismatch(self):
        # one side holds every member's features, so a wrong dim is no
        # member's fault: a plain ValueError, as for a wrong start shape
        good = pooled([make_blobs(2, 2, 20, 0.5, 3)] * 3)
        wide = pooled([make_blobs(2, 3, 20, 0.5, 3)] * 3)
        cfg = TrainConfig(learning_rate=0.1)
        for start, side in ((starts(3), wide), (starts(2), good)):
            with pytest.raises(ValueError, match="dimension mismatch") as info:
                train_cohort(LOGISTIC_2D, start, side, cfg)
            assert type(info.value) is ValueError

    def test_returns_new_array(self):
        data = make_blobs(2, 2, 20, 0.5, 3)
        start = starts(2)
        for epochs in (0, 1):
            out = train_cohort(LOGISTIC_2D, start, pooled([data, data]), TrainConfig(0.1, epochs=epochs))
            assert not np.shares_memory(out, start)
        np.testing.assert_array_equal(start, starts(2))


def starts(k):
    """k copies of init_params(LOGISTIC_2D, 0) as a [k, P] matrix."""
    return np.tile(init_params(LOGISTIC_2D, 0).coords, (k, 1))


class TestCohortLosses:
    @settings(max_examples=60, deadline=None)
    @given(cohort=scored_cohorts())
    def test_equals_evaluate_per_member(self, cohort):
        spec, thetas, datasets = cohort
        losses = cohort_losses(spec, thetas, pooled(datasets))
        alone = [evaluate(spec, ParamVector(th), d).val_loss for th, d in zip(thetas, datasets)]
        assert losses.tobytes() == np.array(alone).tobytes()

    def test_dimension_mismatch(self):
        good = pooled([make_blobs(2, 2, 20, 0.5, 3)] * 3)
        wide = pooled([make_blobs(2, 3, 20, 0.5, 3)] * 3)
        for thetas, side in ((starts(3), wide), (starts(3)[:, :-1], good), (starts(2), good)):
            with pytest.raises(ValueError, match="dimension mismatch") as info:
                cohort_losses(LOGISTIC_2D, thetas, side)
            assert type(info.value) is ValueError


class TestEvaluate:
    def test_zero_params_balanced_binary(self):
        data = ClientDataset([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0], [1.0, 2.0]],
                             [0, 1, 0, 1])
        perf = evaluate(LOGISTIC_2D, ParamVector(np.zeros(6)), data)
        np.testing.assert_allclose(perf.val_loss, math.log(2), atol=1e-12)
        # all logits are zero: argmax tie-break picks class 0
        assert perf.val_accuracy == 0.5

    def test_large_margin_model_is_perfect(self):
        data = ClientDataset([[-2.0], [-1.0], [1.0], [2.0]], [0, 0, 1, 1])
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        theta = ParamVector([-10.0, 10.0, 0.0, 0.0])
        assert evaluate(spec, theta, data).val_accuracy == 1.0

    def test_loss_matches_reference(self):
        data = ClientDataset([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]], [0, 1, 1])
        theta = np.array([0.3, -0.2, 1.1, 0.4, -0.6, 0.05])
        perf = evaluate(LOGISTIC_2D, ParamVector(theta), data)
        np.testing.assert_allclose(
            perf.val_loss, per_sample_mean_ce(LOGISTIC_2D, theta, data), atol=1e-9
        )

    def test_metrics_validation(self):
        with pytest.raises(ValueError, match="val_accuracy"):
            PerformanceMetrics(0.1, 1.5)
        with pytest.raises(ValueError, match="finite"):
            PerformanceMetrics(float("nan"), 0.5)


class TestLocalLoss:
    def test_consistent_with_evaluate(self):
        data = make_blobs(2, 3, 40, 0.7, 5)
        spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
        params = init_params(spec, 1)
        assert local_loss(spec, params, data) == evaluate(spec, params, data).val_loss

    def test_zero_params_balanced(self):
        data = ClientDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        assert abs(local_loss(LOGISTIC_2D, ParamVector(np.zeros(6)), data)
                   - math.log(2)) < 1e-12

    def test_training_reduces_loss(self):
        data = make_blobs(2, 2, 80, 0.05, 7)
        params = init_params(LOGISTIC_2D, 0)
        losses = [local_loss(LOGISTIC_2D, params, data)]
        for _ in range(5):
            params = train_local(LOGISTIC_2D, params, data,
                                 TrainConfig(learning_rate=0.5, epochs=1, seed=3))
            losses.append(local_loss(LOGISTIC_2D, params, data))
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestGradients:
    @pytest.mark.parametrize(
        "spec,l2",
        [
            (ModelSpec(input_dim=3, hidden_dim=0, num_classes=3), 0.0),
            (ModelSpec(input_dim=4, hidden_dim=0, num_classes=2), 0.3),
            (ModelSpec(input_dim=3, hidden_dim=3, num_classes=2, activation="tanh"), 0.0),
            (ModelSpec(input_dim=2, hidden_dim=4, num_classes=3, activation="tanh"), 0.1),
        ],
    )
    def test_analytic_matches_finite_difference(self, spec, l2):
        # relu is excluded: central differences are unreliable at its kink
        rng = make_rng(31)
        data = make_blobs(spec.num_classes, spec.input_dim, 25, 0.8,
                          int(rng.integers(1000)))
        for trial in range(5):
            theta = rng.normal(scale=0.8, size=param_count(spec))
            _, grad = loss_and_grad(spec, ParamVector(theta), data, l2)
            fd = finite_diff_grad(
                lambda th: loss_and_grad(spec, ParamVector(th), data, l2)[0],
                theta,
                1e-6,
            )
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5

    def test_relu_forward_matches_manual(self):
        spec = ModelSpec(input_dim=2, hidden_dim=2, num_classes=2, activation="relu")
        # layout: W1 (2x2), b1 (2), W2 (2x2), b2 (2)
        theta = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.5, -0.5])
        data = ClientDataset([[2.0, 3.0]], [0])
        loss = local_loss(spec, ParamVector(theta), data)
        # hidden = relu([2, -3]) = [2, 0]; logits = [2 + 0.5, 0 - 0.5]
        want = math.log(math.exp(2.5) + math.exp(-0.5)) - 2.5
        assert loss == pytest.approx(want, abs=1e-12)


@st.composite
def forward_cases(draw):
    """(spec, theta, x, y): hidden_dim 0 or 1-8, relu or tanh, 2-12
    classes, 0-2 stacked leading axes over rows of length 1 and up; about
    a fifth of the parameters and a tenth of the features are exactly 0,
    so relu and zero biases give exactly zero logits of either sign."""
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.one_of(st.just(0), st.integers(1, 8))),
        num_classes=draw(st.integers(2, 12)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
    )
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    rows = draw(st.one_of(st.just(1), st.integers(2, 300)))
    rng = make_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    theta = rng.normal(scale=scale, size=lead + (param_count(spec),))
    theta *= rng.random(theta.shape) < 0.8
    x = rng.normal(size=lead + (rows, spec.input_dim))
    x *= rng.random(x.shape) < 0.9
    y = rng.integers(0, spec.num_classes, lead + (rows,))
    return spec, theta, x, y


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestForwardPass:
    @settings(max_examples=200, deadline=None)
    @given(case=forward_cases())
    def test_equals_reference_bitwise(self, case):
        spec, theta, x, y = case
        a, logits = _forward(spec, theta, x)
        assert same_bits(logits, reference_logits(spec, theta, x))
        assert a is x if spec.hidden_dim == 0 else a.shape == x.shape[:-1] + (spec.hidden_dim,)
        assert same_bits(_mean_ce(logits, y), reference_mean_ce(logits, y))
        assert same_bits(_softmax_rows(logits), reference_softmax_rows(logits))

    @settings(max_examples=200, deadline=None)
    @given(
        z=arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(2, 20)),
            elements=st.one_of(
                st.floats(allow_nan=False), st.sampled_from([math.inf, -math.inf, math.nan])
            ),
        )
    )
    def test_row_max_equals_numpy_max_bitwise(self, z):
        z = z + 0.0  # -0.0 + 0.0 is 0.0; see the signed-zero test below
        assert same_bits(_row_max(z), z.max(axis=-1))
        assert same_bits(_row_max(z[0]), z[0].max(axis=-1))

    def test_row_max_signed_zero_and_nan_sign(self):
        # numpy's reduction may return either zero of a row holding both,
        # and a positive NaN for a row holding a sign-bit NaN; _row_max
        # agrees in value, and the subtraction of the max and its sum with
        # a log make the forward pass's outputs bitwise equal either way
        rng = make_rng(5)
        specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -2.5])
        for c in (2, 3, 8, 9, 17):
            z = rng.choice(specials, size=(400, c))
            assert np.array_equal(_row_max(z), z.max(axis=-1), equal_nan=True)
            finite = rng.choice(specials[[0, 1, 6, 7]], size=(400, c))
            y = rng.integers(0, c, 400)
            assert same_bits(_mean_ce(finite, y), reference_mean_ce(finite, y))
            assert same_bits(_softmax_rows(finite), reference_softmax_rows(finite))


@st.composite
def gradient_cases(draw):
    """(spec, theta, x, onehot, l2) for one stacked SGD step: hidden_dim
    0 or 1-8, relu or tanh, G >= 1 members, batches of 1 row and up, l2 0
    or positive. About a third of the hidden units get zero weights and a
    +-0.0 bias, so their pre-activations are exactly zero (+0.0: a matmul
    sum starts from +0.0, so -0.0 cannot arise here; the relu mask test
    covers it); the rest mix signs, and a tenth of the features are 0."""
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.one_of(st.just(0), st.integers(1, 8))),
        num_classes=draw(st.integers(2, 8)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
    )
    g = draw(st.integers(1, 4))
    n = draw(st.one_of(st.just(1), st.integers(2, 64)))
    rng = make_rng(draw(st.integers(0, 2**32)))
    theta = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 10.0])), size=(g, param_count(spec)))
    if spec.hidden_dim:
        w1, b1, _, _ = _unpack(spec, theta)  # views: writing them writes theta
        dead = rng.random((g, spec.hidden_dim)) < 0.35
        w1 *= ~dead[:, None, :]
        b1[dead[:, None, :]] = rng.choice([0.0, -0.0], size=int(dead.sum()))
    x = rng.normal(size=(g, n, spec.input_dim))
    x *= rng.random(x.shape) < 0.9
    onehot = np.eye(spec.num_classes)[rng.integers(0, spec.num_classes, (g, n))]
    l2 = draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    return spec, theta, x, onehot, l2


class TestGradientPass:
    @settings(max_examples=200, deadline=None)
    @given(case=gradient_cases())
    def test_equals_two_branch_reference_bitwise(self, case):
        spec, theta, x, onehot, l2 = case
        want = reference_ce_grad_arrays(spec, theta, x, onehot, l2)
        assert same_bits(_ce_grad_arrays(spec, theta, x, onehot, l2), want)

    @pytest.mark.parametrize(
        "z", [0.0, -0.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan]
    )
    def test_relu_mask_from_output_equals_pre_activation_mask(self, z):
        # the gradient masks by a = relu(z1) > 0; the reference by z1 > 0
        z = np.array([z])
        assert same_bits(np.maximum(z, 0.0) > 0.0, z > 0.0)


class TestPredictions:
    def test_argmax_tie_break_lowest_index(self):
        data = ClientDataset([[1.0, 1.0]], [1])
        perf = evaluate(LOGISTIC_2D, ParamVector(np.zeros(6)), data)
        # logits tie at zero; class 0 wins so the label-1 sample is wrong
        assert perf.val_accuracy == 0.0
