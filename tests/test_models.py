"""Local-model training and evaluation tests, incl. gradient checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metafl import models
from metafl.datagen import ClientDataset, Segments, make_blobs
from metafl.metafeatures import extract
from metafl.models import (
    ACTIVATIONS,
    ClientError,
    ModelSpec,
    PerformanceMetrics,
    TrainConfig,
    _cross_entropy,
    _forward,
    _plan,
    _row_max,
    _row_sum,
    _shifted_exp,
    _block_rows,
    _unpack,
    cohort_losses,
    evaluate,
    holdout_losses,
    init_params,
    local_loss,
    param_count,
    train_cohort,
    train_local,
)
from metafl.numerics import ParamVector, make_rng
from testkit import (
    EVALUATE_PEAK_BOUND,
    ce_grad_arrays,
    finite_diff_grad,
    loss_and_grad,
    pooled,
    reference_grad,
    reference_logits,
    reference_mean_ce,
    reference_train_local,
    traced,
)

LOGISTIC_2D = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
GRID_BLOCK = _block_rows(9)  # a block's rows for a 9-point alpha grid: 512
VECTOR_BLOCK = _block_rows(1)  # for one vector (evaluate, local_loss): 2048


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


@st.composite
def replicated_cohorts(draw):
    """(spec, starts, side, cfg, rates): r 2-3 copies of a cohort of K 1-6
    clients, starts [r·K, P] unequal across copies, and each copy's rate.
    Hidden 0-4 with relu or tanh, l2 0 or 0.01, epochs 0-3, batch b 2-6.
    With 2+ epochs and 3+ clients the first three hold b + 1, b and 1 rows:
    at each epoch's last slot the first and third sit on batches of one
    row around the second's full last batch, an index-gathered (non-slice)
    group."""
    d, c = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    spec = ModelSpec(d, draw(st.integers(0, 4)), c, draw(st.sampled_from(ACTIVATIONS)))
    cfg = TrainConfig(
        learning_rate=draw(st.floats(0.01, 1.0)),
        epochs=draw(st.integers(0, 3)),
        batch_size=draw(st.integers(2, 6)),
        seed=draw(st.integers(0, 2**32)),
        l2=draw(st.sampled_from([0.0, 0.01])),
    )
    b, k, r = cfg.batch_size, draw(st.integers(1, 6)), draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(1, 3 * b), min_size=k, max_size=k))
    if cfg.epochs >= 2 and k >= 3:
        sizes[:3] = [b + 1, b, 1]
    rates = draw(st.lists(st.floats(0.01, 1.0), min_size=r, max_size=r))
    rng = make_rng(draw(st.integers(0, 2**32)))
    side = pooled([ClientDataset(rng.normal(size=(n, d)), rng.integers(0, c, n)) for n in sizes])
    starts = rng.normal(scale=0.5, size=(r * k, param_count(spec)))
    return spec, starts, side, cfg, rates


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
        """Bitwise testkit.reference_train_local per member, from unequal
        starts: the federation oracle's clients share one start."""
        spec, starts, datasets, cfg = cohort
        together = train_cohort(spec, starts, pooled(datasets), cfg)
        assert together.shape == starts.shape
        for start, data, got in zip(starts, datasets, together):
            alone = train_cohort(spec, start[None], pooled([data]), cfg)[0]
            assert np.array_equal(got, alone)
            assert np.array_equal(got, reference_train_local(spec, start, data, cfg))

    @settings(max_examples=80, deadline=None)
    @given(cohort=replicated_cohorts())
    def test_copies_at_own_rates_equal_separate_calls(self, cohort):
        """r·K members, member i on segment i mod K at the rate of its copy,
        are bitwise r single-rate calls of K members each."""
        spec, starts, side, cfg, rates = cohort
        k = len(side.n)
        if cfg.epochs >= 2 and k >= 3:
            plan = _plan(tuple(side.n.tolist()), cfg.batch_size, cfg.epochs, len(rates))
            assert any(not isinstance(sel, slice) for *_, sel in plan.groups)
        together = train_cohort(spec, starts, side, cfg, np.repeat(rates, k))
        apart = [train_cohort(spec, starts[i * k:(i + 1) * k], side, replace(cfg, learning_rate=rate))
                 for i, rate in enumerate(rates)]
        assert same_bits(together, np.concatenate(apart))

    def test_rates_must_be_one_finite_positive_per_member(self):
        side = pooled([make_blobs(2, 2, 20, 0.5, 3)] * 2)
        for rates in ([0.1] * 3, [0.1, 0.0], [0.1, np.inf], [0.1, -0.1]):
            with pytest.raises(ValueError, match="need 2 finite and positive learning rates"):
                train_cohort(LOGISTIC_2D, starts(2), side, TrainConfig(0.1), np.array(rates))

    @pytest.mark.parametrize("rate, epoch", [(1e120, 1), (1e60, 2), (1e40, 3), (1e30, 4)])
    def test_divergence_names_first_non_finite_epoch(self, rate, epoch):
        """Member 3, the second copy of segment 1 at its own rate, diverges
        alone; its message names the first epoch after which the reference
        loop alone is non-finite, which a smaller rate delays."""
        second = make_blobs(2, 2, 12, 0.5, 4)
        side = pooled([make_blobs(2, 2, 20, 0.5, 3), second])
        cfg = TrainConfig(learning_rate=0.1, epochs=4, batch_size=4, l2=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = [np.isfinite(reference_train_local(
                LOGISTIC_2D, starts(1)[0], second, replace(cfg, epochs=e, learning_rate=rate)
            )).all() for e in range(1, 5)]
        assert finite.index(False) == epoch - 1
        message = f"^training diverged to non-finite parameters in epoch {epoch}$"
        with pytest.raises(ClientError, match=message) as info:
            train_cohort(LOGISTIC_2D, starts(4), side, cfg, np.array([0.1, 0.1, 0.1, rate]))
        assert info.value.index == 3

    def test_divergence_epoch_is_bisected(self, monkeypatch):
        """A 64-epoch call whose member 3 diverges in epoch 3 finds that
        epoch in log2(64) solo replays, halving from 32 epochs."""
        side = pooled([make_blobs(2, 2, 20, 0.5, 3), make_blobs(2, 2, 12, 0.5, 4)])
        cfg = TrainConfig(learning_rate=0.1, epochs=64, batch_size=4, l2=1.0)
        epochs, descend = [], models._descend

        def counted(spec, starts, side, cfg, rates, copies):
            epochs.append(cfg.epochs)
            return descend(spec, starts, side, cfg, rates, copies)

        monkeypatch.setattr(models, "_descend", counted)
        with pytest.raises(ClientError, match="non-finite parameters in epoch 3$"):
            train_cohort(LOGISTIC_2D, starts(4), side, cfg, np.array([0.1, 0.1, 0.1, 1e40]))
        assert epochs == [64, 32, 16, 8, 4, 2, 3]

    def test_failure_names_first_member_in_cohort_order(self):
        # members 1 and 2 diverge; the lockstep order is by batch count,
        # member 2 first and member 0 last
        pool = make_blobs(2, 2, 30, 0.5, 1)
        good = pool.subset(np.arange(10))
        small = ClientDataset(pool.features[:20] * 1e160, pool.labels[:20])
        large = ClientDataset(pool.features * 1e160, pool.labels)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=4)
        with pytest.raises(ClientError, match="non-finite parameters in epoch 1$") as info:
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


class TestPlan:
    """The lockstep schedule of train_cohort and cohort_losses is cached per
    (sizes, batch, epochs, copies); the data and the shuffles are not."""

    def test_equal_sizes_share_no_data(self):
        """Two sides of one size tuple, each with its own rows, labels and seed,
        trained A, B, A, B: a cached plan the oracle seldom reuses."""
        spec = ModelSpec(3, 4, 3, "tanh")
        sizes = [13, 7, 13, 2]
        rng = make_rng(8)
        runs = []
        for seed in (4, 5):
            datasets = [ClientDataset(rng.normal(size=(n, 3)), rng.integers(0, 3, n))
                        for n in sizes]
            thetas = rng.normal(scale=0.5, size=(len(sizes), param_count(spec)))
            runs.append((datasets, thetas, TrainConfig(0.3, epochs=2, batch_size=4, seed=seed)))
        for datasets, thetas, cfg in runs + runs:
            got = train_cohort(spec, thetas, pooled(datasets), cfg)
            for theta, data, row in zip(thetas, datasets, got):
                want = reference_train_local(spec, theta, data, cfg)
                assert same_bits(row, want)

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=40),
           size=st.integers(1, 8), epochs=st.integers(1, 3), copies=st.integers(1, 2))
    @example(sizes=[3, 5, 9], size=2, epochs=1, copies=1)  # 5 groups; per step it was 7
    def test_slots_keep_each_members_batches(self, sizes, size, epochs, copies):
        """Each member walks its own shuffle positions in order, in batches of
        `size` rows and then its last batch, each epoch; every group holds
        batches of one length. The full batches of one index within the
        epoch, a full last batch included, share a group, which is a slice;
        the epoch's short last batches of one length share its last slot."""
        plan = _plan(tuple(sizes), size, epochs, copies)
        n = np.tile(sizes, copies)
        first = np.tile(np.cumsum(sizes) - sizes, copies)
        walked = {i: [] for i in range(n.size)}  # member -> [(pos, offset)] per batch
        r = 0
        for k, r0, r1, sel in plan.groups:
            assert r0 == r and (r1 - r0) % k == 0
            members = plan.order[sel]
            assert len(set(members.tolist())) == k
            length = (r1 - r0) // k
            assert length < size or isinstance(sel, slice)
            for j, i in enumerate(members.tolist()):
                rows = slice(r0 + j * length, r0 + (j + 1) * length)
                walked[i].append((plan.pos[rows], plan.offset[rows]))
            r = r1
        assert r == len(plan.pos) == epochs * n.sum()
        per_epoch = -(-n // size)
        tail = n - (per_epoch - 1) * size
        for i, batches in walked.items():
            drawn = epochs * sum(s for s in set(sizes) if s < n[i])
            want = [size] * (per_epoch[i] - 1) + [tail[i]]
            assert [len(pos) for pos, _ in batches] == want * epochs
            assert np.array_equal(np.concatenate([pos for pos, _ in batches]),
                                  drawn + np.arange(epochs * n[i]))
            assert all((offset == first[i]).all() for _, offset in batches)
        slots = per_epoch.max()
        last_slot = set(tail[per_epoch == slots].tolist()) | set(tail[tail < size].tolist())
        assert len(plan.groups) == epochs * (slots - 1 + len(last_slot))

    def test_arrays_are_read_only(self):
        plan = _plan((1, 1, 2, 3), 2, 2)  # its 1-row last batches are no slice
        indices = [sel for *_, sel in plan.groups if not isinstance(sel, slice)]
        assert indices
        for array in (plan.order, plan.pos, plan.offset, *indices):
            assert not array.flags.writeable

    def test_cache_holds_a_runs_three_plans(self):
        """A run's training asks for three plans: its rounds' epochs,
        extract's probe and extract's two copies of the cohort for one
        epoch. With the two that score its validation side, a run that
        weights data_complexity and lr_sensitivity makes five in _plan's
        one cache. Once each is made, no later round rebuilds one, and the
        cache stays bounded."""
        spec = ModelSpec(2, 3, 2)
        data = make_blobs(2, 2, 40, 0.5, 3)
        train = pooled([data.subset(np.arange(0, 15)), data.subset(np.arange(15, 32))])
        val = pooled([data.subset(np.arange(32, 35)), data.subset(np.arange(35, 40))])
        theta = init_params(spec, 0)
        _plan.cache_clear()
        for copies in (1, 2):
            cohort_losses(spec, np.tile(theta.coords, (2 * copies, 1)), val)
        assert _plan.cache_info().misses == 2
        for seed in range(3):
            cfg = TrainConfig(0.1, epochs=2, batch_size=4, seed=seed)
            thetas = train_cohort(spec, np.tile(theta.coords, (2, 1)), train, cfg)
            cohort_losses(spec, thetas, val)
            extract(spec, theta, thetas, (train, val), cfg, (0.0, 0.0, 0.0, 1.0, 1.0))
        info = _plan.cache_info()
        assert (info.misses, info.currsize) == (5, 5)
        for n in range(1, 6):
            side = pooled([make_blobs(2, 2, 2 + n, 0.5, n)])
            train_cohort(LOGISTIC_2D, starts(1), side, TrainConfig(0.1))
            cohort_losses(LOGISTIC_2D, starts(1), side)
        assert _plan.cache_info().currsize <= 5

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

    @settings(max_examples=60, deadline=None)
    @given(cohort=replicated_cohorts())
    def test_copies_equal_separate_calls(self, cohort):
        """r·K members, member i on segment i mod K, are bitwise r calls of
        K members each."""
        spec, thetas, side, _, rates = cohort
        k = len(side.n)
        apart = [cohort_losses(spec, thetas[i * k:(i + 1) * k], side) for i in range(len(rates))]
        assert cohort_losses(spec, thetas, side).tobytes() == np.concatenate(apart).tobytes()

    def test_cache_holds_a_runs_two_loss_plans(self):
        """Scoring a run's validation side once (each round's losses and
        extract's probe) and twice over (extract's 1x and 1.5x epochs) asks
        _plan for two plans, one epoch of one batch per member. Once each
        is made, no later round rebuilds one, the plans' arrays are
        read-only and the cache stays bounded."""
        spec = ModelSpec(2, 3, 2)
        data = make_blobs(2, 2, 8, 0.5, 3)
        val = pooled([data.subset(np.arange(0, 3)), data.subset(np.arange(3, 8))])
        rng = make_rng(6)
        _plan.cache_clear()
        for _ in range(3):
            thetas = rng.normal(size=(2, param_count(spec)))
            cohort_losses(spec, thetas, val)
            cohort_losses(spec, np.tile(thetas, (2, 1)), val)
        info = _plan.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        for copies in (1, 2):
            plan = _plan((3, 5), 5, 1, copies)
            indices = [sel for *_, sel in plan.groups if not isinstance(sel, slice)]
            for array in (plan.order, plan.pos, plan.offset, *indices):
                assert not array.flags.writeable
        assert _plan.cache_info().misses == 2
        for n in range(1, 6):
            cohort_losses(LOGISTIC_2D, starts(1), pooled([make_blobs(2, 2, 2 + n, 0.5, n)]))
        assert _plan.cache_info().currsize <= 5

    def test_dimension_mismatch(self):
        good = pooled([make_blobs(2, 2, 20, 0.5, 3)] * 3)
        wide = pooled([make_blobs(2, 3, 20, 0.5, 3)] * 3)
        for thetas, side in ((starts(3), wide), (starts(3)[:, :-1], good), (starts(2), good),
                             (starts(4), good)):
            with pytest.raises(ValueError, match="dimension mismatch") as info:
                cohort_losses(LOGISTIC_2D, thetas, side)
            assert type(info.value) is ValueError


class TestSegmentCounts:
    """A side's counts must each be >= 1 and sum to its rows."""

    DATA = make_blobs(2, 2, 20, 0.5, 3)

    @pytest.mark.parametrize("counts", [[5, 5], [15, 15], [0, 20], [21, -1]])
    def test_train_cohort_and_cohort_losses_reject_bad_counts(self, counts):
        side = Segments(self.DATA, np.array(counts))
        with pytest.raises(ValueError, match="segment counts must each be >= 1 and sum to"):
            train_cohort(LOGISTIC_2D, starts(2), side, TrainConfig(0.1))
        with pytest.raises(ValueError, match="segment counts must each be >= 1 and sum to"):
            cohort_losses(LOGISTIC_2D, starts(2), side)


@st.composite
def holdout_cases(draw, n=st.integers(1, 1600), m=st.integers(1, 12)):
    """(spec, thetas, data): M 1-12 parameter vectors on one dataset of n
    rows; hidden_dim 0 or 1-8, relu or tanh, 2-12 classes. A fifth of the
    parameters and a tenth of the features are exactly 0, and some vectors
    are all zero or repeat another, so logits and rows tie. n may be a
    function of M."""
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.one_of(st.just(0), st.integers(1, 8))),
        num_classes=draw(st.integers(2, 12)),
        activation=draw(st.sampled_from(ACTIVATIONS)),
    )
    m = draw(m)
    rows = draw(n(m) if callable(n) else n)
    rng = make_rng(draw(st.integers(0, 2**32)))
    thetas = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 30.0])), size=(m, param_count(spec)))
    thetas *= rng.random(thetas.shape) < 0.8
    thetas[rng.random(m) < 0.2] = 0.0
    thetas[1:][rng.random(m - 1) < 0.2] = thetas[0]
    x = rng.normal(size=(rows, spec.input_dim))
    x *= rng.random(x.shape) < 0.9
    x[rng.random(rows) < 0.1] = x[0]
    return spec, thetas, ClientDataset(x, rng.integers(0, spec.num_classes, rows))


def edge_sizes(m: int):
    """Row counts at the block edges of a stack of m vectors."""
    block = _block_rows(m)
    return st.sampled_from([block - 1, block, block + 1, 2 * block, 2 * block + 1])


def assert_holdout_losses_equal_one_pass_each(case):
    """Ties, zero vectors, up to 12 classes and every block edge, which the
    federation oracle's holdouts do not reach."""
    spec, thetas, data = case
    got = holdout_losses(spec, thetas, data)
    alone = [reference_mean_ce(reference_logits(spec, theta, data.features), data.labels)
             for theta in thetas]
    assert same_bits(got, np.array(alone))


class TestHoldoutLosses:
    @settings(max_examples=150, deadline=None)
    @given(case=holdout_cases())
    def test_equals_one_unblocked_pass_per_vector(self, case):
        assert_holdout_losses_equal_one_pass_each(case)

    @pytest.mark.parametrize("n", [1, 2, GRID_BLOCK - 1, GRID_BLOCK, GRID_BLOCK + 1,
                                   2 * GRID_BLOCK, 2 * GRID_BLOCK + 1])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_block_edges(self, n, data):
        """The edges of a 9-point alpha grid's blocks."""
        assert_holdout_losses_equal_one_pass_each(
            data.draw(holdout_cases(st.just(n), st.just(9))))

    @settings(max_examples=40, deadline=None)
    @given(case=holdout_cases(edge_sizes))
    def test_block_edges_at_every_stack_height(self, case):
        """The block size falls as the stack grows; each height has edges."""
        assert_holdout_losses_equal_one_pass_each(case)

    def test_block_rows(self):
        """One budget sets the rows of a block from the stack height, and no
        block holds a lone row while there are two or more."""
        assert [_block_rows(m) for m in (1, 2, 3, 9, 4608, 10**6)] == [2048, 2048, 1536, 512, 4, 4]
        rows = _block_rows(10**6)
        for n in range(2, 5 * rows):
            blocks = -(-n // rows)
            assert np.diff(np.arange(blocks + 1) * n // blocks).min() >= 2, n

    def test_dimension_mismatch(self):
        data = make_blobs(2, 2, 20, 0.5, 3)
        for thetas in (starts(2)[:, :-1], starts(2)[0], starts(2)[None]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                holdout_losses(LOGISTIC_2D, thetas, data)


@st.composite
def evaluate_cases(draw, n=st.integers(1, 5000), activation=st.sampled_from(ACTIVATIONS)):
    """(spec, params, data): one model of hidden_dim 0-8 with the given
    activation and 2-12 classes on n rows. The rows at each of evaluate's
    block edges are 0 and the model's biases put a tie at the top of its
    output there, so argmax ties sit at the edges; the labels there are
    drawn, so the tie-break decides the hits."""
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 6)),
        hidden_dim=draw(st.integers(0, 8)),
        num_classes=draw(st.integers(2, 12)),
        activation=draw(activation),
    )
    rows = draw(n)
    rng = make_rng(draw(st.integers(0, 2**32)))
    theta = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 30.0])), size=param_count(spec))
    *hidden, _, bias = _unpack(spec, theta)
    if hidden:
        hidden[1][...] = 0.0  # a 0 row's activations are 0, so its logits are the output bias
    top = rng.choice(spec.num_classes, size=2, replace=False)
    bias[..., top] = bias.max() + 1.0
    blocks = -(-rows // VECTOR_BLOCK)
    bounds = np.arange(blocks + 1) * rows // blocks
    edges = np.unique(np.clip(np.concatenate([bounds - 1, bounds]), 0, rows - 1))
    x = rng.normal(size=(rows, spec.input_dim))
    x[edges] = 0.0
    y = rng.integers(0, spec.num_classes, rows)
    y[edges] = rng.choice(top, size=edges.size)
    return spec, ParamVector(theta), ClientDataset(x, y)


def assert_evaluate_equals_unblocked_reference(case):
    spec, params, data = case
    logits = reference_logits(spec, params.coords, data.features)
    want_acc = float(np.mean(np.argmax(logits, axis=1) == data.labels))
    want_loss = float(reference_mean_ce(logits, data.labels))
    perf = evaluate(spec, params, data)
    assert same_bits(perf.val_loss, want_loss) and same_bits(perf.val_accuracy, want_acc)


class TestEvaluate:
    @settings(max_examples=100, deadline=None)
    @given(case=evaluate_cases())
    def test_equals_unblocked_reference(self, case):
        """Loss and accuracy are bitwise those of one unblocked pass with
        numpy's argmax and mean, ties at the block edges included."""
        assert_evaluate_equals_unblocked_reference(case)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("n", [1, 2, VECTOR_BLOCK - 1, VECTOR_BLOCK, VECTOR_BLOCK + 1,
                                   2 * VECTOR_BLOCK + 1])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_block_edges(self, n, activation, data):
        assert_evaluate_equals_unblocked_reference(
            data.draw(evaluate_cases(st.just(n), st.just(activation))))

    def test_peak_is_bounded(self):
        """On 60,000 rows of 16 features, evaluate's peak above its start
        is its [n] cross-entropy row (0.48 MB) and one block's arrays; one
        unblocked pass took 11.4 MB."""
        spec = ModelSpec(input_dim=16, hidden_dim=16, num_classes=4)
        data = make_blobs(4, 16, 60_000, 0.7, 1)
        params = init_params(spec, 0)
        peak = traced(lambda: evaluate(spec, params, data))[2]
        assert peak < EVALUATE_PEAK_BOUND, f"peak {peak / 1e6:.2f} MB above the start"

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
        # frozen from a 50-digit evaluation of the mean of -ln softmax(x W + b)_y
        data = ClientDataset([[0.5, -1.0], [1.5, 0.25], [-0.75, 2.0]], [0, 1, 1])
        theta = np.array([0.3, -0.2, 1.1, 0.4, -0.6, 0.05])
        perf = evaluate(LOGISTIC_2D, ParamVector(theta), data)
        np.testing.assert_allclose(perf.val_loss, 1.0418430856482904, atol=1e-12)

    def test_metrics_validation(self):
        with pytest.raises(ValueError, match="val_accuracy"):
            PerformanceMetrics(0.1, 1.5)
        with pytest.raises(ValueError, match="finite"):
            PerformanceMetrics(float("nan"), 0.5)


class TestLocalLoss:
    def test_consistent_with_evaluate(self):
        # local_loss and evaluate score one vector in one blocked pass; its
        # three blocks here must not move the loss
        blocked = 2 * VECTOR_BLOCK + 1
        for hidden_dim, activation, rows in [(0, "relu", 40), (6, "relu", blocked),
                                             (6, "tanh", blocked)]:
            data = make_blobs(2, 3, rows, 0.7, 5)
            spec = ModelSpec(input_dim=3, hidden_dim=hidden_dim, num_classes=2,
                             activation=activation)
            params = init_params(spec, 1)
            loss = local_loss(spec, params, data)
            assert loss == evaluate(spec, params, data).val_loss, (hidden_dim, activation)

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
        """Stacked leading axes and exactly zero logits of either sign,
        which the federation oracle does not reach."""
        spec, theta, x, y = case
        a, logits = _forward(spec, _unpack(spec, theta), x)
        want = reference_logits(spec, theta, x)
        assert same_bits(logits, want)
        assert a is x if spec.hidden_dim == 0 else a.shape == x.shape[:-1] + (spec.hidden_dim,)
        ce = _cross_entropy(logits, (*np.indices(y.shape, sparse=True), y))
        assert same_bits(np.mean(ce, axis=-1), reference_mean_ce(want, y))

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

    @settings(max_examples=200, deadline=None)
    @given(
        lead=st.sampled_from([(), (1,), (5,), (2, 3), (3, 4)]),
        c=st.one_of(st.integers(1, 20), st.integers(1, 300)),
        seed=st.integers(0, 2**32),
    )
    # the edges of the fold (7), the pairs of pairs (8) and numpy's own sum (9);
    # at seed 1 one row at 8 columns moves if a pair is swapped
    @example(lead=(2, 3), c=7, seed=1)
    @example(lead=(2, 3), c=8, seed=1)
    @example(lead=(2, 3), c=9, seed=1)
    def test_row_sum_equals_numpy_sum_bitwise(self, lead, c, seed):
        # magnitudes 2^-60 to 2^60, so the order of the additions shows;
        # a twentieth of the entries are signed zeros or infinities; with
        # leading axes, one row is all -0.0, which numpy's 0.0 start sums to +0.0
        rng = make_rng(seed)
        z = rng.normal(size=lead + (c,)) * np.exp2(rng.integers(-60, 60, lead + (c,)))
        special = rng.random(z.shape) < 0.05
        z[special] = rng.choice([0.0, -0.0, math.inf, -math.inf], int(special.sum()))
        if lead:
            z[(0,) * len(lead)] = -0.0
        with np.errstate(invalid="ignore"):  # inf - inf
            assert same_bits(_row_sum(z), z.sum(axis=-1))

    def test_row_max_signed_zero_and_nan_sign(self):
        """numpy's reduction may return either zero of a row holding both,
        and a positive NaN for a row holding a sign-bit NaN; _row_max
        agrees in value, and the subtraction of the max and its sum with a
        log make the forward pass's outputs bitwise equal either way. The
        federation oracle reaches no such row."""
        rng = make_rng(5)
        specials = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -2.5])
        for c in (2, 3, 8, 9, 17):
            z = rng.choice(specials, size=(400, c))
            assert np.array_equal(_row_max(z), z.max(axis=-1), equal_nan=True)
            finite = rng.choice(specials[[0, 1, 6, 7]], size=(400, c))
            y = rng.integers(0, c, 400)
            shifted = np.exp(finite - finite.max(axis=-1, keepdims=True))
            assert same_bits(_shifted_exp(finite.copy())[1], shifted)
            ce = _cross_entropy(finite.copy(), (np.arange(400), y))
            assert same_bits(np.mean(ce), reference_mean_ce(finite, y))


@st.composite
def gradient_cases(draw):
    """(spec, theta, x, y, l2) for one stacked SGD step: hidden_dim
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
    y = rng.integers(0, spec.num_classes, (g, n))
    l2 = draw(st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    return spec, theta, x, y, l2


class TestGradientPass:
    @settings(max_examples=200, deadline=None)
    @given(case=gradient_cases())
    def test_equals_two_branch_reference_bitwise(self, case):
        """Each member's stacked gradient is bitwise testkit.reference_grad's
        on its batch alone, at dead relu units (pre-activations exactly 0)
        and parameters of scale 10, which the federations of
        test_run_rounds_equals_reference_federation do not reach."""
        spec, theta, x, y, l2 = case
        got = ce_grad_arrays(spec, theta, x, np.eye(spec.num_classes)[y], l2)
        want = [reference_grad(spec, *member, l2) for member in zip(theta, x, y)]
        assert same_bits(got, np.array(want))

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
