"""Round-loop orchestration, comparison, and diagnostics tests."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metafl
from metafl import federation, metafeatures
from metafl.datagen import ClientDataset, ConfigError, PartitionConfig, make_blobs
from metafl.federation import (
    Cohort,
    DataConfig,
    ExperimentConfig,
    build_federation,
    collect_reports,
    compare_runs,
    kl_divergence_diagnostic,
    rounds_to_target,
    run_experiment,
    run_rounds,
    set_up,
    shares_data_setup,
)
from metafl.aggregator import AGGREGATOR_MODES, MetaParams, aggregate, fedavg_weights
from metafl.metafeatures import CompositeErrorConfig, composite_errors, extract
from metafl.models import (
    ACTIVATIONS, ClientError, ModelSpec, TrainConfig, holdout_losses, init_params, local_loss,
    train_cohort, train_local,
)
from metafl.numerics import derive_seed, softmax_neg
from testkit import (
    SETUP_PEAK_BOUND, as_clients, kept_bytes, per_client, pooled, reference_clients,
    reference_federation, save_csv, traced, wide_cohort_config,
)


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        spec=ModelSpec(input_dim=2, hidden_dim=0, num_classes=2),
        partition=PartitionConfig(num_clients=2, dirichlet_beta=5.0, seed=3),
        train=TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=4),
        meta=MetaParams(alpha=1.0),
        data=DataConfig(n_samples=120, spread=0.5),
        rounds=2,
        aggregator_mode="metafl_closed",
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_client_fedavg_is_local_training(self):
        """Against the library's train_local, which the federation oracle
        does not call."""
        cfg = small_config(
            partition=PartitionConfig(num_clients=1, seed=3), rounds=1, aggregator_mode="fedavg",
        )
        theta, history = run_experiment(cfg)
        clients, _ = build_federation(cfg)
        theta0 = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        round_cfg = replace(cfg.train, seed=derive_seed(cfg.train.seed, 1))
        want = train_local(cfg.spec, theta0, per_client(clients)[0][0], round_cfg)
        np.testing.assert_array_equal(theta.coords, want.coords)
        np.testing.assert_array_equal(history[0].weights.weights, [1.0])

    def test_alpha_zero_gives_uniform_weights(self):
        cfg = small_config(
            partition=PartitionConfig(num_clients=4, dirichlet_beta=5.0, seed=3),
            meta=MetaParams(alpha=0.0),
            rounds=3,
        )
        _, history = run_experiment(cfg)
        for rec in history:
            np.testing.assert_array_equal(rec.weights.weights, [0.25] * 4)

    def test_history_shape_and_order(self):
        cfg = small_config(rounds=4)
        theta, history = run_experiment(cfg)
        assert len(history) == 4
        assert [rec.round for rec in history] == [1, 2, 3, 4]
        assert theta.dim == 2 * 2 + 2
        for rec in history:
            assert len(rec.per_client_val_loss) == 2
            assert np.isfinite(rec.global_val_loss)
            assert rec.wall_ms >= 0

    def test_deterministic_history(self):
        cfg = small_config(rounds=3, alpha_grid=(0.0, 1.0, 5.0))
        theta_a, hist_a = run_experiment(cfg)
        theta_b, hist_b = run_experiment(cfg)
        np.testing.assert_array_equal(theta_a.coords, theta_b.coords)
        for ra, rb in zip(hist_a, hist_b):
            assert ra.alpha_used == rb.alpha_used
            assert ra.global_val_loss == rb.global_val_loss
            assert ra.global_val_accuracy == rb.global_val_accuracy
            assert ra.per_client_val_loss == rb.per_client_val_loss
            assert ra.phi_value == rb.phi_value
            np.testing.assert_array_equal(ra.weights.weights, rb.weights.weights)

    def test_adaptation_changes_alpha_used(self):
        cfg = small_config(rounds=2, alpha_grid=(0.0, 1.0, 5.0))
        _, history = run_experiment(cfg)
        for rec in history:
            assert rec.alpha_used in (0.0, 1.0, 5.0)

    def test_identical_clients_agree_across_modes(self):
        data = make_blobs(2, 2, 80, 0.5, 21)
        train = data.subset(np.arange(60))
        val = data.subset(np.arange(60, 80))
        clients = as_clients([(train, val)] * 3)
        finals = []
        for mode in ("metafl_closed", "metafl_mirror", "metafl_projected", "fedavg"):
            cfg = small_config(
                partition=PartitionConfig(num_clients=3, seed=3),
                rounds=2,
                aggregator_mode=mode,
            )
            theta0 = init_params(cfg.spec, 7)
            theta, history = run_rounds(cfg, clients, val, theta0)
            finals.append(theta.coords)
            for rec in history:
                np.testing.assert_array_equal(rec.weights.weights, [1 / 3] * 3)
        for coords in finals[1:]:
            np.testing.assert_array_equal(coords, finals[0])

    def test_client_error_carries_round_context(self):
        cfg = small_config()
        good = make_blobs(2, 2, 40, 0.5, 1)
        bad = ClientDataset(np.full_like(good.features, 1e308), good.labels)  # logits overflow
        with pytest.raises(RuntimeError, match="round 1, client 0"):
            run_rounds(cfg, as_clients([(good, bad)]), good, init_params(cfg.spec, 0))


WEIGHTED = CompositeErrorConfig(c=(0.0, 0.1, 0.05, 0.1, 0.05))
THREE_CLIENTS = PartitionConfig(num_clients=3, dirichlet_beta=5.0, seed=3)


class TestCollectReports:
    @pytest.mark.parametrize(
        "mode, meta",
        [("fedavg", MetaParams(alpha=1.0, c=WEIGHTED)), ("metafl_closed", MetaParams(alpha=1.0))],
    )
    def test_unweighted_features_not_extracted(self, monkeypatch, mode, meta):
        def refuse(*args):
            raise AssertionError("extract called")

        monkeypatch.setattr(federation, "extract", refuse)
        cfg = small_config(aggregator_mode=mode, meta=meta, partition=THREE_CLIENTS)
        clients, _ = build_federation(cfg)
        theta = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        cohort = collect_reports(cfg, clients, theta, 1)
        assert cohort.thetas.shape == (3, theta.dim)
        assert cohort.features is None

    def test_meta_features_failure_names_its_phase(self, monkeypatch):
        def diverge(*args):
            raise ClientError(2, "training diverged to non-finite parameters in epoch 1")

        monkeypatch.setattr(federation, "extract", diverge)
        cfg = small_config(meta=MetaParams(alpha=1.0, c=WEIGHTED), partition=THREE_CLIENTS)
        clients, _ = build_federation(cfg)
        message = ("^round 3, client 2: meta-features: training diverged to non-finite parameters "
                   "in epoch 1$")
        with pytest.raises(RuntimeError, match=message):
            collect_reports(cfg, clients, init_params(cfg.spec, 0), 3)

    def test_weighted_features_extracted_once_per_round(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(federation, "extract", counting)
        cfg = small_config(meta=MetaParams(alpha=1.0, c=WEIGHTED), partition=THREE_CLIENTS)
        clients, _ = build_federation(cfg)
        theta = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        cohort = collect_reports(cfg, clients, theta, 1)
        assert len(calls) == 1
        _, prev, thetas, pairs, _, c = calls[0]
        assert prev is theta and pairs is clients and c == WEIGHTED.c
        np.testing.assert_array_equal(thetas, cohort.thetas)
        assert cohort.features.shape == (3, 5)
        run_experiment(cfg)
        assert len(calls) == 1 + cfg.rounds

    def test_failure_names_diverging_client(self):
        cfg = small_config(partition=THREE_CLIENTS)
        clients, global_val = build_federation(cfg)
        pairs = per_client(clients)
        train, val = pairs[1]
        pairs[1] = (ClientDataset(train.features * 1e160, train.labels), val)
        message = "^round 1, client 1: training diverged to non-finite parameters in epoch 1$"
        with pytest.raises(RuntimeError, match=message):
            run_rounds(cfg, as_clients(pairs), global_val, init_params(cfg.spec, 0))

    def test_evaluation_failure_names_client(self):
        # client 2's logits overflow on its validation split alone
        cfg = small_config(partition=THREE_CLIENTS)
        clients, _ = build_federation(cfg)
        pairs = per_client(clients)
        train, val = pairs[2]
        pairs[2] = (train, ClientDataset(np.full_like(val.features, 1e308), val.labels))
        with pytest.raises(RuntimeError, match=r"^round 1, client 2: val_loss must be finite$"):
            collect_reports(cfg, as_clients(pairs), init_params(cfg.spec, 0), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_collect_reports_and_extract_name_the_same_client(monkeypatch, value):
    # cohort_losses gives client 1 the bad value (and client 2 another), in
    # each copy of the cohort it scores, so both the validation losses and
    # the data_complexity feature go bad
    losses = np.array([0.3, value, np.nan, -1.0])
    problem = "nonnegative" if np.isfinite(value) else "finite"

    def scores(spec, thetas, side):
        return np.resize(losses, len(thetas))

    monkeypatch.setattr(federation, "cohort_losses", scores)
    monkeypatch.setattr(metafeatures, "cohort_losses", scores)
    cfg = small_config(partition=PartitionConfig(num_clients=4, dirichlet_beta=5.0, seed=3))
    clients, _ = build_federation(cfg)
    theta = init_params(cfg.spec, 0)
    with pytest.raises(RuntimeError, match=f"^round 1, client 1: val_loss must be {problem}$"):
        collect_reports(cfg, clients, theta, 1)
    thetas = np.stack([theta.coords] * 4)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ClientError, match=f"^meta-features must be {problem}$") as info:
            extract(cfg.spec, theta, thetas, clients, cfg.train, WEIGHTED.c)
    assert info.value.index == 1


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("c, members", [
    ((1.0, 0.0, 0.0, 0.0, 0.0), [3]),
    ((0.0, 1.0, 0.0, 0.0, 0.0), [3]),
    ((0.0, 0.0, 1.0, 0.0, 0.0), [3]),
    ((0.0, 0.0, 0.0, 1.0, 0.0), [3, 3]),  # the round, then the probe
    ((0.0, 0.0, 0.0, 0.0, 1.0), [3, 6]),  # the round, then both extra epochs at once
])
def test_extract_trains_only_for_weighted_columns(monkeypatch, c, members, normalize):
    """Each round's train_cohort calls, by member count; the unweighted
    columns are 0, and E is bitwise that of the full feature matrix."""
    calls = []

    def counting(spec, starts, *args):
        calls.append(len(starts))
        return train_cohort(spec, starts, *args)

    monkeypatch.setattr(federation, "train_cohort", counting)
    monkeypatch.setattr(metafeatures, "train_cohort", counting)
    coeffs = CompositeErrorConfig(c=c, normalize=normalize)
    cfg = small_config(meta=MetaParams(alpha=1.0, c=coeffs), partition=THREE_CLIENTS)
    clients, _ = build_federation(cfg)
    theta = init_params(cfg.spec, derive_seed(cfg.seed, 2))
    for t in (1, 2):
        calls.clear()
        cohort = collect_reports(cfg, clients, theta, t)
        assert calls == members
        round_train = replace(cfg.train, seed=derive_seed(cfg.train.seed, t))
        full = extract(cfg.spec, theta, cohort.thetas, clients, round_train, (1.0,) * 5)
        weighted = np.array(c) != 0.0
        assert cohort.features[:, weighted].tobytes() == full[:, weighted].tobytes()
        assert not cohort.features[:, ~weighted].any()
        errors = composite_errors(cohort.val_loss, cohort.features, coeffs)
        assert errors.tobytes() == composite_errors(cohort.val_loss, full, coeffs).tobytes()
        theta = aggregate(cohort.thetas, fedavg_weights(clients[0].n), 0.0)


class TestCohort:
    def test_validation(self):
        thetas, loss = np.zeros((2, 3)), np.array([0.1, 0.2])
        with pytest.raises(ValueError, match=r"val_loss \[K\]"):
            Cohort(thetas, loss[:1])
        with pytest.raises(ValueError, match=r"val_loss \[K\]"):
            Cohort(thetas, loss[:, None])
        with pytest.raises(ValueError, match="K >= 1"):
            Cohort(np.zeros((0, 3)), loss[:0])
        with pytest.raises(ValueError, match="K >= 1"):
            Cohort(np.zeros(3), loss)

    def test_fields_are_read_only_views(self):
        thetas = np.zeros((2, 3))
        cohort = Cohort(thetas, np.array([0.1, 0.2]), np.zeros((2, 5)))
        for arr in (cohort.thetas, cohort.val_loss, cohort.features):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        thetas[0, 0] = 1.0  # the caller's array stays writable
        assert cohort.thetas[0, 0] == 1.0


class TestRunRounds:
    def test_composite_errors_once_per_round(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return composite_errors(*args)

        monkeypatch.setattr(federation, "composite_errors", counting)
        cfg = small_config(
            rounds=3,
            alpha_grid=(0.0, 1.0, 5.0),
            meta=MetaParams(alpha=1.0, c=WEIGHTED),
            partition=THREE_CLIENTS,
        )
        _, history = run_experiment(cfg)
        assert len(calls) == cfg.rounds
        for (losses, features, c), rec in zip(calls, history):
            assert tuple(losses) == rec.per_client_val_loss
            assert features.shape == (3, 5) and c == cfg.meta.c

    def test_closed_server_loss_is_the_winning_grid_loss(self, monkeypatch):
        # the round's server loss, from evaluate's unblocked pass, equals
        # bitwise the winner's loss in the search's blocked pass over a
        # holdout of two blocks
        searches = []

        def recording(mp, grid, thetas, errors, spec, global_val):
            won = federation_adapt(mp, grid, thetas, errors, spec, global_val)
            aggregates = [aggregate(thetas, softmax_neg(errors, a), mp.lam).coords for a in grid]
            losses = holdout_losses(spec, np.stack(aggregates), global_val)
            searches.append(losses[list(grid).index(won.alpha)])
            return won

        federation_adapt = federation.adapt_meta_params
        monkeypatch.setattr(federation, "adapt_meta_params", recording)
        cfg = small_config(
            spec=ModelSpec(input_dim=2, hidden_dim=3, num_classes=3, activation="tanh"),
            data=DataConfig(n_samples=3000, spread=0.5, global_val_fraction=0.25),
            meta=MetaParams(alpha=1.0, lam=0.1),
            alpha_grid=(0.0, 0.5, 2.0, 8.0),
            partition=THREE_CLIENTS,
            rounds=3,
        )
        _, history = run_experiment(cfg)
        assert len(searches) == cfg.rounds
        for loss, rec in zip(searches, history):
            assert rec.global_val_loss == loss

    def test_records_carry_solver_iterations_and_residual(self):
        mp = MetaParams(alpha=4.0, max_iters=2)
        _, projected = run_experiment(small_config(aggregator_mode="metafl_projected", meta=mp))
        _, closed = run_experiment(small_config(meta=mp))
        for rec in projected:
            assert rec.solver_iters == 2 and rec.solver_residual >= mp.tol
        for rec in closed:
            assert (rec.solver_iters, rec.solver_residual) == (0, 0.0)


class TestBuildFederation:
    def test_holdout_plus_clients_cover_pool(self):
        cfg = small_config()
        clients, global_val = build_federation(cfg)
        assert [side.data.n for side in clients] == [side.n.sum() for side in clients]
        total = global_val.n + sum(side.data.n for side in clients)
        assert total == cfg.data.n_samples
        assert global_val.n == round(cfg.data.global_val_fraction * cfg.data.n_samples)

    def test_label_noise_touches_only_marked_train_splits(self):
        quiet = small_config(
            partition=PartitionConfig(num_clients=2, dirichlet_beta=5.0, seed=3)
        )
        noisy = small_config(
            partition=PartitionConfig(
                num_clients=2,
                dirichlet_beta=5.0,
                seed=3,
                noise_clients=frozenset({0}),
                label_noise_rate=0.4,
            )
        )
        (quiet_train, quiet_val), _ = build_federation(quiet)
        (noisy_train, noisy_val), _ = build_federation(noisy)
        np.testing.assert_array_equal(quiet_train.n, noisy_train.n)
        np.testing.assert_array_equal(quiet_train.data.features, noisy_train.data.features)
        flipped = np.flatnonzero(quiet_train.data.labels != noisy_train.data.labels)
        assert flipped.size == round(0.4 * quiet_train.n[0])
        assert flipped.max() < quiet_train.n[0]  # client 0's segment comes first
        np.testing.assert_array_equal(quiet_val.data.labels, noisy_val.data.labels)

    def test_csv_source(self, tmp_path):
        data = make_blobs(2, 2, 60, 0.5, 9)
        path = tmp_path / "pool.csv"
        save_csv(data, str(path))
        cfg = small_config(data=DataConfig(n_samples=60, spread=0.5, csv_path=str(path)))
        clients, global_val = build_federation(cfg)
        assert global_val.n + sum(side.data.n for side in clients) == 60

    def test_csv_dim_mismatch(self, tmp_path):
        data = make_blobs(2, 3, 60, 0.5, 9)
        path = tmp_path / "pool.csv"
        save_csv(data, str(path))
        cfg = small_config(data=DataConfig(csv_path=str(path)))
        with pytest.raises(ValueError, match="input_dim"):
            build_federation(cfg)


class TestSetUpMemory:
    """set_up's tracemalloc peak stays within SETUP_PEAK_BOUND of the bytes
    it returns, at wide_cohort's shapes (K = 300, 30,000 samples of 16
    features), and it holds nothing beside them."""

    # 30,000 rows of 16 features and a label, both sides' 300 counts and the
    # 340 parameters: what set_up kept before the pool was drawn into its splits
    KEPT_BYTES = 30_000 * (16 + 1) * 8 + 2 * 300 * 8 + 340 * 8
    # set_up's own Python objects; a view that pinned the pool would add 3.84 MB
    HELD_SLACK = 64 * 1024

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_peak_within_bound_of_kept_bytes(self, tmp_path, source):
        data = {}
        if source == "csv":
            data["csv_path"] = str(tmp_path / "pool.csv")
            save_csv(make_blobs(4, 16, 30_000, 0.7, 1), data["csv_path"])
        cfg = wide_cohort_config(300, **data)
        set_up(cfg)  # the first call also pays one-off imports
        fed, held, peak = traced(lambda: set_up(cfg))
        kept = kept_bytes(fed)
        assert kept == self.KEPT_BYTES
        assert held - kept <= self.HELD_SLACK, f"{held - kept} bytes held beside the kept ones"
        bound = SETUP_PEAK_BOUND[source]
        assert peak <= bound * kept, f"peak {peak / kept:.2f} times the kept bytes"


class TestCompareRuns:
    def test_builds_federation_once(self, monkeypatch):
        calls = []
        original = federation.build_federation
        monkeypatch.setattr(
            federation, "build_federation", lambda cfg: calls.append(cfg) or original(cfg)
        )
        cfg = small_config()
        compare_runs(cfg, replace(cfg, aggregator_mode="fedavg"))
        assert len(calls) == 1

    def test_identical_configs_zero_diffs(self):
        cfg = small_config(rounds=3)
        summary = compare_runs(cfg, cfg)
        for _, loss_a, acc_a, loss_b, acc_b in summary.rows:
            assert loss_a == loss_b and acc_a == acc_b
        assert summary.terminal_accuracy_diff == 0.0
        assert summary.mean_accuracy_diff == 0.0

    def test_mode_difference_allowed(self):
        cfg_a = small_config(rounds=2, aggregator_mode="metafl_closed")
        cfg_b = small_config(rounds=2, aggregator_mode="fedavg")
        assert shares_data_setup(cfg_a, cfg_b)
        summary = compare_runs(cfg_a, cfg_b)
        assert len(summary.rows) == 2

    def test_mismatched_setup_rejected(self):
        cfg_a = small_config(seed=1)
        cfg_b = small_config(seed=2)
        with pytest.raises(ValueError, match="share data setup"):
            compare_runs(cfg_a, cfg_b)

    def test_target_is_baseline_terminal(self):
        cfg_a = small_config(rounds=3)
        summary = compare_runs(cfg_a, replace(cfg_a, aggregator_mode="fedavg"))
        assert summary.target_accuracy == summary.terminal_accuracy_b
        # run b reaches its own terminal accuracy by definition
        assert summary.rounds_to_target_b is not None
        if summary.rounds_to_target_a is not None:
            round_a = summary.rounds_to_target_a
            assert summary.rows[round_a - 1][2] >= summary.target_accuracy


class TestRoundsToTarget:
    def test_first_round_reaching(self):
        _, history = run_experiment(small_config(rounds=3))
        accs = [rec.global_val_accuracy for rec in history]
        assert rounds_to_target(history, min(accs)) == 1
        assert rounds_to_target(history, max(accs)) == accs.index(max(accs)) + 1
        assert rounds_to_target(history, 1.5) is None


class TestKlDiagnostic:
    def test_identical_distributions(self):
        a = ClientDataset([[0.0]] * 4, [0, 0, 1, 1])
        b = ClientDataset([[0.0]] * 8, [0, 1, 0, 1, 0, 1, 0, 1])
        assert kl_divergence_diagnostic(pooled([a, b]), 2) == 0.0

    def test_single_client(self):
        a = ClientDataset([[0.0]] * 4, [0, 1, 1, 1])
        assert kl_divergence_diagnostic(pooled([a]), 2) == 0.0

    def test_disjoint_supports(self):
        a = ClientDataset([[0.0]] * 4, [0, 0, 0, 0])
        b = ClientDataset([[0.0]] * 4, [1, 1, 1, 1])
        np.testing.assert_allclose(
            kl_divergence_diagnostic(pooled([a, b]), 2), math.log(2), atol=1e-12
        )


class TestExperimentConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="aggregator must be one of .* got 'median'"):
            small_config(aggregator_mode="median")

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError, match="rounds"):
            small_config(rounds=0)

    @pytest.mark.parametrize("mode, grid, searches", [
        ("metafl_closed", (0.0, 1.0), True), ("metafl_projected", (0.0, 1.0), True),
        ("metafl_mirror", (0.0, 1.0), True), ("metafl_closed", (), False),
        ("fedavg", (0.0, 1.0), False),
    ])
    def test_searches_alpha(self, mode, grid, searches):
        assert small_config(aggregator_mode=mode, alpha_grid=grid).searches_alpha is searches

    @pytest.mark.parametrize("mode", ["metafl_closed", "fedavg"])
    def test_rejects_one_entry_grid(self, mode):
        # one entry would never be searched; the alpha belongs in meta.alpha
        with pytest.raises(ValueError, match="alpha_grid.*meta.alpha"):
            small_config(aggregator_mode=mode, alpha_grid=(1.0,))

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError, match="alpha_grid"):
            small_config(alpha_grid=(-1.0,))
        with pytest.raises(ValueError, match="alpha_grid"):
            small_config(alpha_grid=(0.0, 5e-324))

    @pytest.mark.parametrize("mode", ["metafl_mirror", "metafl_projected"])
    def test_rejects_zero_eta_in_iterative_modes(self, mode):
        # a zero step would report the uniform start as a converged solve
        with pytest.raises(ValueError, match=f"meta.eta must be > 0 for aggregator {mode}"):
            small_config(aggregator_mode=mode, meta=MetaParams(alpha=5.0, eta=0.0))

    @pytest.mark.parametrize("mode", ["metafl_closed", "fedavg"])
    def test_zero_eta_allowed_without_iterative_solve(self, mode):
        cfg = small_config(aggregator_mode=mode, meta=MetaParams(alpha=5.0, eta=0.0))
        assert cfg.meta.eta == 0.0

    @pytest.mark.parametrize("overrides, message", [
        (dict(meta=MetaParams(alpha=1e-300, eta=1e10)), r"meta\.eta \* tau must be finite"),
        (dict(alpha_grid=(0.0, 1e-300), meta=MetaParams(eta=1e10)), r"meta\.eta \* tau"),
        (dict(log_h=1.7e308), r"diagnostics\.log_h \* 2 must be finite"),
    ])
    def test_rejects_what_a_json_output_cannot_hold(self, overrides, message):
        # contraction_estimate's eta * tau and generalization_bound's 2 * log_h
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)

    def test_rejects_negative_seed_and_nonfinite_log_h(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)
        with pytest.raises(ValueError, match="log_h"):
            small_config(log_h=float("nan"))


@st.composite
def federations(draw):
    """Small synthetic configs: K 1-12, ragged splits, noisy clients; batch 1,
    2-17 or beyond any split; epochs 0-3; softmax or a relu/tanh MLP of 1-8
    units; l2 0 or not; every mode, with or without a grid (unsorted, with
    repeats); meta.c zero or not, normalized or not."""
    def pick(*values):
        return draw(st.sampled_from(values))

    k, noisy = draw(st.integers(1, 12)), draw(st.integers(0, 2**12 - 1))
    return small_config(
        spec=ModelSpec(draw(st.integers(1, 4)), draw(st.one_of(st.just(0), st.integers(1, 8))),
                       draw(st.integers(2, 4)), pick(*ACTIVATIONS)),
        partition=PartitionConfig(
            num_clients=k, dirichlet_beta=pick(0.1, 0.5, 1.0, 5.0, 100.0),
            val_fraction=pick(0.1, 0.3, 0.5, 0.9), label_noise_rate=pick(0.0, 0.2, 0.5, 0.9),
            noise_clients=frozenset(i for i in range(k) if noisy >> i & 1),
            seed=draw(st.integers(0, 2**32)),
        ),
        train=TrainConfig(
            learning_rate=pick(0.01, 0.1, 0.5), epochs=draw(st.integers(0, 3)),
            batch_size=draw(st.one_of(st.just(1), st.integers(2, 17), st.just(1000))),
            seed=draw(st.integers(0, 2**32)), l2=pick(0.0, 0.01),
        ),
        meta=MetaParams(
            alpha=pick(0.0, 0.5, 1.0, 8.0), lam=pick(0.0, 0.25), eta=pick(0.05, 0.5),
            max_iters=draw(st.integers(1, 60)),
            c=CompositeErrorConfig(
                pick((0.0,) * 5, WEIGHTED.c, (1.0, -0.5, 0.1, 1.0, -0.5), (0.0,) * 4 + (1.0,)),
                draw(st.booleans()),
            ),
        ),
        data=DataConfig(draw(st.integers(4 * k + 4, 160)),
                        global_val_fraction=pick(0.05, 0.2, 0.5)),
        rounds=draw(st.integers(1, 2)),
        aggregator_mode=pick(*AGGREGATOR_MODES),
        alpha_grid=pick((), (0.0, 0.5, 2.0), (8.0, 0.5), (32.0, 0.0, 2.0, 2.0)),
        seed=draw(st.integers(0, 2**16)),
    )


class TestPooledLayout:
    """The pooled sides against the per-client program they stand for, on
    the oracle's configs: rows a run never reads, such as a train split at
    0 epochs, and the library's one-client calls, which the oracle does not
    make."""

    @settings(max_examples=80, deadline=None)
    @given(cfg=federations(), csv_spread=st.sampled_from([None, None, 1e-3, 0.5, 1e3]))
    def test_segments_equal_per_client_set_up(self, tmp_path_factory, cfg, csv_spread):
        """With csv_spread, the pool is a CSV file of that spread: the one-call
        parse's view of it against the row-by-row reader's dataset."""
        if csv_spread is not None:
            spec, path = cfg.spec, tmp_path_factory.getbasetemp() / "pool.csv"
            save_csv(make_blobs(spec.num_classes, spec.input_dim, cfg.data.n_samples, csv_spread,
                                cfg.seed), str(path))
            cfg = replace(cfg, data=replace(cfg.data, csv_path=str(path)))
        try:
            want, want_holdout = reference_clients(cfg)
        except ValueError:
            with pytest.raises(ConfigError):
                build_federation(cfg)
            return
        clients, holdout = build_federation(cfg)
        assert len(clients[0].n) == len(clients[1].n) == len(want)
        for got, pair in zip(per_client(clients) + [(holdout,)], want + [(want_holdout,)]):
            for part, ref in zip(got, pair):
                assert part.features.tobytes() == ref.features.tobytes()
                assert part.labels.tobytes() == ref.labels.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(cfg=federations())
    def test_cohort_rows_equal_one_client_calls(self, cfg):
        try:
            clients, _ = build_federation(cfg)
        except ConfigError:
            return
        cfg = replace(cfg, aggregator_mode="metafl_closed", meta=replace(cfg.meta, c=WEIGHTED))
        theta = init_params(cfg.spec, 5)
        cohort = collect_reports(cfg, clients, theta, 1)
        round_train = replace(cfg.train, seed=derive_seed(cfg.train.seed, 1))
        for k, (train, val) in enumerate(per_client(clients)):
            alone = train_local(cfg.spec, theta, train, round_train)
            assert cohort.thetas[k].tobytes() == alone.coords.tobytes()
            assert cohort.val_loss[k] == local_loss(cfg.spec, alone, val)
            row = extract(cfg.spec, theta, alone.coords[None], as_clients([(train, val)]),
                          round_train, WEIGHTED.c)
            assert cohort.features[k].tobytes() == row[0].tobytes()


def record_bits(rec) -> dict:
    """Every field of a RoundRecord but wall_ms, as its bytes."""
    return {name: np.asarray(getattr(value, "weights", value)).tobytes()
            for name, value in vars(rec).items() if name != "wall_ms"}


@settings(max_examples=120, deadline=None)
@given(cfg=federations())
@example(cfg=small_config(  # a 550-row holdout, one block for a 3-point grid
    spec=ModelSpec(2, 3, 3, "tanh"), partition=THREE_CLIENTS, rounds=1,
    meta=MetaParams(alpha=1.0, lam=0.1, c=WEIGHTED), alpha_grid=(0.0, 1.0, 4.0),
    data=DataConfig(n_samples=1100, global_val_fraction=0.5),
))
@example(cfg=small_config(  # a 2100-row holdout: two blocks for the grid and for evaluate
    spec=ModelSpec(2, 3, 3, "relu"), partition=THREE_CLIENTS, rounds=1,
    meta=MetaParams(alpha=1.0, lam=0.1, c=WEIGHTED), alpha_grid=(0.0, 1.0, 4.0),
    data=DataConfig(n_samples=4200, global_val_fraction=0.5),
))
@example(cfg=small_config(  # 0 epochs: train_cohort returned its starts in F order
    spec=ModelSpec(1, 1, 3, "tanh"), partition=PartitionConfig(3, val_fraction=0.5, seed=2),
    train=TrainConfig(0.5, epochs=0, batch_size=1), aggregator_mode="fedavg", rounds=1,
    data=DataConfig(n_samples=28, global_val_fraction=0.5), seed=1,
))
def test_run_rounds_equals_reference_federation(cfg):
    """Every RoundRecord field but wall_ms, and the final parameters,
    are bitwise testkit.reference_federation's; a config whose set-up
    fails there is a ConfigError here."""
    try:
        fed = set_up(cfg)
    except ConfigError:
        with pytest.raises(ValueError):
            reference_federation(cfg)
        return
    theta, history = run_rounds(cfg, *fed)
    want_theta, want = reference_federation(cfg)
    assert [record_bits(rec) for rec in history] == [record_bits(rec) for rec in want]
    assert theta.coords.tobytes() == want_theta.coords.tobytes()


def test_readme_library_example_runs():
    """README's python block runs as written in a fresh interpreter and
    prints one accuracy, so the names it imports stay exported."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    path = [str(Path(metafl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    assert 0.0 <= float(line) <= 1.0
