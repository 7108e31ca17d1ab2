"""Round-loop orchestration, comparison, and diagnostics tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    shares_data_setup,
)
from metafl.aggregator import MetaParams
from metafl.metafeatures import CompositeErrorConfig, composite_errors, extract
from metafl.models import (
    ACTIVATIONS, ClientError, ModelSpec, TrainConfig, init_params, local_loss, train_local,
)
from metafl.numerics import derive_seed
from testkit import as_clients, per_client, pooled, reference_clients, save_csv, segment


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
        cfg = small_config(
            partition=PartitionConfig(num_clients=1, seed=3),
            rounds=1,
            aggregator_mode="fedavg",
        )
        theta, history = run_experiment(cfg)
        clients, _ = build_federation(cfg)
        theta0 = init_params(cfg.spec, derive_seed(cfg.seed, 2))
        round_cfg = replace(cfg.train, seed=derive_seed(cfg.train.seed, 1))
        want = train_local(cfg.spec, theta0, segment(clients[0], 0), round_cfg)
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
        with np.errstate(over="ignore", invalid="ignore"):
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
        _, prev, thetas, pairs, _ = calls[0]
        assert prev is theta and pairs is clients
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
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="round 1, client 1: training diverged"):
                run_rounds(cfg, as_clients(pairs), global_val, init_params(cfg.spec, 0))

    def test_evaluation_failure_names_client(self):
        # client 2's logits overflow on its validation split alone
        cfg = small_config(partition=THREE_CLIENTS)
        clients, _ = build_federation(cfg)
        pairs = per_client(clients)
        train, val = pairs[2]
        pairs[2] = (train, ClientDataset(np.full_like(val.features, 1e308), val.labels))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match=r"^round 1, client 2: val_loss must be finite$"):
                collect_reports(cfg, as_clients(pairs), init_params(cfg.spec, 0), 1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_collect_reports_and_extract_name_the_same_client(monkeypatch, value):
    # cohort_losses gives client 1 the bad value (and client 2 another), so
    # both the validation losses and the data_complexity feature go bad
    losses = np.array([0.3, value, np.nan, -1.0])
    problem = "nonnegative" if np.isfinite(value) else "finite"
    monkeypatch.setattr(federation, "cohort_losses", lambda *args: losses)
    monkeypatch.setattr(metafeatures, "cohort_losses", lambda *args: losses)
    cfg = small_config(partition=PartitionConfig(num_clients=4, dirichlet_beta=5.0, seed=3))
    clients, _ = build_federation(cfg)
    theta = init_params(cfg.spec, 0)
    with pytest.raises(RuntimeError, match=f"^round 1, client 1: val_loss must be {problem}$"):
        collect_reports(cfg, clients, theta, 1)
    thetas = np.stack([theta.coords] * 4)
    with np.errstate(invalid="ignore"):
        with pytest.raises(ClientError, match=f"^meta-features must be {problem}$") as info:
            extract(cfg.spec, theta, thetas, clients, cfg.train)
    assert info.value.index == 1


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

    def test_rejects_negative_seed_and_nonfinite_log_h(self):
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)
        with pytest.raises(ValueError, match="log_h"):
            small_config(log_h=float("nan"))


@st.composite
def layouts(draw):
    """Small configs over a synthetic pool: K 1-12, any beta and
    val_fraction, a random set of noisy clients and noise rate, softmax or
    a small relu/tanh MLP, meta-features weighted."""
    k = draw(st.integers(1, 12))
    spec = ModelSpec(
        draw(st.integers(1, 4)), draw(st.sampled_from([0, 3])), draw(st.integers(2, 4)),
        draw(st.sampled_from(ACTIVATIONS)),
    )
    partition = PartitionConfig(
        num_clients=k,
        dirichlet_beta=draw(st.floats(0.05, 100.0)),
        val_fraction=draw(st.floats(0.05, 0.95)),
        noise_clients=frozenset(draw(st.sets(st.integers(0, k - 1)))),
        label_noise_rate=draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])),
        seed=draw(st.integers(0, 2**32)),
    )
    return small_config(
        spec=spec,
        partition=partition,
        train=TrainConfig(0.1, epochs=1, batch_size=draw(st.integers(1, 17)), seed=4),
        meta=MetaParams(alpha=1.0, c=WEIGHTED),
        data=DataConfig(n_samples=draw(st.integers(2 * k + 2, 160)), spread=0.5),
        seed=draw(st.integers(0, 2**16)),
    )


class TestPooledLayout:
    """The pooled sides against the per-client program they stand for."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=layouts())
    def test_segments_equal_per_client_set_up(self, cfg):
        try:
            want = reference_clients(cfg)
        except ValueError:
            with pytest.raises(ConfigError):
                build_federation(cfg)
            return
        clients, _ = build_federation(cfg)
        assert len(clients[0].n) == len(clients[1].n) == len(want)
        for got, pair in zip(per_client(clients), want):
            for part, ref in zip(got, pair):
                assert part.features.tobytes() == ref.features.tobytes()
                assert part.labels.tobytes() == ref.labels.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(cfg=layouts())
    def test_cohort_rows_equal_one_client_calls(self, cfg):
        try:
            clients, _ = build_federation(cfg)
        except ConfigError:
            return
        theta = init_params(cfg.spec, 5)
        cohort = collect_reports(cfg, clients, theta, 1)
        round_train = replace(cfg.train, seed=derive_seed(cfg.train.seed, 1))
        for k, (train, val) in enumerate(per_client(clients)):
            alone = train_local(cfg.spec, theta, train, round_train)
            assert cohort.thetas[k].tobytes() == alone.coords.tobytes()
            assert cohort.val_loss[k] == local_loss(cfg.spec, alone, val)
            row = extract(cfg.spec, theta, alone.coords[None], as_clients([(train, val)]), round_train)
            assert cohort.features[k].tobytes() == row[0].tobytes()
