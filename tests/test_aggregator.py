"""Weight solvers, aggregation, adaptation, and theory-diagnostic tests."""

import math

import numpy as np
import pytest

from metafl.aggregator import (
    ClientReport,
    MetaParams,
    _mirror_step,
    adapt_meta_params,
    aggregate,
    contraction_estimate,
    fedavg_weights,
    generalization_bound,
    jensen_gap,
    meta_agg,
    phi_gradient,
    phi_objective,
    weights_closed_form,
    weights_iterative,
)
from metafl.datagen import inject_label_noise, make_blobs
from metafl.metafeatures import MetaFeatures
from metafl.models import (
    ModelSpec,
    PerformanceMetrics,
    TrainConfig,
    init_params,
    local_loss,
    train_local,
)
from metafl.numerics import ParamVector, WeightVector, finite_diff_grad, make_rng


def report(cid, coords, val_loss, n_k, entropy=0.5):
    return ClientReport(
        client_id=cid,
        theta_k=ParamVector(coords),
        perf=PerformanceMetrics(val_loss, 0.5),
        meta=MetaFeatures(
            dataset_size=n_k,
            label_entropy=entropy,
            update_norm=0.0,
            data_complexity=0.0,
            lr_sensitivity=0.0,
        ),
        n_k=n_k,
    )


class TestClosedForm:
    def test_equal_errors_uniform(self):
        w = weights_closed_form([0.2, 0.2, 0.2], 7.0)
        np.testing.assert_array_equal(w.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_sharp_limit(self):
        w = weights_closed_form([0.1, 0.9], 1e3)
        assert w.weights[0] >= 0.99

    def test_two_point_value(self):
        w = weights_closed_form([0.1, 0.5], 1.0)
        np.testing.assert_allclose(
            w.weights, [0.598687660112452, 0.401312339887548], atol=1e-6
        )


class TestPhi:
    def test_one_hot_gives_bare_error(self):
        w = WeightVector([0.0, 1.0, 0.0])
        assert phi_objective(w, [0.3, 0.7, 0.9], 2.0) == 0.7

    def test_pure_entropy_term(self):
        w = WeightVector([0.5, 0.5])
        np.testing.assert_allclose(
            phi_objective(w, [0.0, 0.0], 1.0), math.log(0.5), atol=1e-15
        )

    def test_hand_value(self):
        # frozen from a 50-digit evaluation of 0.26 + 0.5*(0.6 ln 0.6 + 0.4 ln 0.4)
        w = WeightVector([0.6, 0.4])
        np.testing.assert_allclose(
            phi_objective(w, [0.1, 0.5], 0.5), -0.07650583350462822, atol=1e-6
        )

    def test_gradient_uniform_value(self):
        w = WeightVector([0.5, 0.5])
        grad = phi_gradient(w, [0.0, 0.0], 1.0)
        np.testing.assert_allclose(grad, [0.3068528194400547] * 2, atol=1e-12)
        fd = finite_diff_grad(
            lambda x: x @ np.array([0.0, 0.0]) + 1.0 * np.sum(x * np.log(x)),
            w.weights,
            1e-6,
        )
        np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_gradient_tau_zero_is_errors(self):
        w = WeightVector([0.3, 0.7])
        np.testing.assert_array_equal(phi_gradient(w, [0.4, 0.9], 0.0), [0.4, 0.9])

    def test_gradient_symmetry(self):
        w = WeightVector([0.25] * 4)
        grad = phi_gradient(w, [0.6] * 4, 1.3)
        assert np.all(grad == grad[0])

    def test_gradient_boundary_error(self):
        with pytest.raises(ValueError, match="boundary gradient undefined"):
            phi_gradient(WeightVector([1.0, 0.0]), [0.1, 0.2], 1.0)

    def test_gradient_matches_finite_difference_random(self):
        rng = make_rng(47)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            w = WeightVector(rng.dirichlet(np.full(k, 5.0)))
            e = rng.uniform(0, 1, size=k)
            tau = float(rng.uniform(0.1, 3.0))
            grad = phi_gradient(w, e, tau)
            fd = finite_diff_grad(
                lambda x: float(x @ e + tau * np.sum(x * np.log(x))), w.weights, 1e-7
            )
            denom = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(grad - fd) / denom) < 1e-5


class TestIterativeSolvers:
    def test_singleton(self):
        w, iters, residual = weights_iterative([0.4], MetaParams(alpha=1.0))
        np.testing.assert_array_equal(w.weights, [1.0])
        assert iters == 0 and residual == 0.0

    def test_symmetry_fixed_point(self):
        mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-12)
        w, _, _ = weights_iterative([0.0, 0.0], mp, "mirror")
        np.testing.assert_allclose(w.weights, [0.5, 0.5], atol=1e-8)

    @pytest.mark.parametrize("solver", ["mirror", "projected"])
    def test_matches_closed_form(self, solver):
        mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-10)
        w, iters, _ = weights_iterative([0.1, 0.5], mp, solver)
        want = weights_closed_form([0.1, 0.5], 1.0).weights
        np.testing.assert_allclose(w.weights, want, atol=1e-6)
        assert iters < mp.max_iters

    def test_mirror_equivalence_property(self):
        # tau = 1/alpha makes the entropic minimizer the closed-form softmax
        rng = make_rng(53)
        for _ in range(30):
            k = int(rng.integers(2, 33))
            e = rng.uniform(0, 1, size=k)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            mp = MetaParams(alpha=alpha, eta=0.1, tol=1e-10)
            w, _, _ = weights_iterative(e, mp, "mirror")
            want = weights_closed_form(e, alpha).weights
            assert np.abs(w.weights - want).max() < 1e-6

    @pytest.mark.parametrize("solver", ["mirror", "projected"])
    def test_shift_invariance(self, solver):
        rng = make_rng(59)
        for _ in range(10):
            k = int(rng.integers(2, 10))
            e = rng.uniform(0, 1, size=k)
            mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-12)
            w0, _, _ = weights_iterative(e, mp, solver)
            w1, _, _ = weights_iterative(e + 3.7, mp, solver)
            np.testing.assert_allclose(w0.weights, w1.weights, atol=1e-9)

    def test_residual_geometric_envelope(self):
        # default eta=0.1, tau=1 contracts log-weights by 0.9 per step
        rng = make_rng(61)
        for _ in range(10):
            k = int(rng.integers(2, 12))
            e = rng.uniform(0, 1, size=k)
            w = np.full(k, 1.0 / k)
            residuals = []
            for _ in range(60):
                w_next = _mirror_step(w, e, 1.0, 0.1)
                residuals.append(float(np.abs(w_next - w).max()))
                w = w_next
            r = np.array(residuals)
            scale = np.abs(r[5:-10])
            assert np.all(r[15:] <= 0.9 * r[5:-10] + 1e-18 * (1 + scale))

    def test_simplex_invariants(self):
        rng = make_rng(67)
        for solver in ("mirror", "projected"):
            for _ in range(20):
                k = int(rng.integers(1, 16))
                e = rng.uniform(-2, 2, size=k)
                mp = MetaParams(alpha=1.0, eta=0.1)
                w, _, _ = weights_iterative(e, mp, solver)
                assert np.all(w.weights >= 0.0)
                assert abs(w.weights.sum() - 1.0) <= 1e-9

    def test_divergence_error_names_solver_and_iteration(self):
        mp = MetaParams(alpha=1.0, eta=1e308, max_iters=10)
        with pytest.raises(ValueError, match="projected solver at iteration 1"):
            weights_iterative([0.0, 1e3], mp, "projected")

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            weights_iterative([0.1], MetaParams(alpha=1.0), "newton")


class TestAggregate:
    def test_single_client_identity(self):
        out = aggregate([report(0, [2.0, 4.0], 0.1, 5)], WeightVector([1.0]), 0.0)
        np.testing.assert_array_equal(out.coords, [2.0, 4.0])

    def test_shrinkage_matches_grid_oracle(self):
        # minimizer of (s-1)^2 ||t||^2 + lam s^2 ||t||^2 over scalar s
        theta = np.array([2.0, 4.0])
        lam = 1.0
        scales = np.linspace(0.0, 1.0, 1_000_001)
        objective = (scales - 1.0) ** 2 * (theta @ theta) + lam * scales**2 * (theta @ theta)
        s_star = scales[int(np.argmin(objective))]
        out = aggregate([report(0, theta, 0.1, 5)], WeightVector([1.0]), lam)
        np.testing.assert_allclose(out.coords, s_star * theta, atol=1e-5)
        np.testing.assert_allclose(out.coords, [1.0, 2.0], atol=1e-12)

    def test_weighted_sum_value(self):
        reports = [report(0, [4.0, 0.0], 0.1, 5), report(1, [0.0, 4.0], 0.2, 5)]
        out = aggregate(reports, WeightVector([0.25, 0.75]), 0.0)
        np.testing.assert_allclose(out.coords, [1.0, 3.0], rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="reports"):
            aggregate([report(0, [1.0], 0.1, 1)], WeightVector([0.5, 0.5]), 0.0)


class TestFedAvgWeights:
    def test_equal_counts(self):
        np.testing.assert_array_equal(fedavg_weights([5, 5]).weights, [0.5, 0.5])

    def test_proportions(self):
        np.testing.assert_array_equal(fedavg_weights([1, 3]).weights, [0.25, 0.75])

    def test_softmax_log_count_identity(self):
        rng = make_rng(71)
        for _ in range(20):
            n = rng.integers(1, 500, size=int(rng.integers(2, 10)))
            via_softmax = weights_closed_form(-np.log(n.astype(float)), 1.0).weights
            np.testing.assert_allclose(via_softmax, fedavg_weights(n).weights, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty cohort"):
            fedavg_weights([])


class TestMetaAgg:
    def test_single_client_shrinkage(self):
        r = report(0, [2.0, 6.0], 0.1, 5)
        out = meta_agg([r], MetaParams(alpha=1.0, lam=1.0))
        np.testing.assert_array_equal(out.weights.weights, [1.0])
        np.testing.assert_allclose(out.theta_g.coords, [1.0, 3.0], rtol=1e-15)

    def test_equal_errors_midpoint(self):
        reports = [report(0, [1.0, 0.0], 0.3, 5), report(1, [0.0, 1.0], 0.3, 5)]
        out = meta_agg(reports, MetaParams(alpha=2.0))
        np.testing.assert_array_equal(out.weights.weights, [0.5, 0.5])
        np.testing.assert_allclose(out.theta_g.coords, [0.5, 0.5], rtol=1e-15)

    def test_closed_vs_mirror_cross_solver(self):
        rng = make_rng(73)
        reports = [
            report(i, rng.normal(size=4), float(rng.uniform(0.1, 1.0)), 5 + i)
            for i in range(5)
        ]
        mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-10)
        a = meta_agg(reports, mp, "metafl_closed")
        b = meta_agg(reports, mp, "metafl_mirror")
        assert np.abs(a.weights.weights - b.weights.weights).max() < 1e-6
        assert np.abs(a.theta_g.coords - b.theta_g.coords).max() < 1e-6

    def test_alpha_zero_uniform_all_modes(self):
        rng = make_rng(79)
        reports = [
            report(i, rng.normal(size=3), float(rng.uniform(0.1, 1.0)), 2 + i)
            for i in range(4)
        ]
        mp = MetaParams(alpha=0.0)
        for mode in ("metafl_closed", "metafl_mirror", "metafl_projected"):
            out = meta_agg(reports, mp, mode)
            np.testing.assert_array_equal(out.weights.weights, [0.25] * 4)

    def test_fedavg_embedding(self):
        # val_loss ln(max_n / n_k) equals -ln n_k up to a shift, which the
        # softmax ignores, so alpha=1 reproduces the n_k/n weighting
        rng = make_rng(83)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            counts = rng.integers(1, 200, size=k)
            dim = int(rng.integers(1, 6))
            thetas = [rng.normal(size=dim) for _ in range(k)]
            reports = [
                report(i, thetas[i], float(np.log(counts.max() / counts[i])), int(counts[i]))
                for i in range(k)
            ]
            out = meta_agg(reports, MetaParams(alpha=1.0, lam=0.0), "metafl_closed")
            fa = fedavg_weights(counts)
            assert np.abs(out.weights.weights - fa.weights).max() < 1e-12
            want = aggregate(reports, fa, 0.0)
            assert np.abs(out.theta_g.coords - want.coords).max() < 1e-12

    def test_outcome_bookkeeping(self):
        reports = [report(0, [1.0], 0.2, 5), report(1, [3.0], 0.8, 5)]
        out = meta_agg(reports, MetaParams(alpha=1.0))
        assert np.isfinite(out.phi_value)
        assert out.solver_iters == 0

    def test_empty_cohort(self):
        with pytest.raises(ValueError, match="empty cohort"):
            meta_agg([], MetaParams(alpha=1.0))

    @pytest.mark.parametrize("mode", ["fedavg", "closed_form", "metafl_newton"])
    def test_rejects_non_metafl_mode(self, mode):
        reports = [report(0, [1.0], 0.2, 5), report(1, [3.0], 0.8, 5)]
        with pytest.raises(ValueError, match="mode must be a metafl_"):
            meta_agg(reports, MetaParams(alpha=1.0), mode)


class TestAdaptMetaParams:
    def test_single_candidate(self):
        reports = [report(0, [1.0, 0.0], 0.2, 5)]
        data = make_blobs(2, 2, 20, 0.5, 1)
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        # theta dim must match the spec
        reports = [report(0, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.2, 5)]
        mp = adapt_meta_params(MetaParams(alpha=9.0), [3.5], reports, spec, data)
        assert mp.alpha == 3.5

    def test_duplicate_candidates_deterministic(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 30, 0.5, 2)
        rng = make_rng(89)
        reports = [report(i, rng.normal(size=6), 0.3 + 0.1 * i, 5) for i in range(3)]
        a = adapt_meta_params(MetaParams(alpha=1.0), [2.0, 2.0, 2.0], reports, spec, data)
        assert a.alpha == 2.0

    def test_selects_downweighting_when_it_helps(self):
        # one client trains on badly mislabeled data; alpha=5 should win
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        pool = make_blobs(2, 2, 400, 0.3, 5)
        clean = pool.subset(np.arange(200))
        global_val = pool.subset(np.arange(200, 400))
        noisy = inject_label_noise(clean, 0.4, 7, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, epochs=5, seed=3)
        theta0 = init_params(spec, 0)
        good = train_local(spec, theta0, clean, cfg)
        bad = train_local(spec, theta0, noisy, cfg)
        reports = [
            report(0, good.coords, local_loss(spec, good, clean), clean.n),
            report(1, bad.coords, local_loss(spec, bad, clean), noisy.n),
        ]
        candidates = [0.0, 5.0]
        # exhaustive oracle over the grid
        losses = {}
        for alpha in candidates:
            out = meta_agg(reports, MetaParams(alpha=alpha), "metafl_closed")
            losses[alpha] = local_loss(spec, out.theta_g, global_val)
        assert losses[5.0] < losses[0.0]
        mp = adapt_meta_params(MetaParams(alpha=1.0), candidates, reports, spec, global_val)
        assert mp.alpha == 5.0

    def test_tie_breaks_to_smallest(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 20, 0.5, 3)
        # equal errors: every alpha yields uniform weights, so all tie
        reports = [report(i, [0.5] * 6, 0.4, 5) for i in range(3)]
        mp = adapt_meta_params(MetaParams(alpha=1.0), [4.0, 2.0, 7.0], reports, spec, data)
        assert mp.alpha == 2.0

    def test_empty_grid(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 20, 0.5, 3)
        with pytest.raises(ValueError, match="empty grid"):
            adapt_meta_params(MetaParams(alpha=1.0), [], [report(0, [1.0] * 6, 0.1, 5)], spec, data)


class TestContractionEstimate:
    def test_eta_zero_identity(self):
        est = contraction_estimate([0.1, 0.5], MetaParams(alpha=1.0, eta=0.0), 100, make_rng(1))
        assert est == 1.0

    def test_singleton(self):
        assert contraction_estimate([0.3], MetaParams(alpha=1.0), 50, make_rng(1)) == 0.0

    def test_default_configuration_contracts(self):
        mp = MetaParams(alpha=1.0, eta=0.1)
        est = contraction_estimate([0.1, 0.5], mp, 1000, make_rng(3))
        assert 0.0 < est < 1.0
        np.testing.assert_allclose(est, 0.9, atol=1e-9)

    def test_cross_check_with_solver_residuals(self):
        # the solver's successive-residual ratio matches the estimate
        mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-13)
        e = np.array([0.2, 0.8, 0.5])
        w = np.full(3, 1 / 3)
        residuals = []
        for _ in range(40):
            w_next = _mirror_step(w, e, 1.0, 0.1)
            residuals.append(np.abs(w_next - w).max())
            w = w_next
        tail_ratio = residuals[30] / residuals[29]
        est = contraction_estimate(e, mp, 500, make_rng(5))
        np.testing.assert_allclose(tail_ratio, est, atol=0.02)

    def test_bad_samples(self):
        with pytest.raises(ValueError, match="samples"):
            contraction_estimate([0.1, 0.2], MetaParams(alpha=1.0), 0, make_rng(1))


class TestJensenGap:
    def test_identical_parameters_zero_gap(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 30, 0.5, 1)
        theta = init_params(spec, 3)
        gap = jensen_gap(spec, [theta, theta], WeightVector([0.5, 0.5]), data)
        assert gap == 0.0

    def test_quadratic_surrogate(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 1, 10, 0.5, 1)
        gap = jensen_gap(
            spec,
            [ParamVector([-1.0]), ParamVector([1.0])],
            WeightVector([0.5, 0.5]),
            data,
            loss_fn=lambda theta: float(theta.coords[0] ** 2),
        )
        np.testing.assert_allclose(gap, 1.0, rtol=1e-15)

    def test_convex_loss_nonnegative_gap(self):
        rng = make_rng(97)
        spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        data = make_blobs(3, 3, 40, 1.0, 7)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            thetas = [ParamVector(rng.normal(size=12)) for _ in range(k)]
            w = weights_closed_form(rng.uniform(0, 1, size=k), 1.0)
            assert jensen_gap(spec, thetas, w, data) >= -1e-9

    def test_length_mismatch(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 1, 10, 0.5, 1)
        with pytest.raises(ValueError, match="weights"):
            jensen_gap(spec, [ParamVector([1.0])], WeightVector([0.5, 0.5]), data)


class TestGeneralizationBound:
    def test_only_sqrt_m_term(self):
        assert generalization_bound(0.0, 4, 0.0) == 0.5

    def test_frozen_values(self):
        np.testing.assert_allclose(generalization_bound(2.0, 16, 0.0), 0.75, atol=1e-15)
        np.testing.assert_allclose(generalization_bound(2.0, 16, 2.0), 1.25, atol=1e-15)

    def test_monotone_decreasing_in_m(self):
        values = [generalization_bound(1.5, m, 0.8) for m in (1, 2, 4, 8, 64, 512)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="m"):
            generalization_bound(1.0, 0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            generalization_bound(-1.0, 4, 0.0)


class TestMetaParams:
    def test_tau_defaults_to_inverse_alpha(self):
        assert MetaParams(alpha=4.0).resolved_tau() == 0.25
        assert MetaParams(alpha=4.0, tau=2.0).resolved_tau() == 2.0
        assert MetaParams(alpha=0.0).resolved_tau() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            MetaParams(alpha=-1.0)
        with pytest.raises(ValueError, match="tau"):
            MetaParams(alpha=1.0, tau=0.0)
        with pytest.raises(ValueError, match="tau"):
            MetaParams(alpha=1.0, tau=float("inf"))
        with pytest.raises(ValueError, match="tol"):
            MetaParams(alpha=1.0, tol=2.0)

    def test_client_report_validation(self):
        with pytest.raises(ValueError, match="n_k"):
            report(0, [1.0], 0.1, 0)
