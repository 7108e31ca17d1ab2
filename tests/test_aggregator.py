"""Weight solvers, aggregation, adaptation, and theory-diagnostic tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafl import aggregator, numerics
from metafl.aggregator import (
    BOUNDARY_CLAMP,
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
    weights_iterative,
)
from metafl.datagen import ClientDataset, inject_label_noise, make_blobs
from metafl.metafeatures import CompositeErrorConfig, composite_errors
from metafl.models import ModelSpec, TrainConfig, init_params, local_loss, param_count, train_local
from metafl.numerics import ParamVector, WeightVector, make_rng, project_simplex, softmax_neg
from testkit import finite_diff_grad, reference_weights_iterative


def rows(*coords):
    """A [K, P] parameter matrix from K rows."""
    return np.array(coords, dtype=np.float64)


class TestClosedForm:
    def test_equal_errors_uniform(self):
        w = softmax_neg([0.2, 0.2, 0.2], 7.0)
        np.testing.assert_array_equal(w.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_sharp_limit(self):
        w = softmax_neg([0.1, 0.9], 1e3)
        assert w.weights[0] >= 0.99

    def test_two_point_value(self):
        w = softmax_neg([0.1, 0.5], 1.0)
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


def reference_projected(errors, mp):
    """The projected solver written out, stepping through the public
    project_simplex: (weights, iterations, residual)."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 1:
        return np.ones(1), 0, 0.0
    tau = mp.resolved_tau()
    w = np.full(e.size, 1.0 / e.size)
    residual = math.inf
    for t in range(1, mp.max_iters + 1):
        grad = e + tau * (1.0 + np.log(np.maximum(w, BOUNDARY_CLAMP)))
        w_next = project_simplex(w - mp.eta * grad).weights
        residual = float(np.abs(w_next - w).max())
        w = w_next
        if residual < mp.tol:
            return w, t, residual
    return w, mp.max_iters, residual


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
        want = softmax_neg([0.1, 0.5], 1.0).weights
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
            want = softmax_neg(e, alpha).weights
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

    def test_projection_cancelled_by_rounding_is_value_error(self):
        # a step of 1e300 puts both targets near 1e300, where u - css / idx
        # rounds to 0 for every threshold candidate
        mp = MetaParams(alpha=1.0, eta=1e300)
        with pytest.raises(ValueError, match="too large to project onto the simplex"):
            weights_iterative([0.0, 0.0], mp, "projected")

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            weights_iterative([0.1], MetaParams(alpha=1.0), "newton")

    @pytest.mark.parametrize("solver", ["mirror", "projected"])
    def test_zero_step_is_rejected(self, solver):
        # a zero step leaves the uniform start in place, which would read
        # as a solve converged after one iteration with residual 0
        for errors in ([0.1, 0.9, 2.0], [0.4]):
            with pytest.raises(ValueError, match=f"eta must be > 0 for the {solver} solver"):
                weights_iterative(errors, MetaParams(alpha=5.0, eta=0.0), solver)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40),
        st.floats(0.25, 32.0),
        st.sampled_from([0.01, 0.1, 0.5]),
        st.integers(1, 200),
    )
    def test_projected_equals_reference_loop(self, errors, alpha, eta, max_iters):
        mp = MetaParams(alpha=alpha, eta=eta, max_iters=max_iters)
        w, iters, residual = weights_iterative(errors, mp, "projected")
        want_w, want_iters, want_residual = reference_projected(errors, mp)
        assert w.weights.tobytes() == want_w.tobytes()
        assert (iters, residual) == (want_iters, want_residual)

    def test_projected_solve_skips_public_projection(self, monkeypatch):
        def refuse(point):
            raise AssertionError("project_simplex called")

        monkeypatch.setattr(numerics, "project_simplex", refuse)
        monkeypatch.setattr(aggregator, "project_simplex", refuse, raising=False)
        w, iters, _ = weights_iterative([0.1, 0.5, 0.3], MetaParams(alpha=4.0), "projected")
        assert iters >= 1 and w.k == 3


class TestAggregate:
    def test_single_client_identity(self):
        out = aggregate(rows([2.0, 4.0]), WeightVector([1.0]), 0.0)
        np.testing.assert_array_equal(out.coords, [2.0, 4.0])

    def test_shrinkage_matches_grid_oracle(self):
        # minimizer of (s-1)^2 ||t||^2 + lam s^2 ||t||^2 over scalar s
        theta = np.array([2.0, 4.0])
        lam = 1.0
        scales = np.linspace(0.0, 1.0, 1_000_001)
        objective = (scales - 1.0) ** 2 * (theta @ theta) + lam * scales**2 * (theta @ theta)
        s_star = scales[int(np.argmin(objective))]
        out = aggregate(rows(theta), WeightVector([1.0]), lam)
        np.testing.assert_allclose(out.coords, s_star * theta, atol=1e-5)
        np.testing.assert_allclose(out.coords, [1.0, 2.0], atol=1e-12)

    def test_weighted_sum_value(self):
        out = aggregate(rows([4.0, 0.0], [0.0, 4.0]), WeightVector([0.25, 0.75]), 0.0)
        np.testing.assert_allclose(out.coords, [1.0, 3.0], rtol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 parameter rows for 2 weights"):
            aggregate(rows([1.0]), WeightVector([0.5, 0.5]), 0.0)


class TestFedAvgWeights:
    def test_equal_counts(self):
        np.testing.assert_array_equal(fedavg_weights([5, 5]).weights, [0.5, 0.5])

    def test_proportions(self):
        np.testing.assert_array_equal(fedavg_weights([1, 3]).weights, [0.25, 0.75])

    def test_softmax_log_count_identity(self):
        rng = make_rng(71)
        for _ in range(20):
            n = rng.integers(1, 500, size=int(rng.integers(2, 10)))
            via_softmax = softmax_neg(-np.log(n.astype(float)), 1.0).weights
            np.testing.assert_allclose(via_softmax, fedavg_weights(n).weights, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty cohort"):
            fedavg_weights([])
        with pytest.raises(ValueError, match="n_k must be >= 1"):
            fedavg_weights([5, 0])


class TestMetaAgg:
    def test_single_client_shrinkage(self):
        out = meta_agg(rows([2.0, 6.0]), np.array([0.1]), MetaParams(alpha=1.0, lam=1.0))
        np.testing.assert_array_equal(out.weights.weights, [1.0])
        np.testing.assert_allclose(out.theta_g.coords, [1.0, 3.0], rtol=1e-15)

    def test_equal_errors_midpoint(self):
        out = meta_agg(rows([1.0, 0.0], [0.0, 1.0]), np.array([0.3, 0.3]), MetaParams(alpha=2.0))
        np.testing.assert_array_equal(out.weights.weights, [0.5, 0.5])
        np.testing.assert_allclose(out.theta_g.coords, [0.5, 0.5], rtol=1e-15)

    def test_closed_vs_mirror_cross_solver(self):
        rng = make_rng(73)
        thetas = rng.normal(size=(5, 4))
        errors = rng.uniform(0.1, 1.0, size=5)
        mp = MetaParams(alpha=1.0, eta=0.1, tol=1e-10)
        a = meta_agg(thetas, errors, mp, "metafl_closed")
        b = meta_agg(thetas, errors, mp, "metafl_mirror")
        assert np.abs(a.weights.weights - b.weights.weights).max() < 1e-6
        assert np.abs(a.theta_g.coords - b.theta_g.coords).max() < 1e-6

    def test_alpha_zero_uniform_all_modes(self):
        # alpha = 0 with tau unset: every mode's weights are bitwise 1/K
        # and no iterative solve runs
        rng = make_rng(79)
        mp = MetaParams(alpha=0.0)
        for k in (1, 3, 4, 7):
            thetas = rng.normal(size=(k, 3))
            errors = rng.uniform(0.1, 1.0, size=k)
            for mode in ("metafl_closed", "metafl_mirror", "metafl_projected"):
                out = meta_agg(thetas, errors, mp, mode)
                assert out.weights.weights.tobytes() == np.full(k, 1.0 / k).tobytes()
                assert (out.solver_iters, out.solver_residual) == (0, 0.0)

    def test_fedavg_embedding(self):
        # errors ln(max_n / n_k) / alpha equal -ln(n_k) / alpha up to a
        # shift, which the softmax ignores, so any alpha reproduces the
        # n_k/n weighting
        rng = make_rng(83)
        for _ in range(40):
            k = int(rng.integers(2, 9))
            counts = rng.integers(1, 200, size=k)
            thetas = rng.normal(size=(k, int(rng.integers(1, 6))))
            alpha = 32.0 * (1.0 - float(rng.random()))  # in (0, 32]
            errors = np.log(counts.max() / counts) / alpha
            out = meta_agg(thetas, errors, MetaParams(alpha=alpha, lam=0.0), "metafl_closed")
            fa = fedavg_weights(counts)
            assert np.abs(out.weights.weights - fa.weights).max() < 1e-12
            want = aggregate(thetas, fa, 0.0)
            assert np.abs(out.theta_g.coords - want.coords).max() < 1e-12

    def test_outcome_bookkeeping(self):
        thetas, errors = rows([1.0], [3.0]), np.array([0.2, 0.8])
        out = meta_agg(thetas, errors, MetaParams(alpha=1.0))
        assert np.isfinite(out.phi_value)
        assert out.solver_iters == 0 and out.solver_residual == 0.0
        mp = MetaParams(alpha=1.0, max_iters=3)
        out = meta_agg(thetas, errors, mp, "metafl_projected")
        _, iters, residual = weights_iterative(errors, mp, "projected")
        assert (out.solver_iters, out.solver_residual) == (iters, residual) == (3, residual)
        assert residual >= mp.tol

    def test_empty_cohort(self):
        with pytest.raises(ValueError, match="empty cohort"):
            meta_agg(np.empty((0, 1)), np.empty(0), MetaParams(alpha=1.0))

    @pytest.mark.parametrize("mode", ["fedavg", "closed_form", "metafl_newton"])
    def test_rejects_non_metafl_mode(self, mode):
        with pytest.raises(ValueError, match="mode must be a metafl_"):
            meta_agg(rows([1.0], [3.0]), np.array([0.2, 0.8]), MetaParams(alpha=1.0), mode)


@pytest.mark.parametrize(
    "check",
    [
        lambda e: softmax_neg(e, 1.0),
        lambda e: meta_agg(np.zeros((len(e), 2)), e, MetaParams(alpha=1.0)),
        lambda e: weights_iterative(e, MetaParams(alpha=1.0), "mirror"),
        lambda e: phi_objective(WeightVector([1.0]), e, 1.0),  # E is checked before lengths
        lambda e: contraction_estimate(e, MetaParams(alpha=1.0), 3, make_rng(0)),
        lambda e: composite_errors(e, None, CompositeErrorConfig()),
    ],
    ids=["softmax_neg", "meta_agg", "weights_iterative", "phi_objective",
         "contraction_estimate", "composite_errors"],
)
@pytest.mark.parametrize(
    "errors, message",
    [(np.empty(0), "empty cohort"), (np.array([0.2, np.nan]), "non-finite error metric"),
     (np.array([np.inf, 0.2]), "non-finite error metric")],
    ids=["empty", "nan", "inf"],
)
def test_every_error_vector_reader_checks_alike(check, errors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        check(errors)


def solve_outcome(solve, errors, mp, solver):
    """(weights bytes, iterations, residual) of a solve, or the type and
    text of what it raised."""
    try:
        w, iters, residual = solve(errors, mp, solver)
    except ValueError as err:
        return type(err), str(err)
    return np.asarray(getattr(w, "weights", w)).tobytes(), iters, residual


class TestSolverRegression:
    """Both solvers equal reference_weights_iterative, the loop with a
    per-step error state, bitwise: same weights, iteration count and
    residual, and the same divergence at the same iteration."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=12),
        st.floats(0.01, 32.0),
        st.sampled_from([0.01, 0.1, 0.5, 2.0]),
        st.integers(1, 300),
        st.sampled_from([1e-10, 1e-6, 1e-3]),
        st.sampled_from(["mirror", "projected"]),
    )
    def test_equals_reference_loop(self, errors, alpha, eta, max_iters, tol, solver):
        mp = MetaParams(alpha=alpha, eta=eta, max_iters=max_iters, tol=tol)
        got = solve_outcome(weights_iterative, errors, mp, solver)
        assert got == solve_outcome(reference_weights_iterative, errors, mp, solver)

    @pytest.mark.parametrize("solver", ["mirror", "projected"])
    def test_unconverged_solve_equals_reference(self, solver):
        # holdout_search-like: six clients, alpha 32, the default 500 steps
        errors = [0.9, 1.7, 0.41, 0.43, 0.45, 0.47]
        mp = MetaParams(alpha=32.0)
        got = solve_outcome(weights_iterative, errors, mp, solver)
        assert got[1] == mp.max_iters and got[2] >= mp.tol
        assert got == solve_outcome(reference_weights_iterative, errors, mp, solver)

    @pytest.mark.parametrize(
        "errors,mp,solver,iteration",
        [
            ([0.0, 1e3], MetaParams(alpha=1.0, eta=1e308, max_iters=10), "projected", 1),
            ([1.7695071894782e45, 1.1763080056202768e45, 6.350481730618359e45],
             MetaParams(tau=1e306, eta=53.70480783948084, max_iters=50), "projected", 2),
            ([-1e308, 0.0], MetaParams(alpha=1.0, eta=10.0, max_iters=10), "mirror", 1),
        ],
    )
    def test_divergence_at_reference_iteration(self, errors, mp, solver, iteration):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = solve_outcome(weights_iterative, errors, mp, solver)
            want = solve_outcome(reference_weights_iterative, errors, mp, solver)
        assert got == want == (ValueError, f"divergence in {solver} solver at iteration {iteration}")

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(200.0, 1e3), min_size=2, max_size=12),
        st.floats(0.01, 32.0),
        st.sampled_from([0.1, 1e308]),
    )
    def test_projected_solve_emits_no_runtime_warning(self, errors, alpha, eta):
        # errors of 200 or more make a step of 1e308 overflow the target,
        # which the solve reports as divergence rather than warns about
        mp = MetaParams(alpha=alpha, eta=eta, max_iters=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if eta < 1.0:
                weights_iterative(errors, mp, "projected")
            else:
                with pytest.raises(ValueError, match="projected solver at iteration 1"):
                    weights_iterative(errors, mp, "projected")


def reference_alpha_search(mp, candidates, thetas, errors, spec, holdout):
    """The per-candidate path the alpha search must reproduce bitwise:
    uniform weights at alpha 0, else the softmax; the shrunk weighted sum;
    its holdout loss; ties to the smallest alpha. Returns the winning
    alpha with its weights and aggregate."""
    k = len(errors)
    best = None
    for alpha in map(float, candidates):
        w = np.full(k, 1.0 / k) if alpha == 0.0 else softmax_neg(errors, alpha).weights
        theta = ParamVector((w @ thetas) / (1.0 + mp.lam))
        loss = local_loss(spec, theta, holdout)
        if best is None or loss < best[1] or (loss == best[1] and alpha < best[0]):
            best = (alpha, loss, w, theta)
    return best[0], best[2], best[3]


@st.composite
def alpha_search_cases(draw):
    spec = ModelSpec(
        input_dim=draw(st.integers(1, 4)),
        hidden_dim=draw(st.integers(0, 3)),
        num_classes=draw(st.integers(2, 3)),
        activation=draw(st.sampled_from(["relu", "tanh"])),
    )
    k = draw(st.integers(1, 40))
    thetas = make_rng(draw(st.integers(0, 2**32))).uniform(-3.0, 3.0, (k, param_count(spec)))
    # small pools of values: equal errors make every alpha tie, and
    # duplicate candidates are common
    error_pool = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
    errors = np.array(draw(st.lists(st.sampled_from(error_pool), min_size=k, max_size=k)))
    # no subnormal: a grid alpha needs a finite tau = 1/alpha
    pool = draw(st.lists(st.floats(0.0, 32.0, allow_subnormal=False), min_size=1, max_size=4))
    candidates = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    lam = draw(st.floats(0.0, 10.0))
    holdout = make_blobs(spec.num_classes, spec.input_dim, draw(st.integers(4, 30)), 0.7,
                         draw(st.integers(0, 1000)))
    return spec, thetas, errors, candidates, lam, holdout


class TestAdaptMetaParams:
    def test_single_candidate(self):
        data = make_blobs(2, 2, 20, 0.5, 1)
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        # theta dim must match the spec
        thetas = rows([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        mp = adapt_meta_params(MetaParams(alpha=9.0), [3.5], thetas, np.array([0.2]), spec, data)
        assert mp.alpha == 3.5

    def test_duplicate_candidates_deterministic(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 30, 0.5, 2)
        rng = make_rng(89)
        thetas = rng.normal(size=(3, 6))
        errors = 0.3 + 0.1 * np.arange(3)
        a = adapt_meta_params(MetaParams(alpha=1.0), [2.0, 2.0, 2.0], thetas, errors, spec, data)
        assert a.alpha == 2.0

    def test_selects_downweighting_when_it_helps(self):
        # one client trains on badly mislabeled data; alpha=5 should win
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        pool = make_blobs(2, 2, 400, 0.3, 5)
        clean = pool.subset(np.arange(200))
        global_val = pool.subset(np.arange(200, 400))
        noisy = ClientDataset(clean.features, inject_label_noise(clean.labels, 0.4, 7, num_classes=2))
        cfg = TrainConfig(learning_rate=0.5, epochs=5, seed=3)
        theta0 = init_params(spec, 0)
        good = train_local(spec, theta0, clean, cfg)
        bad = train_local(spec, theta0, noisy, cfg)
        thetas = rows(good.coords, bad.coords)
        errors = np.array([local_loss(spec, good, clean), local_loss(spec, bad, clean)])
        candidates = [0.0, 5.0]
        # exhaustive oracle over the grid
        losses = {}
        for alpha in candidates:
            out = meta_agg(thetas, errors, MetaParams(alpha=alpha), "metafl_closed")
            losses[alpha] = local_loss(spec, out.theta_g, global_val)
        assert losses[5.0] < losses[0.0]
        mp = adapt_meta_params(MetaParams(alpha=1.0), candidates, thetas, errors, spec, global_val)
        assert mp.alpha == 5.0

    def test_tie_breaks_to_smallest(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 20, 0.5, 3)
        # equal errors: every alpha yields uniform weights, so all tie
        thetas, errors = np.full((3, 6), 0.5), np.full(3, 0.4)
        mp = adapt_meta_params(MetaParams(alpha=1.0), [4.0, 2.0, 7.0], thetas, errors, spec, data)
        assert mp.alpha == 2.0

    def test_empty_grid(self):
        spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 2, 20, 0.5, 3)
        with pytest.raises(ValueError, match="empty grid"):
            adapt_meta_params(MetaParams(alpha=1.0), [], rows([1.0] * 6), np.array([0.1]), spec, data)

    @settings(max_examples=150, deadline=None)
    @given(alpha_search_cases())
    def test_search_then_closed_solve_equal_reference(self, case):
        spec, thetas, errors, candidates, lam, holdout = case
        mp = adapt_meta_params(MetaParams(alpha=1.0, lam=lam, tau=2.0), candidates, thetas,
                               errors, spec, holdout)
        out = meta_agg(thetas, errors, mp, "metafl_closed")
        alpha, w, theta = reference_alpha_search(mp, candidates, thetas, errors, spec, holdout)
        assert mp.alpha == alpha and mp.tau is None
        assert out.weights.weights.tobytes() == w.tobytes()
        assert out.theta_g.coords.tobytes() == theta.coords.tobytes()


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
        theta = init_params(spec, 3).coords
        gap = jensen_gap(spec, rows(theta, theta), WeightVector([0.5, 0.5]), data)
        assert gap == 0.0

    def test_quadratic_surrogate(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 1, 10, 0.5, 1)
        gap = jensen_gap(
            spec,
            rows([-1.0], [1.0]),
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
            thetas = rng.normal(size=(k, 12))
            w = softmax_neg(rng.uniform(0, 1, size=k), 1.0)
            assert jensen_gap(spec, thetas, w, data) >= -1e-9

    def test_length_mismatch(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        data = make_blobs(2, 1, 10, 0.5, 1)
        with pytest.raises(ValueError, match="weights"):
            jensen_gap(spec, rows([1.0]), WeightVector([0.5, 0.5]), data)


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
        with pytest.raises(ValueError, match="finite 1/alpha"):
            MetaParams(alpha=5e-324)
        assert MetaParams(alpha=5e-324, tau=1.0).resolved_tau() == 1.0
        with pytest.raises(ValueError, match="tol"):
            MetaParams(alpha=1.0, tol=2.0)
