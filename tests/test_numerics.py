"""Vector-math and simplex-geometry unit and property tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metafl.numerics import (
    ParamVector,
    WeightVector,
    make_rng,
    project_simplex,
    softmax_neg,
    weighted_sum,
)
from testkit import _reference_project_simplex, finite_diff_grad


def assert_valid_weights(w: WeightVector):
    assert np.all(w.weights >= 0.0)
    assert abs(w.weights.sum() - 1.0) <= 1e-9


@st.composite
def simplex_points(draw):
    """K = 1 to 300 finite entries: a mantissa in [-1.7, 1.7] times a power
    of ten from a drawn range within 1e-308 to 1e308, or a signed zero."""
    lo = draw(st.integers(-308, 308))
    hi = draw(st.integers(lo, 308))
    scaled = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.7, 1.7), st.integers(lo, hi))
    entry = st.one_of(scaled, st.sampled_from([0.0, -0.0]))
    return draw(st.lists(entry, min_size=1, max_size=300))


def grid_project_oracle(point, levels=6, ticks=60):
    """Multiresolution grid search over the K<=3 simplex for the nearest point.

    The squared distance is strictly convex, so zooming a +-2-cell window
    around each level's argmin cannot lose the optimum; six levels reach
    ~1e-9 resolution.
    """
    point = np.asarray(point, dtype=float)
    k = point.size
    if k == 2:
        lo, hi = 0.0, 1.0
        best_t = 0.0
        for _ in range(levels):
            ts = np.linspace(lo, hi, ticks + 1)
            d = (ts - point[0]) ** 2 + (1.0 - ts - point[1]) ** 2
            best_t = ts[int(np.argmin(d))]
            span = (hi - lo) / ticks
            lo, hi = max(0.0, best_t - 2 * span), min(1.0, best_t + 2 * span)
        return np.array([best_t, 1.0 - best_t])
    if k == 3:
        alo, ahi, blo, bhi = 0.0, 1.0, 0.0, 1.0
        best = None
        for _ in range(levels):
            ta = np.linspace(alo, ahi, ticks + 1)
            tb = np.linspace(blo, bhi, ticks + 1)
            aa, bb = np.meshgrid(ta, tb, indexing="ij")
            cc = 1.0 - aa - bb
            d = (aa - point[0]) ** 2 + (bb - point[1]) ** 2 + (cc - point[2]) ** 2
            d[cc < -1e-12] = np.inf
            i, j = np.unravel_index(int(np.argmin(d)), d.shape)
            best = np.array([aa[i, j], bb[i, j], max(cc[i, j], 0.0)])
            sa = (ahi - alo) / ticks
            sb = (bhi - blo) / ticks
            alo, ahi = max(0.0, aa[i, j] - 2 * sa), min(1.0, aa[i, j] + 2 * sa)
            blo, bhi = max(0.0, bb[i, j] - 2 * sb), min(1.0, bb[i, j] + 2 * sb)
        return best
    raise ValueError("oracle supports K <= 3")


class TestSoftmaxNeg:
    def test_equal_values_give_uniform(self):
        w = softmax_neg([1.0, 1.0, 1.0], 2.0)
        np.testing.assert_array_equal(w.weights, [1 / 3, 1 / 3, 1 / 3])

    def test_alpha_zero_erases_sensitivity(self):
        w = softmax_neg([0.1, 0.5], 0.0)
        np.testing.assert_array_equal(w.weights, [0.5, 0.5])

    def test_two_point_value(self):
        # frozen from a 50-digit mpmath evaluation of exp(-v)/sum(exp(-v))
        w = softmax_neg([0.1, 0.5], 1.0)
        np.testing.assert_allclose(
            w.weights, [0.598687660112452, 0.401312339887548], atol=1e-6
        )

    def test_overflow_safety(self):
        w = softmax_neg([0.0, 1000.0], 100.0)
        assert_valid_weights(w)
        np.testing.assert_allclose(w.weights, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = make_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 20))
            v = rng.normal(size=k)
            alpha = float(rng.uniform(0, 10))
            shift = float(rng.normal()) * 5.0
            w0 = softmax_neg(v, alpha).weights
            w1 = softmax_neg(v + shift, alpha).weights
            np.testing.assert_allclose(w0, w1, atol=1e-12)

    def test_simplex_invariants_random(self):
        rng = make_rng(11)
        for _ in range(200):
            k = int(rng.integers(1, 65))
            v = rng.uniform(-50, 50, size=k)
            alpha = float(rng.uniform(0, 100))
            assert_valid_weights(softmax_neg(v, alpha))

    def test_sharpness_monotonicity(self):
        rng = make_rng(13)
        for _ in range(20):
            v = rng.uniform(0, 1, size=6)
            v[2] = v.min() - 0.1  # make argmin unique
            winner = int(np.argmin(v))
            last = -1.0
            for alpha in [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 1e3]:
                top = softmax_neg(v, alpha).weights[winner]
                assert top >= last - 1e-15
                last = top
            assert last > 0.99

    @pytest.mark.parametrize(
        "values, alpha, want",
        [
            ([2.0, 3.0], 1.7e308, [1.0, 0.0]),
            ([3.0, 2.0, 2.0], 1.7e308, [0.0, 0.5, 0.5]),
            ([-2.0, 1.0], 1e308, [1.0, 0.0]),
            ([1.0, -1e308], 2.0, [0.0, 1.0]),
            # only the largest product overflows: the near-tied least two share
            ([0.0, 1e-300, 1e308], 2.0, [0.5, 0.5, 0.0]),
        ],
    )
    def test_overflowing_product_gives_its_limit(self, values, alpha, want):
        # pytest turns a numpy RuntimeWarning into an error, so this also
        # requires that no overflow is warned of
        np.testing.assert_array_equal(softmax_neg(values, alpha).weights, want)

    def test_finite_products_keep_their_bits(self):
        rng = make_rng(17)
        for _ in range(200):
            v = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=int(rng.integers(1, 40)))
            alpha = float(10.0 ** rng.uniform(-3, 300)) * (rng.random() < 0.9)
            with np.errstate(over="ignore"):
                z = -alpha * v
            if not np.isfinite(z).all():
                continue
            z -= z.max()
            e = np.exp(z)
            assert softmax_neg(v, alpha).weights.tobytes() == (e / e.sum()).tobytes()

    def test_errors(self):
        with pytest.raises(ValueError, match="empty cohort"):
            softmax_neg([], 1.0)
        with pytest.raises(ValueError, match="non-finite error metric"):
            softmax_neg([0.1, np.nan], 1.0)
        with pytest.raises(ValueError, match="alpha"):
            softmax_neg([0.1], -1.0)


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        np.testing.assert_allclose(
            project_simplex([0.3, 0.7]).weights, [0.3, 0.7], atol=1e-15
        )

    def test_symmetry(self):
        np.testing.assert_array_equal(project_simplex([0.8, 0.8]).weights, [0.5, 0.5])

    def test_outside_corner(self):
        np.testing.assert_allclose(
            project_simplex([1.2, -0.1]).weights, [1.0, 0.0], atol=1e-9
        )

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_grid_oracle(self, k):
        rng = make_rng(17 + k)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, size=k)
            got = project_simplex(x).weights
            want = grid_project_oracle(x)
            np.testing.assert_allclose(got, want, atol=1e-6)
            assert np.sum((got - x) ** 2) <= np.sum((want - x) ** 2) + 1e-12

    def test_idempotent(self):
        rng = make_rng(19)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(1, 12))) * 3.0
            once = project_simplex(x)
            twice = project_simplex(once.weights)
            np.testing.assert_allclose(once.weights, twice.weights, atol=1e-12)
            assert_valid_weights(once)

    def test_errors(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_simplex([np.inf, 0.0])
        with pytest.raises(ValueError, match="empty"):
            project_simplex([])

    @settings(max_examples=200, deadline=None)
    @given(simplex_points())
    @example([1.0, -0.0])  # tau is +0.0, so the -0.0 entry lands on x - tau = -0.0
    @example([-0.0, 0.5, 0.25, -0.0])
    @example([(i % 7) / 20.0 - 0.1 for i in range(300)])
    @example([1e17] * 300)  # K = 300, every candidate rounds away
    def test_equals_numpy_reference_bitwise(self, point):
        """The projection over Python floats gives the numpy reference's
        bytes, or its error; where the reference finds no positive index
        (an IndexError), the program names the rounding."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = WeightVector(_reference_project_simplex(np.array(point))).weights.tobytes()
            except IndexError:
                want = "entries too large to project onto the simplex in float64"
            except ValueError as err:
                want = str(err)
        try:
            got = project_simplex(point).weights.tobytes()
        except ValueError as err:
            got = str(err)
        assert got == want

    @pytest.mark.parametrize("point", [[1e17, 1e17], [-1e17, -1e17], [3e300, 3e300, 1.0]])
    def test_rounding_cancelled_point_is_value_error(self, point):
        # u - css / idx rounds to 0 for every candidate, although exact
        # arithmetic keeps the first one positive
        with pytest.raises(ValueError, match="too large to project onto the simplex"):
            project_simplex(point)


class TestWeightedSum:
    def test_identity(self):
        out = weighted_sum(np.array([[2.0, -3.0]]), WeightVector([1.0]))
        np.testing.assert_array_equal(out.coords, [2.0, -3.0])

    def test_cancellation(self):
        out = weighted_sum(np.array([[1.0, 2.0], [-1.0, -2.0]]), WeightVector([0.5, 0.5]))
        np.testing.assert_array_equal(out.coords, [0.0, 0.0])

    def test_hand_value(self):
        out = weighted_sum(np.array([[4.0, 0.0], [0.0, 4.0]]), WeightVector([0.25, 0.75]))
        np.testing.assert_allclose(out.coords, [1.0, 3.0], rtol=1e-15)

    def test_exact_for_unit_weights(self):
        out = weighted_sum(np.array([[0.1, 0.2, 0.3], [7.0, 8.0, 9.0]]), WeightVector([0.0, 1.0]))
        np.testing.assert_array_equal(out.coords, [7.0, 8.0, 9.0])

    def test_linearity(self):
        rng = make_rng(23)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            thetas = rng.normal(size=(k, int(rng.integers(1, 10))))
            w = softmax_neg(rng.normal(size=k), 1.0)
            s = float(rng.uniform(-3, 3))
            lhs = s * weighted_sum(thetas, w).coords
            rhs = weighted_sum(s * thetas, w).coords
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 parameter rows for 2 weights"):
            weighted_sum(np.array([[1.0]]), WeightVector([0.5, 0.5]))


class TestFiniteDiffGrad:
    def test_square(self):
        grad = finite_diff_grad(lambda x: x[0] ** 2, [3.0], 1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_constant(self):
        grad = finite_diff_grad(lambda x: 4.25, [1.0, -2.0, 0.5], 1e-4)
        np.testing.assert_allclose(grad, [0.0, 0.0, 0.0], atol=1e-9)

    def test_product(self):
        grad = finite_diff_grad(lambda x: x[0] * x[1], [2.0, 5.0], 1e-5)
        np.testing.assert_allclose(grad, [5.0, 2.0], atol=1e-6)

    def test_non_finite_evaluation_raises(self):
        with pytest.raises(ValueError, match="non-finite evaluation"):
            finite_diff_grad(lambda x: float("nan"), [1.0], 1e-5)

    def test_bad_step(self):
        with pytest.raises(ValueError, match="h must be positive"):
            finite_diff_grad(lambda x: 0.0, [1.0], 0.0)


class TestDomainTypes:
    def test_param_vector_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ParamVector([1.0, np.inf])

    def test_param_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            ParamVector([])

    def test_param_vector_immutable(self):
        vec = ParamVector([1.0, 2.0])
        with pytest.raises(ValueError):
            vec.coords[0] = 5.0
        assert vec.dim == 2

    def test_weight_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            WeightVector([0.5, 0.6])

    def test_weight_vector_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            WeightVector([1.1, -0.1])


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).normal(size=10)
        b = make_rng(123).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).normal(size=10)
        b = make_rng(2).normal(size=10)
        assert np.any(a != b)
