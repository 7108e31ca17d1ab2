"""Meta-feature extraction and composite-error tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from metafl import metafeatures
from metafl.datagen import ClientDataset, make_blobs
from metafl.metafeatures import (
    FEATURE_FIELDS,
    CompositeErrorConfig,
    composite_errors,
    extract,
)
from metafl.models import ClientError, ModelSpec, TrainConfig, init_params, local_loss, train_local
from metafl.numerics import ParamVector, make_rng
from testkit import as_clients

SPEC = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
CFG = TrainConfig(learning_rate=0.1, epochs=1, batch_size=16, seed=5)


def feat(entropy=0.0, size=10, norm=0.0, complexity=0.0, sens=0.0):
    """One feature-matrix row, in FEATURE_FIELDS order."""
    return [size, entropy, norm, complexity, sens]


def extract_one(theta_prev, theta_k, train, val, cfg=CFG):
    """extract for a cohort of one client, as {feature name: value}."""
    (row,) = extract(SPEC, theta_prev, theta_k.coords[None], as_clients([(train, val)]), cfg)
    return dict(zip(FEATURE_FIELDS, row))


@pytest.fixture(scope="module")
def client_data():
    train = make_blobs(2, 3, 60, 0.6, 1)
    val = make_blobs(2, 3, 20, 0.6, 2)
    return train, val


class TestExtract:
    def test_zero_update_norm(self, client_data):
        train, val = client_data
        theta = init_params(SPEC, 0)
        x = extract_one(theta, theta, train, val)
        assert x["update_norm"] == 0.0

    def test_update_norm_value(self, client_data):
        train, val = client_data
        a = init_params(SPEC, 0)
        b = ParamVector(a.coords + 1.0)
        x = extract_one(a, b, train, val)
        np.testing.assert_allclose(x["update_norm"], math.sqrt(a.dim), rtol=1e-12)

    def test_balanced_binary_entropy(self):
        train = ClientDataset(np.zeros((40, 3)) + np.arange(3), [0, 1] * 20)
        val = make_blobs(2, 3, 10, 0.6, 3)
        theta = init_params(SPEC, 0)
        x = extract_one(theta, theta, train, val)
        np.testing.assert_allclose(x["label_entropy"], math.log(2), atol=1e-12)

    def test_skewed_entropy_value(self):
        # frozen from the direct sum -sum(p ln p) with p = (3/4, 1/4)
        train = ClientDataset(np.ones((40, 3)), [0] * 30 + [1] * 10)
        val = make_blobs(2, 3, 10, 0.6, 3)
        theta = init_params(SPEC, 0)
        x = extract_one(theta, theta, train, val)
        np.testing.assert_allclose(x["label_entropy"], 0.5623351446188083, atol=1e-6)

    def test_dataset_size(self, client_data):
        train, val = client_data
        theta = init_params(SPEC, 0)
        assert extract_one(theta, theta, train, val)["dataset_size"] == train.n

    def test_data_complexity_is_linear_probe_val_loss(self, client_data):
        train, val = client_data
        theta = init_params(SPEC, 0)
        x = extract_one(theta, theta, train, val)
        probe = train_local(
            SPEC, ParamVector(np.zeros(theta.dim)), train, replace(CFG, epochs=1)
        )
        assert x["data_complexity"] == local_loss(SPEC, probe, val)

    def test_lr_sensitivity_definition(self, client_data):
        train, val = client_data
        theta = init_params(SPEC, 4)
        x = extract_one(theta, theta, train, val)
        one = replace(CFG, epochs=1)
        bumped = replace(CFG, epochs=1, learning_rate=1.5 * CFG.learning_rate)
        base = local_loss(SPEC, train_local(SPEC, theta, train, one), val)
        bump = local_loss(SPEC, train_local(SPEC, theta, train, bumped), val)
        np.testing.assert_allclose(x["lr_sensitivity"], abs(bump - base) / 0.5, rtol=1e-15)

    def test_deterministic_and_finite(self, client_data):
        train, val = client_data
        a = init_params(SPEC, 1)
        b = train_local(SPEC, a, train, CFG)
        x1 = extract(SPEC, a, b.coords[None], as_clients([(train, val)]), CFG)
        x2 = extract(SPEC, a, b.coords[None], as_clients([(train, val)]), CFG)
        assert x1.shape == (1, len(FEATURE_FIELDS))
        assert x1.tobytes() == x2.tobytes()
        assert np.all(x1 >= 0.0)
        assert np.all(np.isfinite(x1))


    def test_cohort_equals_one_client_calls(self, client_data):
        train, val = client_data
        other = make_blobs(2, 3, 37, 0.9, 4), make_blobs(2, 3, 11, 0.9, 5)
        prev = init_params(SPEC, 2)
        thetas = np.stack([train_local(SPEC, prev, t, CFG).coords for t in (train, other[0])])
        cohort = extract(SPEC, prev, thetas, as_clients([(train, val), other]), CFG)
        one_by_one = [extract(SPEC, prev, th[None], as_clients([pair]), CFG)[0]
                      for th, pair in zip(thetas, [(train, val), other])]
        assert cohort.tobytes() == np.array(one_by_one).tobytes()

    def test_failure_names_client(self, client_data):
        train, val = client_data
        prev = init_params(SPEC, 0)
        huge = ClientDataset(train.features * 1e160, train.labels)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ClientError, match="diverged") as info:
                extract(SPEC, prev, np.stack([prev.coords] * 2), as_clients([(train, val), (huge, val)]), CFG)
        assert info.value.index == 1
        short = np.stack([prev.coords[:-1]] * 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            extract(SPEC, prev, short, as_clients([(train, val)] * 2), CFG)


class TestCompositeError:
    def test_zero_coefficients_return_loss(self):
        losses = np.array([0.37, 1e-300, 2.5, 0.0, 7.0 / 3.0])
        cohort = [feat(entropy=0.1 * i, size=i + 1) for i in range(losses.size)]
        # bitwise what the weighted form gives with every coefficient zero
        weighted = losses + np.array(cohort, dtype=float) @ np.zeros(5)
        for features in (np.array(cohort, dtype=float), None):
            errors = composite_errors(losses, features, CompositeErrorConfig())
            assert errors.tobytes() == losses.tobytes() == weighted.tobytes()
            assert errors is not losses

    def test_nonzero_coefficients_need_features(self):
        cfg = CompositeErrorConfig(c=(0.0, 0.5, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="meta-features"):
            composite_errors([0.1, 0.2], None, cfg)
        with pytest.raises(ValueError, match="features shape"):
            composite_errors([0.1, 0.2], np.zeros((3, 5)), cfg)

    def test_identical_cohort_scales_to_zero(self):
        cohort = [feat(entropy=0.4, size=12)] * 3
        cfg = CompositeErrorConfig(c=(1.0, -2.0, 3.0, 0.5, 0.7), normalize=True)
        np.testing.assert_array_equal(composite_errors([0.25] * 3, cohort, cfg), [0.25] * 3)

    def test_hand_value(self):
        # cohort entropies (0, 1, 0.8): min-max scales the last entropy to
        # 0.8, so its E = 0.4 + 0.5 * 0.8 = 0.8
        cohort = [feat(entropy=0.0), feat(entropy=1.0), feat(entropy=0.8)]
        cfg = CompositeErrorConfig(c=(0.0, 0.5, 0.0, 0.0, 0.0), normalize=True)
        errors = composite_errors([0.0, 0.0, 0.4], cohort, cfg)
        np.testing.assert_allclose(errors[2], 0.8, atol=1e-12)

    def test_unnormalized_uses_raw_features(self):
        cohort = [feat(entropy=0.0), feat(entropy=0.8)]
        cfg = CompositeErrorConfig(c=(0.0, 2.0, 0.0, 0.0, 0.0), normalize=False)
        errors = composite_errors([0.0, 0.1], cohort, cfg)
        np.testing.assert_allclose(errors[1], 0.1 + 2.0 * 0.8, atol=1e-12)

    def test_monotone_in_loss(self):
        rng = make_rng(41)
        cohort = [
            feat(entropy=float(rng.uniform(0, 1)), size=int(rng.integers(5, 50)))
            for _ in range(6)
        ]
        cfg = CompositeErrorConfig(c=(0.2, 0.3, 0.1, 0.4, 0.5), normalize=True)
        values = []
        for loss in np.sort(rng.uniform(0, 2, size=10)):
            losses = np.zeros(len(cohort))
            losses[2] = loss
            values.append(composite_errors(losses, cohort, cfg)[2])
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_normalization_range(self):
        rng = make_rng(43)
        cohort = [
            feat(
                entropy=float(rng.uniform(0, 2)),
                size=int(rng.integers(1, 100)),
                norm=float(rng.uniform(0, 5)),
            )
            for _ in range(8)
        ]
        matrix = np.array(cohort, dtype=float)
        lo, hi = matrix.min(axis=0), matrix.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        scaled = (matrix - lo) / span
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)
        # cross-check through the public API with a one-hot coefficient
        for j in range(5):
            c = [0.0] * 5
            c[j] = 1.0
            cfg = CompositeErrorConfig(c=tuple(c), normalize=True)
            errors = composite_errors(np.zeros(len(cohort)), cohort, cfg)
            np.testing.assert_allclose(errors, scaled[:, j], atol=1e-12)

    def test_bad_coefficient_length(self):
        with pytest.raises(ValueError, match="coefficients"):
            CompositeErrorConfig(c=(1.0, 2.0))

    def test_non_finite_loss(self):
        cohort = [feat()]
        with pytest.raises(ValueError, match="non-finite"):
            composite_errors([float("nan")], cohort, CompositeErrorConfig())

    def test_meta_features_validation(self, monkeypatch, client_data):
        # extract checks every row; a non-finite or negative feature names its client
        train, val = client_data
        prev = init_params(SPEC, 0)
        inf = float("inf")
        cases = (
            ([0.5, 0.5], [0.5, 0.5], [0.5, inf], "must be finite", 1),
            ([0.5, 0.5], [0.5, 0.5], [0.5, -1.0], "must be nonnegative", 1),
            # the lowest-numbered failing client, whichever pass it failed in
            ([0.5, inf], [0.5, 0.5], [-1.0, 0.5], "must be nonnegative", 0),
        )
        for base, bump, probe, message, index in cases:
            losses = iter(map(np.array, (base, bump, probe)))  # one [K] array per pass
            monkeypatch.setattr(metafeatures, "cohort_losses", lambda *args: next(losses))
            with pytest.raises(ClientError, match=message) as info:
                extract(SPEC, prev, np.stack([prev.coords] * 2), as_clients([(train, val)] * 2), CFG)
            assert info.value.index == index
