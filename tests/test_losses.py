import math

import numpy as np
import pytest
from hypothesis import given, settings

from hocroute.core import InvalidInputError, LabelDistribution, UnsupportedLossError
from hocroute.losses import (
    BINARY_ONLY,
    LossSpec,
    entropy,
    entropy_batch,
    expected_loss,
    expected_loss_batch,
    pointwise_loss,
)

from conftest import simplexes

d = LabelDistribution

ALL_SPECS = [
    LossSpec("brier"),
    LossSpec("crossentropy"),
    LossSpec("classification"),
    LossSpec("weighted_fp_fn", c_fp=2.0, c_fn=1.0),
    LossSpec("three_part"),
    LossSpec("asymmetric_class", gamma=2.0),
]
MULTICLASS_SPECS = [s for s in ALL_SPECS if s.kind not in BINARY_ONLY]


def random_simplex(rng, n, classes):
    raw = rng.random((n, classes))
    return raw / raw.sum(axis=1, keepdims=True)


class TestSpec:
    def test_bounds(self):
        assert LossSpec("brier").bound == 2.0
        assert LossSpec("crossentropy", epsilon=1e-6).bound == pytest.approx(math.log(1e6))
        assert LossSpec("classification").bound == 1.0
        assert LossSpec("weighted_fp_fn", c_fp=3.0, c_fn=0.5).bound == 3.0
        assert LossSpec("three_part").bound == 4.0
        assert LossSpec("asymmetric_class", gamma=2.5).bound == 2.5
        assert LossSpec("asymmetric_class", gamma=0.5).bound == 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LossSpec("nope")
        with pytest.raises(InvalidInputError):
            LossSpec("weighted_fp_fn", c_fp=0.0)
        with pytest.raises(InvalidInputError):
            LossSpec("asymmetric_class", gamma=-1.0)
        with pytest.raises(InvalidInputError):
            LossSpec("crossentropy", epsilon=0.7)


class TestPointwise:
    def test_brier_perfect(self):
        assert pointwise_loss(LossSpec("brier"), 0, d([1.0, 0.0])) == 0.0

    def test_crossentropy_uniform(self):
        value = pointwise_loss(LossSpec("crossentropy"), 0, d([0.5, 0.5]))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_three_part_middle_band(self):
        # predicted positive probability in [0.25, 15/16) costs a flat 0.25
        assert pointwise_loss(LossSpec("three_part"), 1, d([0.5, 0.5])) == 0.25
        assert pointwise_loss(LossSpec("three_part"), 1, d([0.8, 0.2])) == 1.0
        assert pointwise_loss(LossSpec("three_part"), 0, d([0.02, 0.98])) == 4.0
        # boundaries: lower strict, upper inclusive
        assert pointwise_loss(LossSpec("three_part"), 1, d([0.75, 0.25])) == 0.25
        assert pointwise_loss(LossSpec("three_part"), 0, d([1 / 16, 15 / 16])) == 4.0

    def test_weighted_fp_fn_threshold(self):
        spec = LossSpec("weighted_fp_fn", c_fp=2.0, c_fn=1.0)
        # odds threshold p1/p0 >= 2 ; at p = (1/3, 2/3) the ratio is exactly 2
        assert pointwise_loss(spec, 0, d([1 / 3, 2 / 3])) == 2.0
        assert pointwise_loss(spec, 1, d([1 / 3, 2 / 3])) == 0.0
        assert pointwise_loss(spec, 1, d([0.6, 0.4])) == 1.0
        # degenerate p0 = 0 must not divide by zero
        assert pointwise_loss(spec, 0, d([0.0, 1.0])) == 2.0

    def test_asymmetric_decision(self):
        spec = LossSpec("asymmetric_class", gamma=2.0)
        # scores: s0 = 2*p0 - 1, so p = (0.6, 0.4) gives s = (0.2, 0.4) -> predict 1
        assert pointwise_loss(spec, 1, d([0.6, 0.4])) == 0.0
        assert pointwise_loss(spec, 0, d([0.6, 0.4])) == 1.0
        # p = (0.8, 0.2) gives s = (0.6, 0.2) -> predict 0, penalty gamma on a miss
        assert pointwise_loss(spec, 1, d([0.8, 0.2])) == 2.0
        assert pointwise_loss(spec, 0, d([0.8, 0.2])) == 0.0

    def test_binary_only_guard(self):
        for kind in BINARY_ONLY:
            with pytest.raises(UnsupportedLossError):
                pointwise_loss(LossSpec(kind), 0, d([0.2, 0.3, 0.5]))

    def test_label_range(self):
        with pytest.raises(InvalidInputError):
            pointwise_loss(LossSpec("brier"), 2, d([0.5, 0.5]))


class TestExpected:
    def test_brier_norm_identity(self):
        # E_{y~p}[brier] = 1 - |p|^2
        assert expected_loss(LossSpec("brier"), d([0.5, 0.5]), d([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)

    def test_classification_self(self):
        value = expected_loss(LossSpec("classification"), d([0.7, 0.3]), d([0.7, 0.3]))
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_one_hot_perfect_for_every_kind(self):
        for spec in ALL_SPECS:
            # cross-entropy's probability clamp leaves a floor of -ln(1-eps)
            tol = 2.0 * spec.epsilon if spec.kind == "crossentropy" else 1e-9
            assert expected_loss(spec, d([0.0, 1.0]), d([0.0, 1.0])) == pytest.approx(0.0, abs=tol)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            expected_loss(LossSpec("brier"), d([0.2, 0.3, 0.5]), d([0.5, 0.5]))


class TestEntropy:
    def test_degenerate_and_uniform(self):
        assert entropy(LossSpec("brier"), d([1.0, 0.0])) == 0.0
        assert entropy(LossSpec("brier"), d([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)
        assert entropy(LossSpec("crossentropy"), d([0.5, 0.5])) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_brier_entropy_identity_exact(self):
        rng = np.random.default_rng(3)
        for probs in random_simplex(rng, 200, 3):
            value = entropy(LossSpec("brier"), d(probs))
            assert value == pytest.approx(1.0 - float(np.sum(probs**2)), abs=1e-12)

    def test_crossentropy_matches_shannon(self):
        p = np.array([0.2, 0.3, 0.5])
        assert entropy(LossSpec("crossentropy"), d(p)) == pytest.approx(-np.sum(p * np.log(p)), abs=1e-9)


class TestBatchAgainstScalar:
    def test_batch_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for spec in ALL_SPECS:
            for classes in (2,) if spec.kind in BINARY_ONLY else (2, 4):
                truth = random_simplex(rng, 100, classes)
                pred = random_simplex(rng, 100, classes)
                batch = expected_loss_batch(spec, truth, pred)
                scalar = np.array([expected_loss(spec, d(t), d(p)) for t, p in zip(truth, pred)])
                np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_entropy_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        for spec in MULTICLASS_SPECS:
            probs = random_simplex(rng, 100, 3)
            batch = entropy_batch(spec, probs)
            scalar = np.array([entropy(spec, d(p)) for p in probs])
            np.testing.assert_allclose(batch, scalar, atol=1e-12)

    def test_batch_shape_guard(self):
        with pytest.raises(InvalidInputError):
            expected_loss_batch(LossSpec("brier"), np.ones((3, 2)) / 2, np.ones((4, 2)) / 2)


class TestProperties:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_properness_sample(self, spec):
        rng = np.random.default_rng(13)
        truth = random_simplex(rng, 2000, 2)
        other = random_simplex(rng, 2000, 2)
        excess = entropy_batch(spec, truth) - expected_loss_batch(spec, truth, other)
        assert float(excess.max()) <= 1e-9

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_bounded_sample(self, spec):
        rng = np.random.default_rng(17)
        preds = random_simplex(rng, 2000, 2)
        labels = rng.integers(0, 2, size=2000)
        values = np.array([pointwise_loss(spec, int(y), d(p)) for y, p in zip(labels, preds)])
        assert values.min() >= 0.0
        assert values.max() <= spec.bound + 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_lipschitz_sample(self, spec):
        rng = np.random.default_rng(19)
        p1 = random_simplex(rng, 5000, 2)
        p2 = random_simplex(rng, 5000, 2)
        q = random_simplex(rng, 5000, 2)
        gap = np.abs(expected_loss_batch(spec, p1, q) - expected_loss_batch(spec, p2, q))
        bound = (spec.bound / 2.0) * np.abs(p1 - p2).sum(axis=1)
        assert float((gap - bound).max()) <= 1e-9
        egap = np.abs(entropy_batch(spec, p1) - entropy_batch(spec, p2))
        assert float((egap - bound).max()) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(simplexes(3), simplexes(3))
    def test_properness_hypothesis_multiclass(self, truth, other):
        for spec in MULTICLASS_SPECS:
            assert entropy(spec, truth) <= expected_loss(spec, truth, other) + 1e-9

    def test_crossentropy_stays_bounded_at_corners(self):
        # clamping keeps the loss within ln(1/eps) even for one-hot predictions
        spec = LossSpec("crossentropy")
        for probs in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            for y in range(3):
                assert pointwise_loss(spec, y, d(probs)) <= spec.bound + 1e-12
