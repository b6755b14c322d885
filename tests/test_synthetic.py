import math

import numpy as np
import pytest

from hocroute import synthetic
from hocroute.core import InvalidInputError
from hocroute.synthetic import (
    KINDS,
    eval_ground_truth,
    fit_weak_predictor,
    generate,
)


def sinusoidal_reference(x: float) -> float:
    """Independent scalar transcription of the sinusoidal target."""
    ax = abs(x)
    w = 0.2 * math.log(1.0 + math.exp((ax - 1.0) / 0.2))
    sgn = 0.0 if x == 0 else math.copysign(1.0, x)
    v = sgn * (120.0 * ax - 112.0 * w - 0.0635)
    u = 0.6 * math.cos(v) + 0.4 * math.cos(4.2 * x)
    return (0.98 * u + 1.0) / 2.0


class TestGroundTruth:
    def test_pinned_values(self):
        assert eval_ground_truth("three_steps", -2.0) == 0.0
        assert eval_ground_truth("three_steps", 1.0) == 1.0
        assert eval_ground_truth("piecewise", -0.25) == 0.25
        assert eval_ground_truth("piecewise", -2.0) == 0.5
        assert eval_ground_truth("sinusoidal", 0.0) == pytest.approx(0.99, abs=1e-9)

    def test_piecewise_branches(self):
        x = np.array([-1.5, -0.75, -0.25, 0.25, 0.75])
        values = eval_ground_truth("piecewise", x)
        assert values[0] == 0.5
        assert values[1] == pytest.approx(math.sin(-75.0) / 4.0 + 0.5)
        assert values[2] == 0.25
        assert values[3] == pytest.approx(math.sin(25.0) / 4.0 + 0.5)
        assert values[4] == pytest.approx(math.sin(75.0) / 4.0 + 0.25)

    def test_sinusoidal_matches_independent_transcription(self):
        rng = np.random.default_rng(21)
        xs = np.concatenate([rng.standard_normal(200), [0.0, 1.0, -1.0, 5.0, -5.0]])
        for x in xs:
            assert eval_ground_truth("sinusoidal", float(x)) == pytest.approx(
                sinusoidal_reference(float(x)), abs=1e-12
            )

    def test_outputs_in_unit_interval_on_dense_scan(self):
        grid = np.linspace(-6.0, 6.0, 1_000_001)
        for kind in KINDS:
            values = eval_ground_truth(kind, grid)
            assert float(values.min()) >= 0.0
            assert float(values.max()) <= 1.0

    def test_sinusoidal_components_bounded(self):
        grid = np.linspace(-6.0, 6.0, 100_001)
        ax = np.abs(grid)
        w = 0.2 * np.logaddexp(0.0, (ax - 1.0) / 0.2)
        assert float(w.min()) >= 0.0
        u = 2.0 * eval_ground_truth("sinusoidal", grid) - 1.0
        assert float(np.abs(u).max()) <= 0.98 + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            eval_ground_truth("sawtooth", 0.0)


class TestGenerate:
    def test_same_seed_identical(self):
        a = generate("three_steps", sizes=(200, 100, 100), k=7, seed=5)
        b = generate("three_steps", sizes=(200, 100, 100), k=7, seed=5)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        for ea, eb in zip([*a.calibration, *a.test], [*b.calibration, *b.test]):
            assert ea.id == eb.id
            np.testing.assert_array_equal(ea.labels, eb.labels)
            np.testing.assert_array_equal(ea.weak_pred.probs, eb.weak_pred.probs)

    def test_split_streams_are_independent(self):
        # growing the training split must not perturb the calibration draws
        small = generate("three_steps", sizes=(100, 80, 50), k=5, seed=9)
        large = generate("three_steps", sizes=(5000, 80, 50), k=5, seed=9)
        for ea, eb in zip(small.calibration, large.calibration):
            np.testing.assert_array_equal(ea.labels, eb.labels)
            np.testing.assert_array_equal(ea.features, eb.features)

    def test_degenerate_region_gives_one_hot_means(self):
        data = generate("three_steps", sizes=(500, 400, 400), k=100, seed=3)
        for e in data.test:
            x = float(e.features[0])
            if x <= -1.0:
                assert e.snapshot_mean.probs.tolist() == [1.0, 0.0]
            elif x >= 1.0:
                assert e.snapshot_mean.probs.tolist() == [0.0, 1.0]

    def test_snapshot_means_concentrate(self):
        data = generate("sinusoidal", sizes=(500, 2000, 100), k=100, seed=13)
        gaps = [
            abs(e.snapshot_mean.probs[1] - e.p_star.probs[1]) if e.p_star is not None else 0.0
            for e in data.calibration
        ]
        # calibration examples carry no exact conditional; recompute it
        p = eval_ground_truth("sinusoidal", np.array([float(e.features[0]) for e in data.calibration]))
        gaps = np.abs(np.array([e.snapshot_mean.probs[1] for e in data.calibration]) - p)
        assert float(gaps.mean()) <= 3.0 * math.sqrt(0.25 / 100)

    def test_test_split_carries_exact_conditional(self):
        data = generate("piecewise", sizes=(100, 50, 60), k=9, seed=1)
        for e in data.test:
            assert e.p_star is not None
            expected = eval_ground_truth("piecewise", float(e.features[0]))
            assert e.p_star.probs[1] == pytest.approx(expected, abs=1e-12)
        assert all(e.p_star is None for e in data.calibration)

    def test_size_guards(self):
        with pytest.raises(InvalidInputError):
            generate("piecewise", sizes=(0, 10, 10), k=3, seed=0)
        with pytest.raises(InvalidInputError):
            generate("piecewise", sizes=(10, 10, 10), k=0, seed=0)


class TestWeakPredictor:
    def test_constant_labels(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(500)
        weak = fit_weak_predictor(x, np.ones(500, dtype=int), bins=10)
        probs = weak.predict_proba(np.linspace(-2, 2, 50))
        assert float(probs[:, 1].min()) >= 0.9

    def test_single_bin_is_base_rate(self):
        x = np.arange(10.0)
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        weak = fit_weak_predictor(x, y, bins=1)
        # add-one smoothing: (3 + 1) / (10 + 2)
        assert weak.predict(5.0).probs[1] == pytest.approx(4.0 / 12.0, abs=1e-12)

    def test_clamped_outputs(self):
        x = np.linspace(-1, 1, 300)
        weak = fit_weak_predictor(x, np.zeros(300, dtype=int), bins=5)
        assert float(weak.predict_proba(x)[:, 1].min()) >= 0.01

    def test_three_steps_accuracy_monte_carlo(self):
        # oracle: mean absolute gap to the exact conditional on a fresh sample.
        # The middle band oscillates far below the cell width, so no pointwise
        # estimator can beat the direct-integration floor there:
        # P(|x|<1) * E|sin|/2 ~ 0.683 * 0.318 ~ 0.217. The estimator must sit
        # near that floor overall and fit the resolvable plateaus tightly.
        rng = np.random.default_rng(77)
        train_x = rng.standard_normal(10_000)
        train_p = eval_ground_truth("three_steps", train_x)
        train_y = (rng.random(10_000) < train_p).astype(int)
        weak = fit_weak_predictor(train_x, train_y, bins=50)
        eval_x = rng.standard_normal(20_000)
        gap = np.abs(weak.predict_proba(eval_x)[:, 1] - eval_ground_truth("three_steps", eval_x))
        assert float(gap.mean()) <= 0.25
        plateau = np.abs(eval_x) >= 1.2
        assert float(gap[plateau].mean()) <= 0.05

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            fit_weak_predictor(np.array([]), np.array([]), bins=3)
        with pytest.raises(InvalidInputError):
            fit_weak_predictor(np.array([0.0]), np.array([2]), bins=3)
        for bins in (0, -4):
            with pytest.raises(InvalidInputError, match="bins >= 1"):
                fit_weak_predictor(np.arange(10.0), np.zeros(10, dtype=int), bins=bins)


class TestBlockedLabelDraws:
    """Labels are drawn in row blocks of one stream; the counts must equal a
    single ``rng.random((n, k))`` draw bit for bit."""

    def test_counts_across_block_boundaries_equal_single_draw(self, monkeypatch):
        p = np.random.default_rng(5).random(1003)
        expected = (np.random.default_rng(9).random((1003, 100)) < p[:, None]).sum(axis=1)
        monkeypatch.setattr(synthetic, "LABEL_BLOCK", 256 * 100)  # 256-row blocks, a partial last one
        got = synthetic._positive_counts(np.random.default_rng(9), p, 100)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_generated_splits_equal_single_draw_reference(self):
        sizes, k, seed = (500, 3000, 2700), 100, 31
        assert sizes[1] * k > synthetic.LABEL_BLOCK and sizes[2] * k > synthetic.LABEL_BLOCK
        data = generate("sinusoidal", sizes=sizes, k=k, seed=seed)
        _, rng_cal, rng_test = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
        cal_x = rng_cal.standard_normal(sizes[1])
        cal_expected = (rng_cal.random((sizes[1], k)) < eval_ground_truth("sinusoidal", cal_x)[:, None]).sum(axis=1)
        test_x = rng_test.standard_normal(sizes[2])
        test_expected = (rng_test.random((sizes[2], k)) < eval_ground_truth("sinusoidal", test_x)[:, None]).sum(axis=1)
        assert np.array_equal(data.calibration.counts[:, 1], cal_expected)
        assert np.array_equal(data.test.counts[:, 1], test_expected)
        assert np.array_equal(data.test.counts.sum(axis=1), np.full(sizes[2], k))
