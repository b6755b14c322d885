import numpy as np
import pytest

from hocroute.baselines import (
    RankedPolicy,
    bucket_optimal_scores,
    external_scores,
    pointwise_optimal_scores,
    random_scores,
    total_uncertainty_scores,
)
from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError, SnapshotBatch
from hocroute.losses import LossSpec
from hocroute.partition import fit

from conftest import make_example

brier = LossSpec("brier")


class TestTotalUncertainty:
    def test_degenerate_and_uniform(self):
        test = SnapshotBatch.from_examples([
            make_example("a", [1.0, 0.0], [0], p_star=[1.0, 0.0]),
            make_example("b", [0.5, 0.5], [0], p_star=[0.5, 0.5]),
        ])
        policy = total_uncertainty_scores(test, brier)
        assert policy.scores.tolist() == [0.0, 0.5]

    def test_function_of_prediction_only(self):
        test = SnapshotBatch.from_examples([
            make_example("a", [0.7, 0.3], [0], p_star=[0.9, 0.1]),
            make_example("b", [0.7, 0.3], [1], p_star=[0.1, 0.9]),
        ])
        policy = total_uncertainty_scores(test, brier)
        assert policy.scores[0] == policy.scores[1]


class TestPointwiseOptimal:
    def test_perfect_prediction_scores_zero(self):
        test = SnapshotBatch.from_examples([make_example("a", [0.7, 0.3], [0], p_star=[0.7, 0.3])])
        assert pointwise_optimal_scores(test, brier).scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_opposed_one_hots(self):
        test = SnapshotBatch.from_examples([make_example("a", [0.0, 1.0], [0], p_star=[1.0, 0.0])])
        assert pointwise_optimal_scores(test, brier).scores[0] == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative_for_proper_losses(self, small_run):
        for loss in (brier, LossSpec("crossentropy"), LossSpec("classification")):
            scores = pointwise_optimal_scores(small_run.test[:2000], loss).scores
            assert float(scores.min()) >= -1e-9


class TestBucketOptimal:
    def _model(self, examples, buckets):
        return calibrate(fit("topclass", examples, buckets=buckets), examples)

    def test_single_bin_gives_equal_scores(self):
        test = SnapshotBatch.from_examples([
            make_example("a", [0.9, 0.1], [0], p_star=[1.0, 0.0]),
            make_example("b", [0.8, 0.2], [0], p_star=[0.5, 0.5]),
        ])
        model = self._model(test, buckets=1)
        scores = bucket_optimal_scores(test, brier, model).scores
        assert scores[0] == scores[1]

    def test_two_bin_ordering_by_hand(self):
        # bin A holds reducible losses {0.3, 0.3}; bin B holds {0.1, 0.1}
        def with_reducible(eid, conf, rl):
            t = np.sqrt(rl / 2.0)
            return make_example(eid, [conf, 1 - conf], [0], p_star=[conf - t, 1 - conf + t])

        test = SnapshotBatch.from_examples([
            with_reducible("a1", 0.6, 0.3),
            with_reducible("a2", 0.62, 0.3),
            with_reducible("b1", 0.9, 0.1),
            with_reducible("b2", 0.92, 0.1),
        ])
        model = self._model(test, buckets=2)
        scores = bucket_optimal_scores(test, brier, model).scores
        assert scores[0] == pytest.approx(0.3, abs=1e-9)
        assert scores[2] == pytest.approx(0.1, abs=1e-9)
        assert scores[0] > scores[2]

    def test_singleton_bins_reduce_to_pointwise(self, small_run):
        test = small_run.test[:40]
        model = calibrate(fit("levelset", test, buckets=1), test)
        bucket = bucket_optimal_scores(test, brier, model).scores
        pointwise = pointwise_optimal_scores(test, brier).scores
        # level sets of the binned weak model can still collide; compare where unique
        from hocroute.partition import assign_many

        bins = assign_many(model.partition, test)
        for i, b in enumerate(bins):
            if bins.count(b) == 1:
                assert bucket[i] == pytest.approx(pointwise[i], abs=1e-12)


class TestOtherPolicies:
    def test_random_is_seeded(self, small_run):
        test = small_run.test[:100]
        a = random_scores(test, seed=3).scores
        b = random_scores(test, seed=3).scores
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_scores(test, seed=4).scores)

    def test_external_scores_aligned_by_id(self):
        test = SnapshotBatch.from_examples([make_example("a", [0.6, 0.4], [0]), make_example("b", [0.6, 0.4], [1])])
        policy = external_scores(test, {"b": 2.0, "a": 1.0}, name="xgb")
        assert policy.scores.tolist() == [1.0, 2.0]
        with pytest.raises(InvalidInputError):
            external_scores(test, {"a": 1.0})

    def test_scores_must_be_finite(self):
        with pytest.raises(InvalidInputError):
            RankedPolicy("bad", np.array([1.0, np.inf]))
