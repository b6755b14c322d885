import numpy as np
import pytest
from scipy.stats import wasserstein_distance

from hocroute.calibrator import (
    aggregate_wasserstein,
    calibrate,
    estimate_decomposition,
    wasserstein_1d,
    wasserstein_error,
)
from hocroute.core import InvalidInputError, SnapshotBatch, UnsupportedDiagnosticError
from hocroute.losses import LossSpec, expected_loss_batch
from hocroute.partition import assign_many, fit

from conftest import make_example, model_of

brier = LossSpec("brier")


def one_bin_model(examples, recalibrate=False):
    return calibrate(fit("topclass", examples, buckets=1), examples, recalibrate=recalibrate)


class TestCalibrate:
    def test_centroid_is_mean_of_snapshot_means(self):
        examples = SnapshotBatch.from_examples([
            make_example("a", [0.5, 0.5], [0]),  # snapshot mean (1, 0)
            make_example("b", [0.5, 0.5], [1]),  # snapshot mean (0, 1)
        ])
        model = one_bin_model(examples, recalibrate=True)
        (centroid,) = model.centroids.values()
        np.testing.assert_allclose(centroid.probs, [0.5, 0.5])

    def test_single_example_centroid_is_its_mean(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.6, 0.4], [0, 1, 1])])
        model = one_bin_model(examples, recalibrate=True)
        (centroid,) = model.centroids.values()
        np.testing.assert_allclose(centroid.probs, [1 / 3, 2 / 3])

    def test_no_recalibration_keeps_raw_predictions(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.7, 0.3], [0]), make_example("b", [0.6, 0.4], [1])])
        model = one_bin_model(examples, recalibrate=False)
        (mixture,) = model.mixtures.values()
        np.testing.assert_array_equal(mixture.preds, [[0.7, 0.3], [0.6, 0.4]])
        assert not model.centroids

    def test_recalibration_updates_stored_predictions(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.9, 0.1], [0]), make_example("b", [0.9, 0.1], [1])])
        model = one_bin_model(examples, recalibrate=True)
        (mixture,) = model.mixtures.values()
        np.testing.assert_allclose(mixture.preds, [[0.5, 0.5], [0.5, 0.5]])

    def test_every_example_lands_in_exactly_one_bin(self, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data)
        assert sum(len(m.means) for m in model.mixtures.values()) == len(data)
        assert len(model.global_mixture.means) == len(data)

    def test_deterministic_and_input_ordered(self, small_run):
        data = small_run.calibration[:500]
        spec = fit("topclass", data, buckets=5)
        a = calibrate(spec, data, recalibrate=False)
        b = calibrate(spec, data, recalibrate=False)
        for key in a.mixtures:
            np.testing.assert_array_equal(a.mixtures[key].means, b.mixtures[key].means)
        bins = assign_many(spec, data)
        first_bin = bins[0]
        first_rows = [e.snapshot_mean.probs for e, b_ in zip(data, bins) if b_ == first_bin]
        np.testing.assert_array_equal(a.mixtures[first_bin].means, np.stack(first_rows))


class TestDecomposition:
    def test_opposed_one_hots(self):
        # S = {((.5,.5),(1,0)), ((.5,.5),(0,1))}: one-hot means have zero
        # self-loss, and each sits at squared distance 0.5 from the prediction
        examples = SnapshotBatch.from_examples([make_example("a", [0.5, 0.5], [0]), make_example("b", [0.5, 0.5], [1])])
        model = one_bin_model(examples)
        il, rl = estimate_decomposition(model, "c0:b0", brier)
        assert il == pytest.approx(0.0, abs=1e-12)
        assert rl == pytest.approx(0.5, abs=1e-12)

    def test_prediction_matching_mean_has_zero_reducible(self):
        examples = SnapshotBatch.from_examples([
            make_example("a", [0.5, 0.5], [0, 1]),
            make_example("b", [0.5, 0.5], [1, 0]),
        ])
        model = one_bin_model(examples)
        il, rl = estimate_decomposition(model, "c0:b0", brier)
        assert rl == pytest.approx(0.0, abs=1e-12)
        assert il == pytest.approx(0.5, abs=1e-12)

    def test_perfect_deterministic_bin(self):
        examples = SnapshotBatch.from_examples([make_example("a", [1.0, 0.0], [0])])
        model = one_bin_model(examples)
        il, rl = estimate_decomposition(model, "c0:b0", brier)
        assert (il, rl) == (0.0, 0.0)

    def test_unknown_bin_served_by_global_mixture(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.5, 0.5], [0]), make_example("b", [0.5, 0.5], [1])])
        model = one_bin_model(examples)
        assert estimate_decomposition(model, "c1:b7", brier) == estimate_decomposition(model, "c0:b0", brier)

    @pytest.mark.parametrize(
        "loss",
        [brier, LossSpec("crossentropy"), LossSpec("classification"), LossSpec("three_part")],
        ids=lambda s: s.name,
    )
    def test_additivity_exact(self, small_run, loss):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        for bin_id, mixture in model.mixtures.items():
            il, rl = estimate_decomposition(model, bin_id, loss)
            total = float(np.mean(expected_loss_batch(loss, mixture.means, mixture.preds)))
            assert il + rl == pytest.approx(total, abs=1e-12)

    def test_recalibrated_reducible_is_brier_jensen_gap(self, small_run):
        # against the centroid, the reducible estimate equals the within-bin
        # variance of the snapshot means, hence is nonnegative
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        for bin_id, mixture in model.mixtures.items():
            _, rl = estimate_decomposition(model, bin_id, brier)
            variance = float(np.sum(np.var(mixture.means, axis=0)))
            assert rl == pytest.approx(variance, abs=1e-12)
            assert rl >= -1e-12

    def test_centroid_is_best_constant_per_bin(self, small_run):
        # the centroid minimizes average Brier among constant predictions,
        # so it never loses to the bin's average raw prediction
        data = small_run.calibration
        spec = fit("topclass", data, buckets=10)
        raw = calibrate(spec, data, recalibrate=False)
        recal = calibrate(spec, data, recalibrate=True)
        rng = np.random.default_rng(2)
        for bin_id in raw.mixtures:
            means = raw.mixtures[bin_id].means
            recal_loss = float(np.mean(expected_loss_batch(brier, means, recal.mixtures[bin_id].preds)))
            mean_raw_pred = raw.mixtures[bin_id].preds.mean(axis=0)
            for constant in (mean_raw_pred, rng.dirichlet(np.ones(2))):
                constant_loss = float(
                    np.mean(expected_loss_batch(brier, means, np.tile(constant, (means.shape[0], 1))))
                )
                assert recal_loss <= constant_loss + 1e-12

    def test_recalibration_helps_on_aggregate(self, small_run):
        # per bin a varying, locally calibrated predictor may beat the
        # constant centroid by a sliver (signal discarded by coarsening), but
        # the calibration-set aggregate improves on seeded data
        data = small_run.calibration
        spec = fit("topclass", data, buckets=10)
        raw = calibrate(spec, data, recalibrate=False)
        recal = calibrate(spec, data, recalibrate=True)
        totals = {}
        for model, key in ((raw, "raw"), (recal, "recal")):
            totals[key] = (
                sum(
                    float(expected_loss_batch(brier, m.means, m.preds).sum())
                    for m in model.mixtures.values()
                )
                / len(data)
            )
            per_bin_worst = max(
                float(np.mean(expected_loss_batch(brier, m.means, m.preds)))
                - float(
                    np.mean(
                        expected_loss_batch(
                            brier, raw.mixtures[b].means, raw.mixtures[b].preds
                        )
                    )
                )
                for b, m in model.mixtures.items()
            )
            assert per_bin_worst <= 0.01  # small slack for discarded within-bin signal
        assert totals["recal"] <= totals["raw"] + 1e-12


class TestDeployedPredictions:
    def test_identity_without_recalibration(self, small_run):
        data = small_run.calibration[:100]
        model = calibrate(fit("topclass", data, buckets=5), data, recalibrate=False)
        np.testing.assert_array_equal(
            model.deployed_matrix(data), np.stack([e.weak_pred.probs for e in data])
        )

    def test_centroids_when_recalibrated(self, small_run):
        data = small_run.calibration[:100]
        model = calibrate(fit("topclass", data, buckets=5), data, recalibrate=True)
        bins = assign_many(model.partition, data)
        deployed = model.deployed_matrix(data)
        for row, b in zip(deployed, bins):
            np.testing.assert_array_equal(row, model.centroids[b].probs)
        single = model.deployed_prediction(data[0])
        np.testing.assert_array_equal(single.probs, deployed[0])

    def test_centroids_and_class_count_come_from_the_rows(self, small_run):
        data = small_run.calibration[:100]
        model = calibrate(fit("topclass", data, buckets=5), data, recalibrate=True)
        assert model.num_classes == data.num_classes
        assert list(model.centroids) == list(model.mixtures)
        for b, mixture in model.mixtures.items():
            assert model.centroids[b].probs.tobytes() == mixture.preds[0].tobytes()
        with pytest.raises(TypeError):
            model.centroids["c0:b0"] = model.centroids["c0:b0"]
        # an unseen bin is served the global centroid, stored as the global mixture's prediction
        unseen = model.deployed_matrix(data[:2], (["unseen-bin"], np.array([0, 0])))
        assert unseen.tobytes() == np.tile(model.global_mixture.preds[0], (2, 1)).tobytes()

    @pytest.mark.parametrize("segment, owner", [(0, "bin 'a'"), (1, "global mixture")])
    def test_a_recalibrated_segment_stores_one_prediction(self, segment, owner):
        one = ([[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]])
        two = ([[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]])
        segments = [two if j == segment else one for j in range(2)]
        model_of({"a": segments[0]}, segments[1])  # a raw model may store any predictions
        with pytest.raises(InvalidInputError, match=f"^{owner}: a recalibrated segment must store one prediction"):
            model_of({"a": segments[0]}, segments[1], recalibrated=True)
        assert model_of({"a": one}, one, recalibrated=True).centroids["a"].probs.tolist() == [0.5, 0.5]


class TestWassersteinError:
    def test_identical_distributions_are_zero(self):
        examples = SnapshotBatch.from_examples([make_example(f"e{i}", [0.6, 0.4], [0, 1]) for i in range(4)])
        model = one_bin_model(examples)
        assert wasserstein_error(model, examples)["c0:b0"] == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_l1_distance(self):
        # point mass at (0.2, 0.8) vs point mass at (0.5, 0.5): l1 gap 0.6
        cal = SnapshotBatch.from_examples([make_example("a", [0.6, 0.4], [1, 1, 1, 1, 0])])  # mean (0.2, 0.8)
        ref = SnapshotBatch.from_examples([make_example("b", [0.6, 0.4], [0, 1])])  # mean (0.5, 0.5)
        model = one_bin_model(cal)
        assert wasserstein_error(model, ref)["c0:b0"] == pytest.approx(0.6, abs=1e-12)

    def test_cdf_area_by_hand(self):
        # means {0, 1} vs {0.5, 0.5} on the positive coordinate: distance 0.5, doubled
        cal = SnapshotBatch.from_examples([make_example("a", [0.6, 0.4], [0]), make_example("b", [0.6, 0.4], [1])])
        ref = SnapshotBatch.from_examples([
            make_example("c", [0.6, 0.4], [0, 1]),
            make_example("d", [0.6, 0.4], [1, 0]),
        ])
        model = one_bin_model(cal)
        assert wasserstein_error(model, ref)["c0:b0"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_on_random_unequal_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.random(rng.integers(1, 40))
            b = rng.random(rng.integers(1, 40))
            assert wasserstein_1d(a, b) == pytest.approx(wasserstein_distance(a, b), abs=1e-12)

    def test_multiclass_unsupported(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.2, 0.3, 0.5], [0, 1, 2])])
        model = calibrate(fit("topclass", examples, buckets=1), examples)
        with pytest.raises(UnsupportedDiagnosticError):
            wasserstein_error(model, examples)

    def test_aggregate_is_count_weighted(self, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        reference = small_run.test[:1000]
        per_bin = wasserstein_error(model, reference)
        bins = assign_many(model.partition, reference)
        weights = {b: bins.count(b) for b in set(bins)}
        expected = sum(per_bin[b] * weights[b] for b in per_bin) / sum(weights.values())
        assert aggregate_wasserstein(model, reference) == pytest.approx(expected, abs=1e-12)
        assert 0 <= aggregate_wasserstein(model, reference) <= 2.0
