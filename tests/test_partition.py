import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError, SnapshotBatch
from hocroute.losses import LossSpec
from hocroute.partition import (
    KINDS,
    OVERFLOW_BIN,
    PartitionSpec,
    assign,
    assign_many,
    assign_rows,
    fit,
    fitted_bins,
    partition_quality,
)
from hocroute.storage import load_model, save_model

from conftest import make_example, simplex_arrays


def binary_examples(confidences, top_class=0, labels=(0,)):
    out = []
    for i, c in enumerate(confidences):
        probs = [c, 1 - c] if top_class == 0 else [1 - c, c]
        out.append(make_example(f"e{i}", probs, list(labels)))
    return SnapshotBatch.from_examples(out)


class TestFit:
    def test_median_split_edge(self):
        # {0.5, 0.6, 0.7, 0.8} with two buckets splits at the midpoint 0.65
        examples = binary_examples([0.5, 0.6, 0.7, 0.8])
        spec = fit("topclass", examples, buckets=2)
        np.testing.assert_allclose(spec.class_edges[0], [0.65])
        bins = assign_many(spec, examples)
        assert bins == ["c0:b0", "c0:b0", "c0:b1", "c0:b1"]

    def test_single_bucket_degenerate(self):
        examples = binary_examples([0.5, 0.7, 0.9])
        spec = fit("topclass", examples, buckets=1)
        assert all(assign(spec, e) == "c0:b0" for e in examples)

    def test_occupancy_within_one(self):
        rng = np.random.default_rng(4)
        examples = binary_examples(0.5 + 0.5 * rng.random(103))
        spec = fit("topclass", examples, buckets=10)
        counts = {}
        for b in assign_many(spec, examples):
            counts[b] = counts.get(b, 0) + 1
        occupancies = list(counts.values())
        assert max(occupancies) - min(occupancies) <= 1
        assert sum(occupancies) == 103

    def test_levelset_one_bin_per_distinct_vector(self):
        examples = binary_examples([0.5, 0.5, 0.7, 0.9])
        spec = fit("levelset", examples, buckets=1)
        assert len(spec.level_keys) == 3
        assert len(set(assign_many(spec, examples))) == 3

    def test_feature_requires_features(self):
        examples = binary_examples([0.5, 0.7])
        with pytest.raises(InvalidInputError):
            fit("feature", examples, buckets=2)

    def test_feature_binning(self):
        examples = SnapshotBatch.from_examples(
            [make_example(f"e{i}", [0.6, 0.4], [0], features=[float(v)]) for i, v in enumerate([1, 2, 3, 4])]
        )
        spec = fit("feature", examples, buckets=2)
        np.testing.assert_allclose(spec.edges, [2.5])
        assert assign_many(spec, examples) == ["f:b0", "f:b0", "f:b1", "f:b1"]

    def test_input_guards(self):
        with pytest.raises(InvalidInputError):
            fit("topclass", binary_examples([0.5])[:0], buckets=2)
        with pytest.raises(InvalidInputError):
            fit("topclass", binary_examples([0.5]), buckets=0)
        with pytest.raises(InvalidInputError):
            fit("mystery", binary_examples([0.5]), buckets=1)
        # a count that is not an integer (a bool is not one) or is out of range, under every kind
        examples = SnapshotBatch.from_examples(
            [make_example(f"e{i}", [0.6, 0.4], [0], features=[float(i)]) for i in range(4)]
        )
        bad = [("buckets", 1, v) for v in (0, 2.5, 3.0, np.float64(2.0), True, "3")]
        bad += [("feature_index", 0, v) for v in (-1, np.int64(-1), 0.0, False)]
        for kind in KINDS:
            for name, low, value in bad:
                with pytest.raises(InvalidInputError, match=rf"^'{name}' must be an integer >= {low}, not "):
                    fit(kind, examples, **{name: value})

    def test_numpy_integer_counts_are_stored_as_ints_and_round_trip(self, tmp_path):
        examples = SnapshotBatch.from_examples(
            [make_example(f"e{i}", [0.5 + 0.04 * i, 0.5 - 0.04 * i], [0], features=[0.0, float(i)]) for i in range(8)]
        )
        for kind in ("topclass", "feature"):
            spec = fit(kind, examples, buckets=np.int64(3), feature_index=np.int64(1))
            assert type(spec.buckets) is int and type(spec.feature_index) is int
            save_model(tmp_path / f"{kind}.json", calibrate(spec, examples))
            loaded = load_model(tmp_path / f"{kind}.json").partition
            assert (loaded.buckets, loaded.feature_index) == (spec.buckets, spec.feature_index)
            assert assign_many(loaded, examples) == assign_many(spec, examples)


class TestAssign:
    def test_edge_conventions(self):
        examples = binary_examples([0.5, 0.6, 0.7, 0.8])
        spec = fit("topclass", examples, buckets=2)
        # below the edge stays low; exactly on the edge goes up (half-open bins)
        assert assign(spec, binary_examples([0.64])[0]) == "c0:b0"
        assert assign(spec, binary_examples([0.65])[0]) == "c0:b1"

    def test_out_of_range_clamps_to_end_buckets(self):
        examples = binary_examples([0.5, 0.6, 0.7, 0.8])
        spec = fit("topclass", examples, buckets=3)
        np.testing.assert_allclose(spec.class_edges[0], [0.55, 0.65])
        assert assign(spec, binary_examples([0.51])[0]) == "c0:b0"
        assert assign(spec, binary_examples([0.99])[0]) == "c0:b2"

    def test_unseen_class_maps_to_its_single_bucket(self):
        spec = fit("topclass", binary_examples([0.6, 0.8]), buckets=2)
        other = binary_examples([0.9], top_class=1)[0]
        assert assign(spec, other) == "c1:b0"

    def test_levelset_overflow(self):
        examples = binary_examples([0.5, 0.7])
        spec = fit("levelset", examples, buckets=1)
        unseen = binary_examples([0.123456])[0]
        assert assign(spec, unseen) == OVERFLOW_BIN

    def test_total_and_deterministic_on_calibration(self, small_run):
        examples = small_run.calibration
        spec = fit("topclass", examples, buckets=10)
        first = assign_many(spec, examples)
        second = [assign(spec, e) for e in examples]
        assert first == second
        universe = set(fitted_bins(spec))
        assert set(first) <= universe

    def test_assign_many_matches_scalar_for_feature(self, small_run):
        examples = small_run.calibration[:200]
        spec = fit("feature", examples, buckets=7)
        assert assign_many(spec, examples) == [assign(spec, e) for e in examples]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(simplex_arrays(3), st.floats(-3.0, 3.0)), min_size=1, max_size=40),
        kind=st.sampled_from(KINDS),
        buckets=st.integers(1, 4),
    )
    def test_assign_rows_matches_assign_row_by_row(self, rows, kind, buckets):
        # fitted on a prefix, so level-set queries both hit and overflow
        examples = SnapshotBatch.from_examples(
            [make_example(f"e{i}", p, [0], features=[x]) for i, (p, x) in enumerate(rows)]
        )
        spec = fit(kind, examples[: len(examples) // 2 + 1], buckets=buckets)
        probs = np.stack([e.weak_pred.probs for e in examples])
        bins, index = assign_rows(spec, probs, np.array([[x] for _, x in rows]))
        assert len(set(bins)) == len(bins)
        assert [bins[i] for i in index] == [assign(spec, e) for e in examples]
        assert assign_many(spec, examples) == [assign(spec, e) for e in examples]

    @settings(max_examples=60, deadline=None)
    @given(
        features=st.lists(st.lists(st.floats(-3.0, 3.0), max_size=3), min_size=1, max_size=8),
        edges=st.lists(st.floats(-3.0, 3.0), max_size=3, unique=True).map(sorted),
        feature_index=st.integers(0, 2),
    )
    def test_a_row_view_gets_its_rows_feature_bin(self, features, edges, feature_index):
        """Rows with fewer features than others, padded with NaN: ``assign`` of
        a row view and ``assign_rows`` of its row agree, on a bin or on refusing."""
        width = max(map(len, features))
        batch = SnapshotBatch(
            ids=[f"e{i}" for i in range(len(features))],
            probs=[[0.6, 0.4]] * len(features),
            counts=[[1, 0]] * len(features),
            features=[row + [np.nan] * (width - len(row)) for row in features],
        )
        spec = PartitionSpec(kind="feature", buckets=len(edges) + 1, edges=np.array(edges), feature_index=feature_index)

        def bin_or_none(assigner):
            try:
                return assigner()
            except InvalidInputError:
                return None

        for i, row in enumerate(batch):
            expected = bin_or_none(lambda: assign_rows(spec, batch.probs[i : i + 1], batch.features[i : i + 1])[0][0])
            assert bin_or_none(lambda: assign(spec, row)) == expected
            assert (expected is None) == (len(features[i]) <= feature_index)
        if all(len(row) > feature_index for row in features):
            bins, index = assign_rows(spec, batch.probs, batch.features)
            assert [bins[j] for j in index] == [assign(spec, row) for row in batch]

    def test_missing_feature_rejected_by_every_path(self):
        examples = SnapshotBatch.from_examples(
            [make_example("a", [0.6, 0.4], [0], features=[0.1]), make_example("b", [0.6, 0.4], [0])]
        )
        spec = fit("feature", examples[:1], buckets=2)
        with pytest.raises(InvalidInputError, match="lacks feature 0"):
            assign(spec, examples[1])
        with pytest.raises(InvalidInputError, match="lacks feature 0"):
            assign_many(spec, examples)
        with pytest.raises(InvalidInputError, match="lacks feature 0"):
            assign_rows(spec, np.array([[0.6, 0.4]]), np.array([[np.nan]]))


class TestRoundTrip:
    def test_record_round_trip(self, small_run):
        for kind, kwargs in (("topclass", {}), ("feature", {}), ("levelset", {})):
            spec = fit(kind, small_run.calibration[:300], buckets=5, **kwargs)
            clone = PartitionSpec.from_record(spec.to_record())
            sample = small_run.calibration[300:400]
            assert assign_many(spec, sample) == assign_many(clone, sample)


class TestPartitionQuality:
    def test_identical_reducible_loss_scores_zero(self):
        examples = SnapshotBatch.from_examples([make_example(f"e{i}", [0.7, 0.3], [0, 0, 1, 1]) for i in range(4)])
        spec = fit("topclass", examples, buckets=1)
        report = partition_quality(spec, examples, LossSpec("brier"))
        assert report.per_bin["c0:b0"] == pytest.approx(0.0, abs=1e-12)

    def test_two_value_bin_by_hand(self):
        # reducible losses {0, 0.2}: half the mean absolute deviation is 0.05
        t = float(np.sqrt(0.1))
        examples = SnapshotBatch.from_examples([
            make_example("a", [1.0, 0.0], [0]),  # prediction equals the mean: reducible 0
            make_example("b", [1.0 - t, t], [0]),  # |y - f|^2 = 2 t^2 = 0.2
        ])
        spec = fit("topclass", examples, buckets=1)
        report = partition_quality(spec, examples, LossSpec("brier"))
        assert report.per_bin["c0:b0"] == pytest.approx(0.05, abs=1e-12)
        assert report.aggregate == pytest.approx(0.05, abs=1e-12)

    def test_single_point_bin_is_zero(self):
        examples = SnapshotBatch.from_examples([make_example("a", [0.9, 0.1], [0])])
        spec = fit("topclass", examples, buckets=1)
        report = partition_quality(spec, examples, LossSpec("brier"))
        assert report.per_bin["c0:b0"] == 0.0

    def test_empty_bins_flagged(self):
        examples = binary_examples([0.55, 0.65, 0.75, 0.85])
        spec = fit("topclass", examples, buckets=2)
        report = partition_quality(spec, examples[:2], LossSpec("brier"))
        assert "c0:b1" in report.empty_bins

    def test_refinement_never_hurts_on_seeded_data(self, small_run):
        # nested equal-mass splits: 5 -> 10 -> 20 buckets
        loss = LossSpec("brier")
        data = small_run.calibration
        aggregates = []
        for buckets in (5, 10, 20):
            spec = fit("topclass", data, buckets=buckets)
            aggregates.append(partition_quality(spec, data, loss).aggregate)
        assert aggregates[1] <= aggregates[0] + 1e-12
        assert aggregates[2] <= aggregates[1] + 1e-12

    def test_empty_data_rejected(self):
        spec = fit("topclass", binary_examples([0.5]), buckets=1)
        with pytest.raises(InvalidInputError):
            partition_quality(spec, binary_examples([0.5])[:0], LossSpec("brier"))
