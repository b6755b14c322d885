import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hocroute.core import (
    ABSTAIN,
    PREDICT,
    MASS_GUARD,
    SIMPLEX_ATOL,
    InvalidInputError,
    LabelDistribution,
    RoutingConfig,
    RoutingDecision,
    SnapshotBatch,
    SnapshotExample,
    action_priority,
    ground_truth,
    route_action,
    simplex_ok,
    snapshot_mean,
)
from hocroute.losses import LossSpec
from hocroute.router import choose

from conftest import make_example, ref_from_costs, simplex_arrays


class TestLabelDistribution:
    def test_renormalizes_within_tolerance(self):
        d = LabelDistribution([0.5, 0.5000005])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_large_mass_error(self):
        with pytest.raises(InvalidInputError):
            LabelDistribution([0.5, 0.4])

    def test_rejects_negative_and_short(self):
        with pytest.raises(InvalidInputError):
            LabelDistribution([1.2, -0.2])
        with pytest.raises(InvalidInputError):
            LabelDistribution([1.0])

    def test_immutable(self):
        d = LabelDistribution([0.3, 0.7])
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    @given(simplex_arrays(4))
    def test_invariants_hold_after_construction(self, row):
        d = LabelDistribution(row)
        assert abs(d.probs.sum() - 1.0) <= 1e-9
        assert d.probs.min() >= 0.0 and d.probs.max() <= 1.0 + 1e-12

    def test_simplex_rule_bounds_row_by_row(self):
        rows = [
            ([1.0 + SIMPLEX_ATOL, -SIMPLEX_ATOL], True),
            ([1.0 + SIMPLEX_ATOL, np.nextafter(-SIMPLEX_ATOL, -1.0)], False),
            ([0.5, 0.5 + MASS_GUARD / 2], True),
            ([0.5, 0.5 + 2 * MASS_GUARD], False),
            ([math.nan, 1.0], False),
            ([math.inf, 0.0], False),
        ]
        matrix = np.array([row for row, _ in rows])
        assert simplex_ok(matrix).tolist() == [ok for _, ok in rows]
        assert [bool(simplex_ok(row)) for row in matrix] == [ok for _, ok in rows]

    EDGES = [0.0, -0.0, 0.25, 0.5, 1.0, -SIMPLEX_ATOL, 1.0 + MASS_GUARD, -1e-6, 1.5, math.nan, math.inf]
    EDGES += [0.5 + f * MASS_GUARD for f in (0.4, 0.6, 1.0)]  # masses inside, near and at the guard

    @given(arrays(float, st.tuples(st.integers(1, 8), st.integers(2, 4)), elements=st.sampled_from(EDGES)))
    def test_simplex_rule_equals_the_entry_and_mass_rules_row_by_row(self, matrix):
        """A matrix whose rows all pass is found without a reduction per row;
        the result must not change, for a matrix or for one row."""
        entries = np.logical_and.reduce((matrix >= -SIMPLEX_ATOL) & (matrix <= 1.0 + MASS_GUARD), axis=-1)
        expected = entries & (abs(np.add.reduce(matrix, axis=-1) - 1.0) <= MASS_GUARD)
        assert simplex_ok(matrix).tolist() == expected.tolist()
        for row, ok in zip(matrix, expected):
            assert type(simplex_ok(row)) is np.bool_ and simplex_ok(row) == ok


class TestSnapshotMean:
    def test_symmetric_counts(self):
        assert snapshot_mean([0, 0, 1, 1], 2).probs.tolist() == [0.5, 0.5]

    def test_single_one_hot(self):
        assert snapshot_mean([2], 3).probs.tolist() == [0.0, 0.0, 1.0]

    def test_hand_histogram(self):
        # counts (1, 3) over four draws
        assert snapshot_mean([0, 1, 1, 1], 2).probs.tolist() == [0.25, 0.75]

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            snapshot_mean([], 2)
        with pytest.raises(InvalidInputError):
            snapshot_mean([3], 3)
        with pytest.raises(InvalidInputError, match="^labels must be a flat list of class indices$"):
            snapshot_mean([0.0, 1.0], 2)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=50), st.randoms())
    def test_permutation_invariant(self, labels, rnd):
        shuffled = list(labels)
        rnd.shuffle(shuffled)
        a = snapshot_mean(labels, 4).probs
        b = snapshot_mean(shuffled, 4).probs
        assert np.array_equal(a, b)

    @given(st.integers(0, 2), st.integers(1, 30))
    def test_constant_labels_give_one_hot(self, c, n):
        mean = snapshot_mean([c] * n, 3).probs
        assert mean[c] == 1.0 and mean.sum() == 1.0


def ref_row(batch: SnapshotBatch, i: int) -> SnapshotExample:
    """``batch[i]`` as it was built before row views: every field anew, through
    the public checked constructors."""
    features = np.empty(0) if batch.features is None else batch.features[i][~np.isnan(batch.features[i])]
    has_p_star = batch.p_star is not None and not np.isnan(batch.p_star[i, 0])
    return SnapshotExample(
        id=batch.ids[i],
        weak_pred=LabelDistribution(batch.probs[i]),
        label_counts=batch.counts[i],
        features=features if features.size else None,
        p_star=LabelDistribution(batch.p_star[i]) if has_p_star else None,
    )


def row_fields(e: SnapshotExample) -> dict:
    """Every field of a record, each array as its dtype, shape and bytes (None
    when absent); ``labels`` only when ``k`` is small enough to spell out."""
    arrays = {
        "weak_pred": e.weak_pred.probs,
        "label_counts": e.label_counts,
        "features": e.features,
        "p_star": None if e.p_star is None else e.p_star.probs,
        "snapshot_mean": e.snapshot_mean.probs,
        "labels": e.labels if e.k <= 10_000 else None,
    }
    kinds = tuple(map(type, (e, e.id, e.k, e.weak_pred, e.p_star, e.snapshot_mean)))
    return {"id": e.id, "k": e.k, "num_classes": e.num_classes, "kinds": kinds} | {
        name: None if a is None else (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()
    }


def within_int64(counts: list[int]) -> list[int]:
    """``counts`` with any count that would carry the running total past int64
    made 0, and one label added when none is left."""
    out, total = [], 0
    for c in counts:
        out.append(c if total + c <= 2**63 - 1 else 0)
        total += out[-1]
    out[0] += not total
    return out


@st.composite
def batches(draw):
    """Batches over 2, 3 or 10 classes with counts up to 2**62, features
    absent or rows of finite features NaN-padded to one width, and p_star
    absent from some rows or from the batch."""
    k, n = draw(st.sampled_from([2, 3, 10])), draw(st.integers(1, 5))
    count = st.integers(0, 3) | st.integers(0, 2**62)
    counts = [within_int64(draw(st.lists(count, min_size=k, max_size=k))) for _ in range(n)]
    width = draw(st.none() | st.integers(0, 4))
    features = None
    if width is not None:
        rows = [draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=width)) for _ in range(n)]
        features = [row + [math.nan] * (width - len(row)) for row in rows]
    p_stars = [draw(st.none() | simplex_arrays(k)) for _ in range(n)]
    p_star = [np.full(k, math.nan) if p is None else p for p in p_stars]
    if draw(st.booleans()) and all(p is None for p in p_stars):
        p_star = None
    probs = [draw(simplex_arrays(k)) for _ in range(n)]
    return SnapshotBatch(ids=[f"r{j}" for j in range(n)], probs=probs, counts=counts, features=features, p_star=p_star)


class TestRowViews:
    @given(batches())
    def test_a_row_view_equals_the_checked_record(self, batch):
        for i, view in enumerate(batch):
            assert row_fields(view) == row_fields(ref_row(batch, i))
            counts = batch.counts[i]  # the mean as a record derived it before records were batches of one
            assert view.snapshot_mean.probs.tobytes() == LabelDistribution(counts / counts.sum()).probs.tobytes()
            assert row_fields(batch[i - len(batch)]) == row_fields(view)

    def test_view_arrays_are_read_only(self):
        batch = SnapshotBatch(
            ids=["a"], probs=[[0.6, 0.4]], counts=[[2, 1]], features=[[0.5, math.nan]], p_star=[[0.7, 0.3]]
        )
        record = make_example("b", [0.6, 0.4], [0, 0, 1], features=[0.5], p_star=[0.7, 0.3])
        for row in (batch[0], record):
            distributions = (row.weak_pred, row.p_star, row.snapshot_mean)
            for array in (row.label_counts, row.features, *(d.probs for d in distributions)):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]

    def test_row_views_check_no_row(self, monkeypatch, small_run):
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return simplex_ok(rows)

        for name, module in list(sys.modules.items()):
            if name.startswith("hocroute") and getattr(module, "simplex_ok", None) is simplex_ok:
                monkeypatch.setattr(module, "simplex_ok", counted)
        for batch in (small_run.calibration, small_run.test):
            assert len(list(batch)) == len(batch) and batch[-1].id == batch.ids[-1]
        assert calls == []
        SnapshotBatch(ids=["a"], probs=[[0.6, 0.4]], counts=[[1, 0]])
        assert calls  # the patched check is the one construction runs


# SnapshotExample labellings that break a rule (the last two break the signature).
LABELLINGS = [
    {"label_counts": [-1, 2]},
    {"label_counts": [1.0, 2.0]},
    {"label_counts": [True, False]},
    {"label_counts": [1, 2, 3]},
    {"label_counts": [0, 0]},
    {"label_counts": np.array([2**63, 1], dtype=np.uint64)},
    {"labels": [0], "label_counts": [1, 0]},
    {},
]

# (weak prediction, record fields in count form, accepted): every record rule,
# which a record and a batch row must apply alike.
RECORDS = [
    *[([0.6, 0.4], labelling, False) for labelling in LABELLINGS if "labels" not in labelling and labelling],
    ([0.2, 0.3, 0.5], {"label_counts": [2**62] * 3}, False),  # the total wraps past int64
    ([0.2] * 5, {"label_counts": [2**62] * 5}, False),  # and back above 0
    ([0.6, 0.4], {"label_counts": [2**63 - 1, 1]}, False),
    ([0.6, 0.4], {"label_counts": np.array([2**63, 0], dtype=np.uint64)}, False),
    ([0.6, 0.4], {"label_counts": [1, 1], "features": [math.inf]}, False),
    ([0.6, 0.4], {"label_counts": [1, 1], "features": [0.5, -math.inf]}, False),
    ([0.6, 0.4], {"label_counts": [1, 1], "p_star": [0.2, 0.3, 0.5]}, False),
    ([0.6, 0.4], {"label_counts": [2**62, 1]}, True),
    ([0.6, 0.4], {"label_counts": [2**63 - 1, 0]}, True),
    ([0.6, 0.4], {"label_counts": np.array([2**63 - 1, 0], dtype=np.uint64)}, True),
    ([0.6, 0.4], {"label_counts": np.array([3, 1], dtype=np.uint8), "features": [math.nan, 0.5]}, False),
    ([0.6, 0.4], {"label_counts": np.array([3, 1], dtype=np.uint8), "features": [0.5, math.nan]}, True),
    ([0.6, 0.4], {"label_counts": [0, 1], "features": [], "p_star": [0.1, 0.9]}, True),
]


class TestRecordRule:
    @staticmethod
    def _as_example(weak, record):
        p_star = record.get("p_star")
        return SnapshotExample(
            "x",
            LabelDistribution(weak),
            label_counts=record["label_counts"],
            features=record.get("features"),
            p_star=None if p_star is None else LabelDistribution(p_star),
        )

    @staticmethod
    def _as_batch(weak, record):
        one_row = {name: None if record.get(name) is None else [record[name]] for name in ("features", "p_star")}
        return SnapshotBatch(ids=["x"], probs=[weak], counts=[record["label_counts"]], **one_row)

    @pytest.mark.parametrize("weak, record, accepted", RECORDS)
    def test_a_record_and_a_batch_row_follow_one_rule(self, weak, record, accepted):
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (self._as_example, self._as_batch):
                try:
                    build(weak, record)
                    outcomes.append(True)
                except InvalidInputError:
                    outcomes.append(False)
        assert outcomes == [accepted, accepted]

    def test_a_refused_record_is_named(self):
        with pytest.raises(InvalidInputError, match=r"^example x: need, for each id, .*finite features, then NaN$"):
            self._as_example([0.6, 0.4], {"label_counts": [1, 1], "features": [math.inf]})
        with pytest.raises(InvalidInputError, match="^example x: snapshot needs at least one label$"):
            SnapshotExample("x", LabelDistribution([0.6, 0.4]), labels=[])
        with pytest.raises(InvalidInputError, match="^example x: give either labels or label_counts$"):
            SnapshotExample("x", LabelDistribution([0.6, 0.4]))

    def test_nan_before_a_present_feature_is_refused(self):
        # features are a prefix: a row view keeps its non-NaN features, which would shift a later one's index
        with pytest.raises(InvalidInputError, match="finite features, then NaN$"):
            SnapshotBatch(
                ids=["a", "b", "c"],
                probs=[[0.6, 0.4]] * 3,
                counts=[[1, 0]] * 3,
                features=[[math.nan, 0.5], [0.1, 0.2], [0.3, 0.9]],
            )

    def test_a_record_is_row_0_of_its_batch_of_one(self):
        weak, record = [0.6, 0.4], {"label_counts": [3, 1], "features": [0.5, math.nan], "p_star": [0.7, 0.3]}
        assert row_fields(self._as_example(weak, record)) == row_fields(ref_row(self._as_batch(weak, record), 0))


class TestSnapshotExample:
    def test_mean_is_derived_from_labels(self):
        e = make_example("x", [0.6, 0.4], [0, 0, 1])
        assert e.snapshot_mean.probs.tolist() == pytest.approx([2 / 3, 1 / 3])
        assert e.k == 3

    def test_label_validation(self):
        with pytest.raises(InvalidInputError):
            make_example("x", [0.6, 0.4], [0, 2])
        with pytest.raises(InvalidInputError):
            make_example("x", [0.6, 0.4], [])

    def test_counts_give_the_same_record_as_labels(self):
        weak = LabelDistribution([0.2, 0.3, 0.5])
        from_labels = SnapshotExample("x", weak, labels=[2, 0, 2])
        from_counts = SnapshotExample("x", weak, label_counts=[1, 0, 2])
        for e in (from_labels, from_counts):
            assert e.label_counts.tolist() == [1, 0, 2] and e.k == 3
            assert e.labels.tolist() == [0, 2, 2]  # spelled out grouped by class
        assert from_labels.snapshot_mean.probs.tobytes() == from_counts.snapshot_mean.probs.tobytes()

    def test_huge_counts_are_not_spelled_out(self):
        e = SnapshotExample("x", LabelDistribution([0.5, 0.5]), label_counts=np.array([2**62, 1]))
        assert e.k == 2**62 + 1 and e.snapshot_mean.probs[0] == 1.0
        e = SnapshotExample("x", LabelDistribution([0.5, 0.5]), label_counts=np.array([2**63 - 1, 0], dtype=np.uint64))
        assert e.k == 2**63 - 1 and e.label_counts.dtype == np.int64

    @pytest.mark.parametrize("labelling", LABELLINGS)
    def test_label_counts_validation(self, labelling):
        with pytest.raises(InvalidInputError):
            SnapshotExample("x", LabelDistribution([0.6, 0.4]), **labelling)

    def test_ground_truth_prefers_exact(self):
        e = make_example("x", [0.6, 0.4], [0], p_star=[0.9, 0.1])
        assert ground_truth(e).probs.tolist() == [0.9, 0.1]
        e2 = make_example("y", [0.6, 0.4], [0, 1])
        assert ground_truth(e2).probs.tolist() == [0.5, 0.5]


class TestRoutingConfig:
    def test_validates_penalties(self):
        loss = LossSpec("brier")
        with pytest.raises(InvalidInputError):
            RoutingConfig(loss=loss, route_penalties=(-0.1,))
        with pytest.raises(InvalidInputError):
            RoutingConfig(loss=loss, route_penalties=())
        with pytest.raises(InvalidInputError):
            RoutingConfig(loss=loss, route_penalties=(0.1,), abstain_penalty=-1.0)

    def test_infinite_beta_encodes_two_way(self):
        cfg = RoutingConfig(loss=LossSpec("brier"), route_penalties=(0.0, 0.5))
        assert math.isinf(cfg.abstain_penalty)
        assert cfg.actions() == [PREDICT, "route:0", "route:1", ABSTAIN]

    def test_penalties_follow_actions(self):
        cfg = RoutingConfig(loss=LossSpec("brier"), route_penalties=(0.25, math.inf), abstain_penalty=0.5)
        assert cfg.penalties.tolist() == [0.0, 0.25, math.inf, 0.5]
        assert len(cfg.penalties) == len(cfg.actions())


def _chosen(est_costs: dict[str, float]) -> str:
    """``choose`` on one penalty-free row whose oracle costs are charged as
    routing penalties and abstain as the abstention penalty, checked
    against the frozen ``min`` over named actions."""
    routes = [c for a, c in est_costs.items() if a.startswith("route:")]
    config = RoutingConfig(loss=LossSpec("brier"), route_penalties=routes, abstain_penalty=est_costs[ABSTAIN])
    action = config.actions()[choose(np.array([est_costs[PREDICT], *[0.0] * len(routes), 0.0]), config)]
    assert action == ref_from_costs(est_costs)
    return action


class TestRoutingDecision:
    def test_argmin(self):
        assert _chosen({PREDICT: 0.3, route_action(0): 0.25, ABSTAIN: 0.3}) == "route:0"

    def test_tie_break_priority(self):
        assert _chosen({PREDICT: 0.3, route_action(0): 0.3, ABSTAIN: 0.3}) == PREDICT
        assert _chosen({PREDICT: 0.4, route_action(0): 0.3, route_action(1): 0.3, ABSTAIN: 0.3}) == "route:0"
        assert _chosen({PREDICT: 0.4, route_action(0): 0.35, ABSTAIN: 0.3}) == ABSTAIN

    def test_action_must_be_priced(self):
        with pytest.raises(InvalidInputError):
            RoutingDecision(action=PREDICT, est_costs={ABSTAIN: 0.1})

    def test_priority_ordering(self):
        assert action_priority(PREDICT) < action_priority(route_action(0))
        assert action_priority(route_action(0)) < action_priority(route_action(3))
        assert action_priority(route_action(3)) < action_priority(ABSTAIN)
        with pytest.raises(InvalidInputError):
            action_priority("punt")
