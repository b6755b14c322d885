import math

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

    @pytest.mark.parametrize(
        "labelling",
        [
            {"label_counts": [-1, 2]},
            {"label_counts": [1.0, 2.0]},
            {"label_counts": [True, False]},
            {"label_counts": [1, 2, 3]},
            {"label_counts": [0, 0]},
            {"label_counts": np.array([2**63, 1], dtype=np.uint64)},
            {"labels": [0], "label_counts": [1, 0]},
            {},
        ],
    )
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
