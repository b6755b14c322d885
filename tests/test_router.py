import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocroute.calibrator import CalibratedRouterModel, calibrate, estimate_decomposition
from hocroute.core import (
    ABSTAIN,
    PREDICT,
    InvalidInputError,
    LabelDistribution,
    RoutingConfig,
    SnapshotBatch,
    simplex_ok,
)
from hocroute.evaluation import router_scores
from hocroute.losses import LossSpec, expected_loss, expected_loss_batch
from hocroute.partition import PartitionSpec, fit
from hocroute.router import (
    MC_DRAWS,
    MC_SEED,
    OracleSpec,
    Router,
    _sorted_annotator_uniforms,
    bin_costs,
    choose,
    decide,
    simulated_costs,
    tree_decide,
)

from conftest import model_of, ref_from_costs, simplexes
from test_grouping_reference import ref_simulated_costs

d = LabelDistribution
brier = LossSpec("brier")


def model_with_decomposition(irreducible: float, reducible: float) -> CalibratedRouterModel:
    """A single-bin model whose Brier decomposition is exactly (il, rl)."""
    p1 = (1.0 - math.sqrt(1.0 - 2.0 * irreducible)) / 2.0  # 2 p (1-p) = il
    mean = np.array([1.0 - p1, p1])
    t = math.sqrt(reducible / 2.0)  # |mean - pred|^2 = 2 t^2 = rl, for either sign of t
    pred = mean + np.array([t, -t]) if mean[1] >= t else mean - np.array([t, -t])  # kept on the simplex
    mixture = (pred[None, :], mean[None, :])
    return model_of({"c0:b0": mixture}, mixture)


class TestSimulatedCosts:
    def test_direct_substitution(self):
        model = model_with_decomposition(0.2, 0.1)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=0.3)
        costs = simulated_costs(model, "c0:b0", cfg)
        assert costs[PREDICT] == pytest.approx(0.3, abs=1e-12)
        assert costs["route:0"] == pytest.approx(0.25, abs=1e-12)
        assert costs[ABSTAIN] == 0.3
        assert decide(model, "c0:b0", cfg).action == "route:0"

    def test_disabled_abstention_costs_infinity(self):
        model = model_with_decomposition(0.2, 0.1)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,))
        assert simulated_costs(model, "c0:b0", cfg)[ABSTAIN] == math.inf

    def test_zero_reducible_makes_predict_equal_route_minus_penalty(self):
        model = model_with_decomposition(0.3, 0.0)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.07,), abstain_penalty=1.0)
        costs = simulated_costs(model, "c0:b0", cfg)
        assert costs[PREDICT] == pytest.approx(costs["route:0"] - 0.07, abs=1e-12)

    def test_bayes_route_cost_is_il_plus_alpha_exactly(self, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=0.4)
        from hocroute.calibrator import estimate_decomposition

        for bin_id in model.mixtures:
            il, _ = estimate_decomposition(model, bin_id, brier)
            costs = simulated_costs(model, bin_id, cfg)
            assert abs(costs["route:0"] - (il + 0.05)) <= 1e-12

    def test_oracle_count_must_match_penalties(self):
        model = model_with_decomposition(0.2, 0.1)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05, 0.1))
        with pytest.raises(InvalidInputError):
            simulated_costs(model, "c0:b0", cfg, oracles=[OracleSpec()])

    def test_multi_oracle_argmin(self):
        model = model_with_decomposition(0.2, 0.1)
        cheap_noisy = OracleSpec(kind="aggregated", num_annotators=1, aggregation="mean")
        cfg = RoutingConfig(loss=brier, route_penalties=(0.3, 0.0), abstain_penalty=0.9)
        decision = decide(model, "c0:b0", cfg, oracles=[OracleSpec(), cheap_noisy])
        assert set(decision.est_costs) == {PREDICT, "route:0", "route:1", ABSTAIN}
        assert decision.action == ref_from_costs(decision.est_costs)


class TestModelRowsAreChecked:
    """Every row of a model is checked once, when the model is built: a row
    off the simplex is refused naming its bin (or the global mixture), field
    and row, and pricing a valid model checks no row again."""

    GOOD = {"preds": [[0.5, 0.5], [0.6, 0.4]], "means": [[1.0, 0.0], [0.0, 1.0]]}

    @pytest.mark.parametrize("segment,owner", [("c0:b0", "bin 'c0:b0'"), ("global", "global mixture")])
    @pytest.mark.parametrize(
        "field,row,detail",
        [
            ("preds", [1.1109, -0.1109], "entries outside [0, 1]"),
            ("preds", [math.nan, 0.5], "probabilities must be finite"),
            ("means", [0.7, 0.7], "probabilities sum to 1.4"),
        ],
    )
    def test_a_row_off_the_simplex_is_refused(self, segment, owner, field, row, detail):
        rows = {name: np.array(values) for name, values in self.GOOD.items()}
        rows[field][1] = row
        good = (self.GOOD["preds"], self.GOOD["means"])
        segments = {"c0:b0": good, "global": good, segment: (rows["preds"], rows["means"])}
        with pytest.raises(InvalidInputError, match=rf"^{owner}: {field} row 1: {re.escape(detail)}"):
            model_of({"c0:b0": segments["c0:b0"]}, segments["global"])

    def test_pricing_a_valid_model_checks_no_row(self, monkeypatch):
        pair = (self.GOOD["preds"], self.GOOD["means"])
        model = model_of({"c0:b0": pair}, pair)
        loss = LossSpec("crossentropy")
        cfg = RoutingConfig(loss=loss, route_penalties=(0.05,), abstain_penalty=0.3)
        test = SnapshotBatch(ids=["q", "r"], probs=[[0.9, 0.1], [0.1, 0.9]], counts=[[1, 0], [0, 1]])
        query = test[0]
        calls = []

        def counted(rows):
            calls.append(rows.shape)
            return simplex_ok(rows)

        for name, module in list(sys.modules.items()):
            if name.startswith("hocroute") and getattr(module, "simplex_ok", None) is simplex_ok:
                monkeypatch.setattr(module, "simplex_ok", counted)
        pricings = [
            lambda: estimate_decomposition(model, "c0:b0", loss),
            lambda: bin_costs(model, ["c0:b0", "c1:b0"], loss, [OracleSpec()]),
            lambda: decide(model, "c0:b0", cfg),
            lambda: simulated_costs(model, "c1:b0", cfg),
            lambda: Router(model, cfg).decide(query),
            lambda: router_scores(model, test, loss),
        ]
        for price in pricings:
            price()
        assert decide(model, "c1:b0", cfg).action  # a bin served by the global mixture is priced too
        assert calls == []
        model_of({"c0:b0": pair}, pair)  # building a model is where rows are checked
        assert len(calls) == 2


ORACLE_POOL = (
    OracleSpec(),
    OracleSpec(kind="aggregated", num_annotators=1, aggregation="mean"),
    OracleSpec(kind="aggregated", num_annotators=3, aggregation="majority"),
)
PENALTIES = st.sampled_from([0.0, 0.05, 0.1, math.inf])


class TestOneRule:
    """Every decision is the ``argmin`` of ``choose`` over action columns; it
    must pick what the frozen ``min`` over named actions picks, exact ties
    included."""

    @settings(max_examples=150, deadline=None)
    @given(
        irreducible=st.sampled_from([0.3, 0.4, 0.5]),
        reducible=st.sampled_from([0.0, 0.025, 0.05]),  # with these, the bin's prediction is on the simplex
        picks=st.lists(st.integers(0, len(ORACLE_POOL) - 1), min_size=1, max_size=3),
        alphas=st.lists(PENALTIES, min_size=3, max_size=3),
        beta=PENALTIES | st.integers(0, 3),  # an integer: beta ties that action's cost
        loss=st.sampled_from(["brier", "crossentropy"]),
    )
    def test_decide_matches_frozen_min(self, irreducible, reducible, picks, alphas, beta, loss):
        model = model_with_decomposition(irreducible, reducible)
        oracles = [ORACLE_POOL[i] for i in picks]
        routes = tuple(alphas[: len(oracles)])
        if isinstance(beta, int):
            free = RoutingConfig(loss=LossSpec(loss), route_penalties=routes, abstain_penalty=0.0)
            beta = list(ref_simulated_costs(model, "c0:b0", free, oracles).values())[min(beta, len(oracles))]
        cfg = RoutingConfig(loss=LossSpec(loss), route_penalties=routes, abstain_penalty=beta)
        decision = decide(model, "c0:b0", cfg, oracles)
        expected = ref_simulated_costs(model, "c0:b0", cfg, oracles)
        assert decision.est_costs == expected
        assert decision.action == ref_from_costs(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=4, max_size=4), min_size=1, max_size=6),
        oracles=st.integers(1, 3),
        alphas=st.lists(st.sampled_from([0.0, 0.5, math.inf]), min_size=3, max_size=3),
        beta=st.sampled_from([0.0, 0.5, 1.0, math.inf]),
    )
    def test_choose_matches_frozen_min_on_every_row(self, rows, oracles, alphas, beta):
        cfg = RoutingConfig(loss=brier, route_penalties=tuple(alphas[:oracles]), abstain_penalty=beta)
        costs = np.column_stack([np.array(rows)[:, : oracles + 1], np.zeros(len(rows))])
        actions = cfg.actions()
        expected = [ref_from_costs(dict(zip(actions, (row + cfg.penalties).tolist()))) for row in costs]
        assert [actions[c] for c in choose(costs, cfg)] == expected

    def test_bin_costs_of_no_bins(self):
        model = model_with_decomposition(0.2, 0.1)
        assert bin_costs(model, [], brier, [OracleSpec(), OracleSpec()]).shape == (0, 4)


class TestTreeDecide:
    def test_worked_examples(self):
        assert tree_decide(0.2, 0.1, 0.05, 0.3) == "route:0"
        assert tree_decide(0.0, 0.0, 0.1, 0.5) == PREDICT
        assert tree_decide(1.0, 0.5, 0.1, 0.2) == ABSTAIN

    def test_infinite_abstention(self):
        assert tree_decide(5.0, 1.0, 0.5, math.inf) == "route:0"
        assert tree_decide(5.0, 0.1, 0.5, math.inf) == PREDICT

    def test_input_guards(self):
        with pytest.raises(InvalidInputError):
            tree_decide(-0.1, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            tree_decide(0.0, math.inf, 0.0, 1.0)

    def test_exact_tie_conventions_documented(self):
        # the tree keeps >= thresholds: at reducible == alpha it routes, while
        # the cost argmin's tie-break prefers predict; ties are excluded from
        # the equivalence checks
        assert tree_decide(0.125, 0.25, 0.25, math.inf) == "route:0"
        cfg = RoutingConfig(loss=brier, route_penalties=(0.25,))
        assert choose(np.array([0.125 + 0.25, 0.125, 0.0]), cfg) == 0  # 0.375 both ways: predict

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(0, 2), st.floats(0, 2), st.floats(0, 2),
        st.one_of(st.floats(0, 2), st.just(math.inf)),
    )
    def test_matches_argmin_off_ties(self, il, rl, alpha, beta):
        margins = (abs(rl - alpha), abs(il + rl - beta), abs(il + alpha - beta))
        if min(margins) <= 1e-12:
            return
        costs = {PREDICT: il + rl, "route:0": il + alpha, ABSTAIN: beta}
        assert tree_decide(il, rl, alpha, beta) == ref_from_costs(costs)

    def test_exact_rational_boundaries(self):
        # strict-inequality edges probed with exactly representable inputs
        assert tree_decide(0.25, 0.5, 0.25, 0.5) == ABSTAIN  # il == beta - alpha
        assert tree_decide(0.25, 0.25, 0.5, 0.5) == ABSTAIN  # il + rl == beta
        assert tree_decide(0.25, 0.249, 0.5, 0.5) == PREDICT


class TestAggregatedOracles:
    def test_binary_majority_matches_exhaustive_enumeration(self):
        # independent oracle: enumerate all annotator label tuples directly
        spec = OracleSpec(kind="aggregated", num_annotators=3, aggregation="majority")
        truth = d([0.3, 0.7])
        expected = 0.0
        for labels in itertools.product((0, 1), repeat=3):
            prob = np.prod([truth.probs[y] for y in labels])
            vote = 1 if sum(labels) * 2 > 3 else 0
            pred = d([1.0 - vote, float(vote)])
            expected += prob * expected_loss(brier, truth, pred)
        assert spec.point_costs(brier, truth.probs[None])[0] == pytest.approx(expected, abs=1e-12)

    def test_binary_mean_matches_exhaustive_enumeration(self):
        spec = OracleSpec(kind="aggregated", num_annotators=4, aggregation="mean")
        truth = d([0.6, 0.4])
        expected = 0.0
        for labels in itertools.product((0, 1), repeat=4):
            prob = np.prod([truth.probs[y] for y in labels])
            mean = sum(labels) / 4.0
            expected += prob * expected_loss(brier, truth, d([1.0 - mean, mean]))
        assert spec.point_costs(brier, truth.probs[None])[0] == pytest.approx(expected, abs=1e-12)

    def test_majority_tie_goes_to_lowest_class(self):
        spec = OracleSpec(kind="aggregated", num_annotators=2, aggregation="majority")
        assert spec._aggregated_prediction(1).tolist() == [1.0, 0.0]

    def test_many_annotators_approach_bayes(self):
        bayes = OracleSpec()
        truth = d([0.35, 0.65])
        for annotators in (400, 2000):  # past ~1030 the pmf's binomial coefficients overflow a float
            crowd = OracleSpec(kind="aggregated", num_annotators=annotators, aggregation="mean")
            assert crowd.point_costs(brier, truth.probs[None])[0] == pytest.approx(
                bayes.point_costs(brier, truth.probs[None])[0], abs=0.01
            )

    @pytest.mark.parametrize("aggregation", ["majority", "mean"])
    @settings(max_examples=15, deadline=None)
    @given(truths=st.lists(simplexes(3), min_size=2, max_size=6), order=st.randoms())
    def test_monte_carlo_cost_ignores_batch_position(self, aggregation, truths, order):
        spec = OracleSpec(kind="aggregated", num_annotators=5, aggregation=aggregation)
        rows = np.stack([t.probs for t in truths])
        costs = spec.point_costs(brier, rows)
        perm = list(range(len(truths)))
        order.shuffle(perm)
        assert spec.point_costs(brier, rows[perm]).tolist() == costs[perm].tolist()
        assert [spec.point_costs(brier, t.probs[None])[0] for t in truths] == costs.tolist()

    def test_multiclass_monte_carlo_is_seeded(self):
        spec = OracleSpec(kind="aggregated", num_annotators=5, aggregation="majority")
        truth = d([0.2, 0.3, 0.5])
        assert spec.point_costs(brier, truth.probs[None])[0] == spec.point_costs(brier, truth.probs[None])[0]
        # MC estimate should sit near the exhaustive expectation
        expected = 0.0
        for labels in itertools.product((0, 1, 2), repeat=5):
            prob = float(np.prod([truth.probs[y] for y in labels]))
            counts = np.bincount(labels, minlength=3)
            vote = int(np.argmax(counts))
            one_hot = np.zeros(3)
            one_hot[vote] = 1.0
            expected += prob * expected_loss(brier, truth, d(one_hot))
        assert spec.point_costs(brier, truth.probs[None])[0] == pytest.approx(expected, abs=0.05)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OracleSpec(kind="psychic")
        with pytest.raises(InvalidInputError):
            OracleSpec(kind="aggregated", aggregation="mode")
        with pytest.raises(InvalidInputError):
            OracleSpec(kind="aggregated", num_annotators=0)

    @pytest.mark.parametrize("value", [2.5, True, "3", -1])
    def test_annotator_count_must_be_an_integer_in_range(self, value):
        with pytest.raises(InvalidInputError, match="^num_annotators must be an integer >= 1, got "):
            OracleSpec(kind="aggregated", aggregation="majority", num_annotators=value)

    def test_smallest_annotator_count_is_accepted(self):
        spec = OracleSpec(kind="aggregated", num_annotators=np.int64(1))
        assert np.isfinite(spec.point_costs(brier, np.array([[0.2, 0.3, 0.5]]))).all()


def reference_mc_costs(spec: OracleSpec, loss: LossSpec, truths: np.ndarray) -> np.ndarray:
    """The Monte Carlo aggregated oracle as first written, kept frozen: one
    ``searchsorted`` of all uniforms into each row's CDF, ``bincount``, and
    the loss of the (m, K) aggregated predictions."""
    k, m = spec.num_annotators, MC_DRAWS
    uniforms = np.random.default_rng(MC_SEED).random((m, k))
    classes = truths.shape[1]
    offsets = classes * np.arange(m)[:, None]
    out = np.zeros(truths.shape[0])
    for i, truth in enumerate(truths):
        cdf = np.cumsum(truth)
        labels = np.searchsorted(cdf / cdf[-1], uniforms, side="right")
        counts = np.bincount((labels + offsets).ravel(), minlength=m * classes).reshape(m, classes)
        if spec.aggregation == "mean":
            preds = counts / k
        else:
            preds = np.zeros((m, classes))
            preds[np.arange(m), np.argmax(counts, axis=1)] = 1.0
        out[i] = float(np.mean(expected_loss_batch(loss, np.tile(truth, (m, 1)), preds)))
    return out


@st.composite
def multiclass_truths(draw):
    """Rows over 3 to 12 classes, some with zero-probability classes, some one-hot."""
    classes = draw(st.integers(3, 12))
    weights = st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=classes, max_size=classes).filter(any)
    row = weights.map(lambda w: np.asarray(w) / np.sum(w)) | st.integers(0, classes - 1).map(
        lambda c: np.eye(classes)[c]
    )
    return np.stack(draw(st.lists(row, min_size=1, max_size=8)))


class TestMonteCarloKernel:
    @settings(max_examples=80, deadline=None)
    @given(
        truths=multiclass_truths(),
        annotators=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 50]),
        aggregation=st.sampled_from(["majority", "mean"]),
        kind=st.sampled_from(["brier", "crossentropy", "classification", "asymmetric_class"]),
    )
    def test_point_costs_equal_frozen_reference_bit_for_bit(self, truths, annotators, aggregation, kind):
        spec = OracleSpec(kind="aggregated", num_annotators=annotators, aggregation=aggregation)
        loss = LossSpec(kind)
        assert spec.point_costs(loss, truths).tolist() == reference_mc_costs(spec, loss, truths).tolist()

    @pytest.mark.parametrize("kind", ["brier", "crossentropy"])
    def test_rows_past_one_loss_table_equal_frozen_reference(self, kind):
        # more than MC_DRAWS // K rows: a majority vote's one-hot losses come from several tables
        rng = np.random.default_rng(3)
        truths = rng.dirichlet(np.full(12, 0.5), size=250)
        truths[::7] = np.eye(12)[rng.integers(0, 12, size=len(truths[::7]))]
        assert len(truths) > MC_DRAWS // 12
        spec, loss = OracleSpec(kind="aggregated", num_annotators=5, aggregation="majority"), LossSpec(kind)
        assert spec.point_costs(loss, truths).tolist() == reference_mc_costs(spec, loss, truths).tolist()

    def test_entry_a_rounding_error_below_zero(self):
        # simplex_ok admits entries down to -1e-9; this row's running sum dips below a uniform
        spec = OracleSpec(kind="aggregated", num_annotators=5, aggregation="majority")
        x = _sorted_annotator_uniforms(5)[0][2500]
        truth = np.array([[x + 1e-12, -1e-9, 1.0 - x - 1e-12 + 1e-9]])
        assert simplex_ok(truth).all()
        assert np.isfinite(spec.point_costs(brier, truth)).all()

    def test_sorted_uniforms_are_the_draw_sorted_and_read_only(self):
        # the CLI's decisions are those of 1000 pools drawn from seed 7
        assert (MC_DRAWS, MC_SEED) == (1000, 7)
        uniforms, draw = _sorted_annotator_uniforms(5)
        flat = np.random.default_rng(7).random((1000, 5)).ravel()
        order = np.argsort(flat, kind="stable")
        assert uniforms.tolist() == flat[order].tolist() and draw.tolist() == (order // 5).tolist()
        for array in (uniforms, draw):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestRouterCache:
    def test_decisions_cached_and_constant_per_bin(self, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=0.4)
        router = Router(model, cfg)
        seen: dict[str, str] = {}
        for e in small_run.test[:500]:
            bin_id, decision = router.decide(e)
            assert decision is router.decide_bin(bin_id)  # cached object
            assert seen.setdefault(bin_id, decision.action) == decision.action

    def test_configuration_changes_need_no_recalibration(self, small_run):
        # one immutable model serves every loss/penalty configuration
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        frozen = {b: m.means.copy() for b, m in model.mixtures.items()}
        for loss in (brier, LossSpec("crossentropy"), LossSpec("three_part")):
            for alpha in (0.0, 0.05, 0.2):
                for beta in (0.1, 0.5, math.inf):
                    cfg = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=beta)
                    for bin_id in model.mixtures:
                        decide(model, bin_id, cfg)
        for b, m in model.mixtures.items():
            np.testing.assert_array_equal(m.means, frozen[b])
