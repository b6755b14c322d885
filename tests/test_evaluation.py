import math
import warnings

import numpy as np
import pytest

from hocroute.baselines import (
    bucket_optimal_scores,
    pointwise_optimal_scores,
    random_scores,
    total_uncertainty_scores,
)
from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError, RoutingConfig, SnapshotBatch, ground_truth
from hocroute.evaluation import (
    PREDICT_ABSTAIN,
    PREDICT_ROUTE,
    THREE_WAY,
    bucket_optimal_point_costs,
    cost_sweep,
    curve_values_at,
    multi_loss_report,
    per_point_losses,
    policy_point_costs,
    router_scores,
    routing_curve,
    routing_curves,
)
from hocroute.losses import LossSpec, entropy, expected_loss
from hocroute.partition import fit
from hocroute.router import OracleSpec

from conftest import make_example, three_classes

brier = LossSpec("brier")


@pytest.fixture(scope="module")
def fitted(small_run):
    model = calibrate(fit("topclass", small_run.calibration, buckets=10), small_run.calibration, recalibrate=True)
    return model, small_run.test[:3000]


THREE_WAY_CONFIG = RoutingConfig(brier, route_penalties=(0.05,), abstain_penalty=0.3)
EVALUATIONS = {
    "routing_curves": lambda model, test: routing_curves(model, test, brier),
    "routing_curve": lambda model, test: routing_curve(random_scores(test), test, brier, model),
    "multi_loss_report": lambda model, test: multi_loss_report(model, test, [brier]),
    "policy_point_costs": lambda model, test: policy_point_costs(model, test, THREE_WAY_CONFIG),
    "bucket_optimal_point_costs": lambda model, test: bucket_optimal_point_costs(model, test, THREE_WAY_CONFIG),
    "cost_sweep": lambda model, test: cost_sweep(model, test, brier, 0.05, [0.1, 0.3]),
    "total_uncertainty_scores": lambda model, test: total_uncertainty_scores(test, brier, model),
    "pointwise_optimal_scores": lambda model, test: pointwise_optimal_scores(test, brier, model),
    "bucket_optimal_scores": lambda model, test: bucket_optimal_scores(test, brier, model),
    "router_scores": lambda model, test: router_scores(model, test, brier),
}


@pytest.mark.parametrize("recalibrate", [False, True], ids=["raw", "recalibrated"])
@pytest.mark.parametrize("evaluation", list(EVALUATIONS))
def test_an_empty_test_set_is_refused(small_run, evaluation, recalibrate):
    data = small_run.calibration[:500]
    model = calibrate(fit("topclass", data, buckets=5), data, recalibrate=recalibrate)
    with pytest.raises(InvalidInputError, match="^test set is empty$"):
        EVALUATIONS[evaluation](model, small_run.test[0:0])


@pytest.mark.parametrize("recalibrate", [False, True], ids=["raw", "recalibrated"])
@pytest.mark.parametrize("evaluation", list(EVALUATIONS))
def test_a_test_set_of_another_class_count_is_refused(small_run, evaluation, recalibrate):
    data = small_run.calibration[:500]
    model = calibrate(fit("topclass", data, buckets=4), data, recalibrate=recalibrate)
    with pytest.raises(InvalidInputError, match="^test set has 3 classes; the model has 2$"):
        EVALUATIONS[evaluation](model, three_classes(small_run.test[:300]))


class TestRoutingCurve:
    def test_endpoints_against_scalar_sums(self, fitted):
        model, test = fitted
        policy = total_uncertainty_scores(test, brier, model)
        curve = routing_curve(policy, test, brier, model)
        deployed = [model.deployed_prediction(e) for e in test]
        weak_mean = sum(expected_loss(brier, ground_truth(e), p) for e, p in zip(test, deployed)) / len(test)
        oracle_mean = sum(entropy(brier, ground_truth(e)) for e in test) / len(test)
        assert curve.mean_losses[0] == pytest.approx(weak_mean, abs=1e-9)
        assert curve.mean_losses[-1] == pytest.approx(oracle_mean, abs=1e-9)

    def test_grid_shape(self, fitted):
        model, test = fitted
        curve = routing_curve(random_scores(test, 0), test, brier, model)
        assert len(curve.fractions) == 101
        assert curve.fractions[0] == 0.0 and curve.fractions[-1] == 1.0
        assert np.all(np.diff(curve.fractions) > 0)

    def test_random_policy_near_linear_interpolation(self, fitted):
        model, test = fitted
        curve = routing_curve(random_scores(test, seed=5), test, brier, model)
        linear = curve.mean_losses[0] + curve.fractions * (curve.mean_losses[-1] - curve.mean_losses[0])
        # Monte Carlo noise of a mean over ~3000 points
        assert float(np.abs(curve.mean_losses - linear).max()) <= 0.02

    def test_pointwise_optimal_is_lower_envelope(self, fitted):
        model, test = fitted
        optimal = routing_curve(pointwise_optimal_scores(test, brier, model), test, brier, model)
        for policy in (
            total_uncertainty_scores(test, brier, model),
            random_scores(test, seed=1),
            router_scores(model, test, brier),
        ):
            other = routing_curve(policy, test, brier, model)
            assert np.all(optimal.mean_losses <= other.mean_losses + 1e-9)

    def test_bucket_optimal_lower_bounds_router_curve(self, fitted):
        # bucket-optimal reads per-bin reducible loss from the test set, the
        # router estimates it from calibration; whole-bin prefixes dominate
        # exactly, partial-bin cuts only up to within-bin ordering noise
        from hocroute.baselines import bucket_optimal_scores

        model, test = fitted
        optimal_bins = routing_curve(bucket_optimal_scores(test, brier, model), test, brier, model)
        router = routing_curve(router_scores(model, test, brier), test, brier, model)
        assert np.all(optimal_bins.mean_losses <= router.mean_losses + 1e-3)

    def test_oracle_dominates_weak_on_average(self, fitted):
        model, test = fitted
        curve = routing_curve(random_scores(test, 2), test, brier, model)
        assert curve.mean_losses[-1] <= curve.mean_losses[0] + 1e-9

    def test_scores_must_cover_test(self, fitted):
        model, test = fitted
        with pytest.raises(InvalidInputError):
            routing_curve(random_scores(test[:10], 0), test, brier, model)

    def test_tie_break_by_id_is_deterministic(self):
        test = SnapshotBatch.from_examples([
            make_example("b", [0.6, 0.4], [0], p_star=[1.0, 0.0]),
            make_example("a", [0.6, 0.4], [0], p_star=[0.5, 0.5]),
        ])
        scores = np.array([1.0, 1.0])
        ids = np.array([e.id for e in test])
        weak, oracle = per_point_losses(test, brier)
        # id "a" routes first on ties
        half = curve_values_at(scores, ids, weak, oracle, [0.5])[0]
        expected = (weak[0] + oracle[1]) / 2.0
        assert half == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan, -math.inf])
    def test_curve_values_at_refuses_a_fraction_outside_the_unit_interval(self, fraction):
        scores, ids = np.arange(10.0), np.array([f"e{i}" for i in range(10)])
        weak, oracle = np.ones(10), np.zeros(10)
        assert curve_values_at(scores, ids, weak, oracle, [0.0, 0.3, 1.0]).tolist() == [1.0, 0.7, 0.0]
        with pytest.raises(InvalidInputError, match=r"^routed fractions must lie in \[0, 1\]"):
            curve_values_at(scores, ids, weak, oracle, [0.5, fraction])

    @pytest.mark.parametrize(
        "scores, ids, weak, oracle",
        [
            pytest.param([], [], [], [], id="empty"),
            pytest.param([1.0, 2.0, 3.0], ["a", "b"], [1.0, 1.0], [0.0, 0.0], id="scores-longer-than-ids"),
            pytest.param([1.0, 2.0], ["a", "b"], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], id="losses-longer-than-ids"),
            pytest.param([1.0, 2.0], ["a", "b"], [1.0, 1.0], [0.0], id="oracle-losses-short"),
        ],
    )
    def test_curve_values_at_refuses_columns_it_cannot_price(self, scores, ids, weak, oracle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=r"^scores, ids and losses must be nonempty and of one length"):
                curve_values_at(*map(np.array, (scores, ids, weak, oracle)), [0.0, 0.5, 1.0])


class TestCostSweep:
    def test_rows_and_dominance(self, fitted):
        model, test = fitted
        betas = [0.1, 0.3, 0.5, 0.7]
        sweep = cost_sweep(model, test, brier, alpha=0.05, betas=betas)
        assert sweep.betas.tolist() == betas
        assert list(sweep.mean_costs) == [THREE_WAY, PREDICT_ROUTE, PREDICT_ABSTAIN]
        assert all(costs.shape == (len(betas),) for costs in sweep.mean_costs.values())
        assert sweep.max_estimated_gap <= 1e-9
        three, pr, pa = sweep.mean_costs.values()
        # true-cost dominance holds within sampling noise on seeded data
        assert np.all(three <= np.minimum(pr, pa) + 0.01)

    def test_large_beta_matches_predict_route(self, fitted):
        model, test = fitted
        sweep = cost_sweep(model, test, brier, alpha=0.05, betas=[10.0])
        assert sweep.mean_costs[THREE_WAY][0] == pytest.approx(sweep.mean_costs[PREDICT_ROUTE][0], abs=1e-12)

    def test_free_abstention_is_free(self, fitted):
        model, test = fitted
        sweep = cost_sweep(model, test, brier, alpha=0.05, betas=[0.0])
        assert sweep.mean_costs[THREE_WAY][0] <= 1e-9

    def test_empty_grid_rejected(self, fitted):
        model, test = fitted
        with pytest.raises(InvalidInputError):
            cost_sweep(model, test, brier, alpha=0.05, betas=[])


class TestPolicyCosts:
    def test_restricted_policies_respect_their_action_sets(self, fitted):
        model, test = fitted
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=0.2)
        pr = policy_point_costs(
            model, test, cfg,
            decide_config=RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=math.inf),
        )
        assert np.all(np.isfinite(pr))
        pa = policy_point_costs(
            model, test, cfg,
            decide_config=RoutingConfig(loss=brier, route_penalties=(math.inf,), abstain_penalty=0.2),
        )
        assert np.all(np.isfinite(pa))

    def test_decide_config_must_price_the_same_oracles(self, fitted):
        model, test = fitted
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=0.2)
        decide = RoutingConfig(loss=brier, route_penalties=(0.0, 0.0), abstain_penalty=math.inf)
        with pytest.raises(InvalidInputError, match="^1 oracles for 2 routing penalties$"):
            policy_point_costs(model, test, cfg, decide_config=decide)

    def test_bucket_optimal_lower_bounds_router_on_test(self, fitted):
        model, test = fitted
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=math.inf)
        hoc = policy_point_costs(model, test, cfg)
        bucket = bucket_optimal_point_costs(model, test, cfg)
        assert bucket.mean() <= hoc.mean() + 1e-9

    def test_bucket_optimal_breaks_exact_ties_by_action_priority(self):
        # one bin: routing costs exactly the abstention penalty on average,
        # but not point by point, so the realized costs show which action won
        data = SnapshotBatch.from_examples([
            make_example("a", [0.9, 0.1], [1], p_star=[0.0, 1.0]),
            make_example("b", [0.9, 0.1], [0], p_star=[0.5, 0.5]),
        ])
        model = calibrate(fit("topclass", data, buckets=1), data)
        route_cost = float(OracleSpec().point_costs(brier, np.array([[0.0, 1.0], [0.5, 0.5]])).mean())
        cfg = RoutingConfig(loss=brier, route_penalties=(0.0,), abstain_penalty=route_cost)
        costs = bucket_optimal_point_costs(model, data, cfg)
        assert costs.tolist() == [0.0, 0.5]

    def test_policy_breaks_oracle_ties_toward_the_lower_index(self, fitted):
        # two identical oracles tie in every bin at decision time; only the
        # second is charged a penalty, so a routed point shows which one won
        model, test = fitted
        oracles = [OracleSpec(), OracleSpec()]
        decide = RoutingConfig(loss=brier, route_penalties=(0.0, 0.0), abstain_penalty=math.inf)
        charged = RoutingConfig(loss=brier, route_penalties=(0.0, 1.0), abstain_penalty=math.inf)
        costs = policy_point_costs(model, test, charged, oracles, decide_config=decide)
        weak, oracle = per_point_losses(test, brier, model)
        routed = costs != weak
        assert routed.any()
        assert costs[routed].tolist() == oracle[routed].tolist()

    def test_bucket_optimal_breaks_oracle_ties_toward_the_lower_index(self):
        # one bin where both oracles cost 0.5 on average with their penalties,
        # point by point [0.25, 0.75] through the first and [0.0, 1.0] through the second
        data = SnapshotBatch.from_examples([
            make_example("a", [0.9, 0.1], [1], p_star=[0.0, 1.0]),
            make_example("b", [0.9, 0.1], [0], p_star=[0.5, 0.5]),
        ])
        model = calibrate(fit("topclass", data, buckets=1), data)
        cfg = RoutingConfig(loss=brier, route_penalties=(0.25, 0.0), abstain_penalty=math.inf)
        costs = bucket_optimal_point_costs(model, data, cfg, [OracleSpec(), OracleSpec(kind="aggregated")])
        assert costs.tolist() == [0.25, 0.75]


class TestMultiLossReport:
    def test_one_model_serves_every_loss(self, fitted):
        model, test = fitted
        losses = [brier, LossSpec("crossentropy"), LossSpec("three_part")]
        frozen = {b: m.means.copy() for b, m in model.mixtures.items()}
        report = multi_loss_report(model, test, losses, random_seed=3)
        assert set(report) == {loss.name for loss in losses}
        for curves in report.values():
            names = {c.policy for c in curves}
            assert {"hoc_router", "total_uncertainty", "bucket_optimal", "pointwise_optimal", "random"} <= names
        for b, m in model.mixtures.items():  # no recalibration happened
            np.testing.assert_array_equal(m.means, frozen[b])

    def test_binary_only_losses_skipped_on_multiclass(self):
        data = SnapshotBatch.from_examples(
            [make_example(f"e{i}", [0.2, 0.3, 0.5], [i % 3, (i + 1) % 3]) for i in range(30)]
        )
        model = calibrate(fit("topclass", data, buckets=2), data)
        with pytest.warns(UserWarning, match="three_part"):
            report = multi_loss_report(model, data, [brier, LossSpec("three_part")])
        assert set(report) == {"brier"}

    def test_external_scores_join_the_report(self, fitted):
        model, test = fitted
        table = {e.id: float(i) for i, e in enumerate(test)}
        report = multi_loss_report(model, test, [brier], external={"xgb": table})
        assert any(c.policy == "xgb" for c in report["brier"])
