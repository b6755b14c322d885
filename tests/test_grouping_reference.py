"""The per-bin quantities, which group rows by the integer index of
``assign_rows``, against frozen string-keyed references that group
``assign_many``'s per-row bin ids with a dict loop. Results must be equal bit
for bit, including the order of per-bin dicts."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocroute.baselines import (
    RANDOM,
    bucket_optimal_scores,
    external_scores,
    pointwise_optimal_scores,
    random_scores,
    total_uncertainty_scores,
)
from hocroute.calibrator import (
    aggregate_wasserstein,
    calibrate,
    wasserstein_1d,
    wasserstein_error,
)
from hocroute.core import (
    ABSTAIN,
    PREDICT,
    RoutingConfig,
    SnapshotBatch,
    ground_truth,
    route_action,
)
from hocroute.evaluation import (
    CURVE_POLICIES,
    bucket_optimal_point_costs,
    policy_point_costs,
    router_scores,
    routing_curve,
    routing_curves,
)
from hocroute.losses import LossSpec, entropy_batch, expected_loss_batch
from hocroute.partition import OVERFLOW_BIN, assign_many, fit, fitted_bins, partition_quality
from hocroute.router import OracleSpec, bin_costs

from conftest import make_example, ref_from_costs

BRIER = LossSpec("brier")

# ---------------------------------------------------------------------------
# Frozen string-keyed implementations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def records(batch):
    """A batch's rows as records, built once per batch: the references read
    records, as the code they freeze did."""
    return list(batch)


def _group(bins):
    grouped = {}
    for i, b in enumerate(bins):
        grouped.setdefault(b, []).append(i)
    return grouped


def ref_deployed_matrix(model, examples, calibration):
    """What a model calibrated from ``calibration`` serves: the raw weak
    predictions, or when recalibrated each bin's centroid, the centroid of the
    whole calibration set for a bin it has no rows of."""
    raw = np.stack([e.weak_pred.probs for e in records(examples)])
    if not model.recalibrated:
        return raw
    centroids = {b: centroid for b, (_, _, centroid) in ref_calibrate_bins(model.partition, calibration, True).items()}
    global_centroid = np.stack([e.snapshot_mean.probs for e in records(calibration)]).mean(axis=0)
    return np.stack([centroids.get(b, global_centroid) for b in assign_many(model.partition, examples)])


def ref_deployed(test, model, calibration):
    """The predictions ``model`` serves on ``test``; with ``calibration`` None
    (or no model) the raw weak predictions, as ``--raw-predictions`` does."""
    if model is None or calibration is None:
        return np.stack([e.weak_pred.probs for e in records(test)])
    return ref_deployed_matrix(model, test, calibration)


def raw_deployment(model, use_recalibrated):
    """The model the library evaluates for a reference called with
    ``use_recalibrated``: with it off, the same model serving raw predictions."""
    return model if use_recalibrated else replace(model, recalibrated=False)


def ref_bucket_optimal_scores(test, loss, model, calibration=None):
    gt = np.stack([ground_truth(e).probs for e in records(test)])
    reducible = expected_loss_batch(loss, gt, ref_deployed(test, model, calibration)) - entropy_batch(loss, gt)
    bins = assign_many(model.partition, test)
    sums, counts = {}, {}
    for value, b in zip(reducible, bins):
        sums[b] = sums.get(b, 0.0) + float(value)
        counts[b] = counts.get(b, 0) + 1
    bin_mean = {b: sums[b] / counts[b] for b in sums}
    return np.array([bin_mean[b] for b in bins])


def ref_decomposition(preds, means, loss):
    """A bin's (irreducible, reducible) loss from its own rows, priced as one
    bin at a time was: the mean self-loss of the snapshot means, and the mean
    total loss of the stored predictions minus that."""
    irreducible = float(np.mean(entropy_batch(loss, means)))
    total = float(np.mean(expected_loss_batch(loss, means, preds)))
    return irreducible, total - irreducible


def ref_router_scores(model, test, loss):
    bins = assign_many(model.partition, test)
    cache = {}
    for b in bins:
        if b not in cache:
            cache[b] = ref_decomposition(*model.mixture(b), loss)[1]
    return np.array([cache[b] for b in bins])


def ref_partition_quality(spec, data, loss):
    means = np.stack([e.snapshot_mean.probs for e in records(data)])
    preds = np.stack([e.weak_pred.probs for e in records(data)])
    reducible = expected_loss_batch(loss, means, preds) - entropy_batch(loss, means)
    grouped = _group(assign_many(spec, data))
    per_bin, counts = {}, {}
    for b, idxs in grouped.items():
        rl = reducible[idxs]
        per_bin[b] = float(0.5 * np.mean(np.abs(rl - rl.mean())))
        counts[b] = len(idxs)
    aggregate = float(sum(per_bin[b] * counts[b] for b in per_bin) / sum(counts.values()))
    return per_bin, counts, aggregate, [b for b in fitted_bins(spec) if b not in grouped]


def ref_calibrate_bins(partition, calibration, recalibrate):
    """bin id -> (stored predictions, snapshot means, centroid or None)."""
    preds = np.stack([e.weak_pred.probs for e in records(calibration)])
    means = np.stack([e.snapshot_mean.probs for e in records(calibration)])
    out = {}
    for b, idxs in _group(assign_many(partition, calibration)).items():
        bin_means = means[idxs]
        if recalibrate:
            centroid = bin_means.mean(axis=0)
            out[b] = (np.tile(centroid, (len(idxs), 1)), bin_means, centroid)
        else:
            out[b] = (preds[idxs], bin_means, None)
    return out


def ref_wasserstein_error(model, reference):
    ref_means = np.stack([e.snapshot_mean.probs for e in records(reference)])
    grouped = _group(assign_many(model.partition, reference))
    return {
        b: 2.0 * wasserstein_1d(model.mixture(b).means[:, 1], ref_means[idxs, 1]) for b, idxs in grouped.items()
    }


def ref_aggregate_wasserstein(model, reference):
    per_bin = ref_wasserstein_error(model, reference)
    counts = {}
    for b in assign_many(model.partition, reference):
        counts[b] = counts.get(b, 0) + 1
    return float(sum(per_bin[b] * counts[b] for b in per_bin) / sum(counts.values()))


def ref_eval_arrays(model, test, loss, oracles, calibration=None):
    bins = assign_many(model.partition, test)
    truth = np.stack([ground_truth(e).probs for e in records(test)])
    deployed = ref_deployed(test, model, calibration)
    predict_cost = expected_loss_batch(loss, truth, deployed)
    oracle_cost = np.stack([o.point_costs(loss, truth) for o in oracles])
    positions = {b: np.asarray(idxs) for b, idxs in _group(bins).items()}
    return positions, predict_cost, oracle_cost


def ref_simulated_costs(model, bin_id, config, oracles):
    """A bin's estimated cost of every action, penalties included, priced
    from its stored mixture one action at a time."""
    mixture = model.mixture(bin_id)
    irreducible, reducible = ref_decomposition(mixture.preds, mixture.means, config.loss)
    costs = {PREDICT: irreducible + reducible}
    for i, (oracle, alpha) in enumerate(zip(oracles, config.route_penalties)):
        costs[route_action(i)] = oracle.mean_cost(config.loss, mixture.means) + alpha
    costs[ABSTAIN] = config.abstain_penalty
    return costs


def ref_realized(arrays, action_by_bin, config):
    positions, predict_cost, oracle_cost = arrays
    out = np.empty(predict_cost.shape[0])
    for b, idxs in positions.items():
        action = action_by_bin[b]
        if action == PREDICT:
            out[idxs] = predict_cost[idxs]
        elif action == ABSTAIN:
            out[idxs] = config.abstain_penalty
        else:
            i = int(action.split(":", 1)[1])
            out[idxs] = oracle_cost[i][idxs] + config.route_penalties[i]
    return out


def ref_policy_point_costs(model, test, config, oracles, decide_config=None, calibration=None):
    arrays = ref_eval_arrays(model, test, config.loss, oracles, calibration)
    cfg = decide_config or config
    actions = {b: ref_from_costs(ref_simulated_costs(model, b, cfg, oracles)) for b in sorted(arrays[0])}
    return ref_realized(arrays, actions, config)


def ref_bucket_optimal_point_costs(model, test, config, oracles, calibration=None):
    arrays = ref_eval_arrays(model, test, config.loss, oracles, calibration)
    positions, predict_cost, oracle_cost = arrays
    actions = {}
    for b, idxs in positions.items():
        costs = {PREDICT: float(predict_cost[idxs].mean()), ABSTAIN: config.abstain_penalty}
        for i, alpha in enumerate(config.route_penalties):
            costs[f"route:{i}"] = float(oracle_cost[i][idxs].mean()) + alpha
        actions[b] = ref_from_costs(costs)
    return ref_realized(arrays, actions, config)


# ---------------------------------------------------------------------------
# Cases: every partition kind, with and without recalibration, with test
# queries in fitted bins that received no calibration data and, for level
# sets, in the overflow bin
# ---------------------------------------------------------------------------

PARTITIONS = [("topclass", 4), ("feature", 6), ("levelset", 1)]


def _examples(rng, pool, n, prefix):
    out = []
    for i in range(n):
        p_star = rng.dirichlet(np.ones(pool.shape[1]))
        out.append(
            make_example(
                f"{prefix}{i}",
                pool[rng.integers(pool.shape[0])],
                rng.choice(pool.shape[1], size=5, p=p_star),
                features=np.array([rng.uniform(-0.2, 1.2)]),
                p_star=p_star,
            )
        )
    return SnapshotBatch.from_examples(out)


@pytest.fixture(scope="module", params=[2, 3], ids=["2cls", "3cls"])
def data(request):
    classes = request.param
    rng = np.random.default_rng(20 + classes)
    pool = rng.dirichlet(np.ones(classes), size=14)
    calibration = _examples(rng, pool[:11], 400, "c")  # the last pool rows are unseen: overflow
    return classes, calibration, _examples(rng, pool, 300, "t")


@pytest.fixture(scope="module", params=PARTITIONS, ids=[kind for kind, _ in PARTITIONS])
def spec_case(request, data):
    kind, buckets = request.param
    classes, calibration, test = data
    spec = fit(kind, calibration, buckets=buckets)
    bins = assign_many(spec, calibration)
    dropped = set(sorted(set(bins))[::3])
    kept = SnapshotBatch.from_examples([e for e, b in zip(calibration, bins) if b not in dropped])
    return classes, spec, kept, test, dropped


@pytest.fixture(scope="module", params=[False, True], ids=["raw", "recalibrated"])
def case(request, spec_case):
    classes, spec, calibration, test, dropped = spec_case
    return classes, calibrate(spec, calibration, recalibrate=request.param), calibration, test, dropped


def test_cases_reach_empty_fitted_bins_and_overflow(case):
    _, model, _, test, dropped = case
    test_bins = set(assign_many(model.partition, test))
    assert dropped & test_bins and not dropped & set(model.mixtures)
    if model.partition.kind == "levelset":
        assert OVERFLOW_BIN in test_bins


def test_calibrate_bins_equal_reference(case):
    _, model, calibration, _, _ = case
    reference = ref_calibrate_bins(model.partition, calibration, model.recalibrated)
    # the global mixture is the whole set in calibration order, its centroid summed in that order
    means = np.stack([e.snapshot_mean.probs for e in records(calibration)])
    preds = np.stack([e.weak_pred.probs for e in records(calibration)])
    assert np.array_equal(model.global_mixture.means, means)
    if model.recalibrated:
        preds = np.tile(means.mean(axis=0), (len(means), 1))
    assert np.array_equal(model.global_mixture.preds, preds)
    assert list(model.mixtures) == list(reference)
    for b, (preds, means, centroid) in reference.items():
        assert np.array_equal(model.mixtures[b].preds, preds)
        assert np.array_equal(model.mixtures[b].means, means)
        if centroid is None:
            assert b not in model.centroids
        else:
            assert np.array_equal(model.centroids[b].probs, centroid)


def test_deployed_matrix_equals_reference(case):
    _, model, calibration, test, _ = case
    expected = ref_deployed_matrix(model, test, calibration)
    assert np.array_equal(model.deployed_matrix(test), expected)
    bins = assign_many(model.partition, test)
    distinct = sorted(set(bins))
    pair = (distinct, np.array([distinct.index(b) for b in bins]))
    assert np.array_equal(model.deployed_matrix(test, pair), expected)


@pytest.mark.parametrize("use_recalibrated", [True, False])
def test_bucket_optimal_scores_equal_reference(case, use_recalibrated):
    _, model, calibration, test, _ = case
    got = bucket_optimal_scores(test, BRIER, raw_deployment(model, use_recalibrated)).scores
    assert np.array_equal(got, ref_bucket_optimal_scores(test, BRIER, model, calibration if use_recalibrated else None))


@pytest.mark.parametrize("loss", [BRIER, LossSpec("crossentropy")], ids=["brier", "crossentropy"])
@pytest.mark.parametrize("use_recalibrated", [True, False])
def test_routing_curves_equal_one_routing_curve_per_policy(case, use_recalibrated, loss):
    """The one curve path prices the losses once; every curve must still equal
    the one ``routing_curve`` draws for that policy alone."""
    _, model, _, test, _ = case
    model = raw_deployment(model, use_recalibrated)
    table = {e.id: float((i * 37) % 11) for i, e in enumerate(test)}  # ties break by id
    reference = [
        router_scores(model, test, loss),
        total_uncertainty_scores(test, loss, model),
        bucket_optimal_scores(test, loss, model),
        pointwise_optimal_scores(test, loss, model),
        random_scores(test, seed=5),
        external_scores(test, table, name="ext"),
    ]
    expected = [routing_curve(p, test, loss, model) for p in reference]
    got = routing_curves(model, test, loss, CURVE_POLICIES + (RANDOM,), {"ext": table}, 5)
    assert [c.policy for c in got] == [*CURVE_POLICIES, RANDOM, "ext"] == [c.policy for c in expected]
    for g, e in zip(got, expected):
        assert g.loss == e.loss == loss.name
        assert np.array_equal(g.fractions, e.fractions) and np.array_equal(g.mean_losses, e.mean_losses)


def test_router_scores_equal_reference(case):
    _, model, _, test, _ = case
    for loss in (BRIER, LossSpec("classification")):
        assert np.array_equal(router_scores(model, test, loss).scores, ref_router_scores(model, test, loss))


def test_partition_quality_equals_reference(case):
    _, model, calibration, test, _ = case
    for data in (calibration, test):
        report = partition_quality(model.partition, data, BRIER)
        per_bin, counts, aggregate, empty = ref_partition_quality(model.partition, data, BRIER)
        assert list(report.per_bin.items()) == list(per_bin.items())
        assert list(report.counts.items()) == list(counts.items())
        assert report.aggregate == aggregate
        assert report.empty_bins == empty


def test_wasserstein_equals_reference(case):
    classes, model, _, test, _ = case
    if classes != 2:
        pytest.skip("the Wasserstein proxy is binary only")
    assert list(wasserstein_error(model, test).items()) == list(ref_wasserstein_error(model, test).items())
    assert aggregate_wasserstein(model, test) == ref_aggregate_wasserstein(model, test)


@pytest.mark.parametrize("use_recalibrated", [True, False])
def test_point_costs_equal_reference(case, use_recalibrated):
    _, model, calibration, test, _ = case
    oracles = [OracleSpec("bayes"), OracleSpec("aggregated", num_annotators=3, aggregation="majority")]
    deployed_from = calibration if use_recalibrated else None
    config = RoutingConfig(BRIER, route_penalties=(0.05, 0.02), abstain_penalty=0.2)
    two_way = RoutingConfig(BRIER, route_penalties=(0.05, math.inf), abstain_penalty=math.inf)
    evaluated = raw_deployment(model, use_recalibrated)
    for decide_config in (None, two_way):
        got = policy_point_costs(evaluated, test, config, oracles, decide_config)
        assert np.array_equal(got, ref_policy_point_costs(model, test, config, oracles, decide_config, deployed_from))
    got = bucket_optimal_point_costs(evaluated, test, config, oracles)
    assert np.array_equal(got, ref_bucket_optimal_point_costs(model, test, config, oracles, deployed_from))


# ---------------------------------------------------------------------------
# One-pass bin pricing against pricing one bin at a time, on the shapes of
# the benchmark models: binary top-class recalibrated, 10-class top-class raw,
# and level sets whose calibration rows reach the overflow bin
# ---------------------------------------------------------------------------

SHAPES = ["binary_topclass20_recalibrated", "10class_topclass20_raw", "levelset_overflow"]
PRICING_ORACLES = [OracleSpec("bayes"), OracleSpec("aggregated", num_annotators=5, aggregation="majority")]


def _shape_model(shape):
    rng = np.random.default_rng(SHAPES.index(shape))
    if shape == "levelset_overflow":
        pool = rng.dirichlet(np.ones(3), size=12)
        spec = fit("levelset", _examples(rng, pool[:8], 200, "f"), buckets=1)
        return calibrate(spec, _examples(rng, pool, 300, "c"))
    classes = 2 if shape.startswith("binary") else 10
    calibration = _examples(rng, rng.dirichlet(np.ones(classes), size=300), 300, "c")
    return calibrate(fit("topclass", calibration, buckets=20), calibration, recalibrate=shape.endswith("recalibrated"))


@pytest.fixture(scope="module", params=SHAPES)
def shape_model(request):
    model = _shape_model(request.param)
    unseen = [b for b in fitted_bins(model.partition) if b not in model.mixtures]
    return model, [*model.bins, *unseen[:3], "unseen-bin"]


@pytest.mark.parametrize("loss", [BRIER, LossSpec("crossentropy"), LossSpec("classification")], ids=lambda s: s.kind)
def test_bin_costs_equal_one_bin_at_a_time(shape_model, loss):
    """Any order, subset or repetition of bins, unseen ones included, prices
    each bin to the bits of its own rows priced alone."""
    model, candidates = shape_model
    if model.partition.kind == "levelset":
        assert OVERFLOW_BIN in model.mixtures
    reference = {}
    for b in candidates:
        mixture = model.mixture(b)
        irreducible, reducible = ref_decomposition(mixture.preds, mixture.means, loss)
        routed = [oracle.mean_cost(loss, mixture.means) for oracle in PRICING_ORACLES]
        reference[b] = [irreducible + reducible, *routed, 0.0]

    def check(bins):
        got = bin_costs(model, bins, loss, PRICING_ORACLES)
        expected = np.array([reference[b] for b in bins]).reshape(len(bins), len(PRICING_ORACLES) + 2)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    check(list(reversed(candidates)))
    settings(max_examples=25, deadline=None)(given(st.lists(st.sampled_from(candidates), max_size=60))(check))()
