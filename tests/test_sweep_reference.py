"""``cost_sweep``, which prices each bin once and adds every beta's penalties
to that price, against a frozen reference that prices every bin four times per
beta (three decisions and the estimated costs). Rows and the estimated gap
must be equal bit for bit."""

import math

import numpy as np
import pytest

import hocroute.router as router_module
from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError, RoutingConfig, SnapshotBatch, UnsupportedLossError
from hocroute.evaluation import PREDICT_ABSTAIN, PREDICT_ROUTE, THREE_WAY, cost_sweep
from hocroute.losses import LossSpec
from hocroute.partition import fit
from hocroute.router import OracleSpec, bin_costs, simulated_costs

from conftest import make_example, ref_from_costs
from test_grouping_reference import ref_decomposition, ref_eval_arrays, ref_realized, ref_simulated_costs

# ---------------------------------------------------------------------------
# Frozen per-beta implementation
# ---------------------------------------------------------------------------


def ref_cost_sweep(model, test, loss, alpha, betas, oracles, calibration=None):
    """The sweep of ``model`` serving what it was recalibrated to from
    ``calibration``, or with ``calibration`` None the raw weak predictions."""
    betas = np.asarray(list(betas), dtype=float)
    RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=float(betas[0]))
    arrays = ref_eval_arrays(model, test, loss, oracles, calibration)
    unique_bins = sorted(arrays[0])

    def decide_bins(config):
        return {
            b: ref_from_costs(ref_simulated_costs(model, b, config, oracles))
            for b in unique_bins
        }

    rows = []
    max_gap = -math.inf
    for beta in betas:
        true_cfg = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=float(beta))
        pr_cfg = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=math.inf)
        pa_cfg = RoutingConfig(loss=loss, route_penalties=(math.inf,), abstain_penalty=float(beta))
        chosen = {
            THREE_WAY: decide_bins(true_cfg),
            PREDICT_ROUTE: decide_bins(pr_cfg),
            PREDICT_ABSTAIN: decide_bins(pa_cfg),
        }
        for b in unique_bins:
            est = ref_simulated_costs(model, b, true_cfg, oracles)
            gap = est[chosen[THREE_WAY][b]] - min(est[chosen[PREDICT_ROUTE][b]], est[chosen[PREDICT_ABSTAIN][b]])
            max_gap = max(max_gap, gap)
        for policy, actions in chosen.items():
            mean_cost = float(ref_realized(arrays, actions, true_cfg).mean())
            rows.append((alpha, float(beta), policy, mean_cost))
    return rows, float(max_gap)


def _rows(sweep):
    """The sweep's columns as (alpha, beta, policy, mean cost) rows, betas
    outermost: the order of the reference and of the sweep CSV."""
    return [
        (sweep.alpha, beta, policy, float(costs[j]))
        for j, beta in enumerate(sweep.betas.tolist())
        for policy, costs in sweep.mean_costs.items()
    ]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

LOSSES = ["brier", "crossentropy", "classification", "three_part"]
ORACLES = {
    "bayes": OracleSpec(),
    "aggregated": OracleSpec(kind="aggregated", num_annotators=3, aggregation="majority"),
}
ALPHAS = [0.0, 0.05, math.inf]


def _examples(rng, classes, n, prefix):
    out = []
    for i in range(n):
        p_star = rng.dirichlet(np.full(classes, 0.7))
        weak = 0.6 * p_star + 0.4 * rng.dirichlet(np.ones(classes))
        out.append(make_example(f"{prefix}{i}", weak, rng.choice(classes, size=4, p=p_star), p_star=p_star))
    return SnapshotBatch.from_examples(out)


@pytest.fixture(scope="module", params=[2, 3], ids=["2cls", "3cls"])
def data(request):
    rng = np.random.default_rng(70 + request.param)
    calibration = _examples(rng, request.param, 240, "c")
    return fit("topclass", calibration, buckets=3), calibration, _examples(rng, request.param, 160, "t")


@pytest.fixture(scope="module", params=[False, True], ids=["raw", "recalibrated"])
def model_case(request, data):
    spec, calibration, test = data
    return calibrate(spec, calibration, recalibrate=request.param), test, calibration


def _betas(model, test, loss, alpha, oracle):
    """0, inf, a coarse grid, and betas equal to some bin's estimated predict
    cost and route cost, so the three-way argmin meets exact ties."""
    bins = sorted(ref_eval_arrays(model, test, loss, [oracle])[0])
    irreducible, reducible = ref_decomposition(*model.mixture(bins[0]), loss)
    ties = [irreducible + reducible]
    if math.isfinite(alpha):
        ties.append(oracle.mean_cost(loss, model.mixture(bins[-1]).means) + alpha)
    return [0.0, *ties, 0.05, 0.2, 0.5, 1.0, math.inf]


@pytest.mark.parametrize("alpha", ALPHAS, ids=["a0", "a0.05", "ainf"])
@pytest.mark.parametrize("oracle", list(ORACLES), ids=list(ORACLES))
@pytest.mark.parametrize("loss_kind", LOSSES)
def test_cost_sweep_equals_per_beta_reference(model_case, loss_kind, oracle, alpha):
    model, test, calibration = model_case
    loss, spec = LossSpec(loss_kind), ORACLES[oracle]
    if loss_kind == "three_part" and test[0].weak_pred.probs.size != 2:
        with pytest.raises(UnsupportedLossError) as got:
            cost_sweep(model, test, loss, alpha, [0.1], oracles=[spec])
        with pytest.raises(UnsupportedLossError) as expected:
            ref_cost_sweep(model, test, loss, alpha, [0.1], [spec], calibration)
        assert str(got.value) == str(expected.value)
        return
    betas = _betas(model, test, loss, alpha, spec)
    sweep = cost_sweep(model, test, loss, alpha, betas, oracles=[spec])
    rows, max_gap = ref_cost_sweep(model, test, loss, alpha, betas, [spec], calibration)
    assert _rows(sweep) == rows
    assert sweep.max_estimated_gap == max_gap


@pytest.mark.parametrize("betas", [[-0.5], [0.1, -0.5], [0.1, math.nan]])
def test_bad_beta_fails_as_reference(model_case, betas):
    model, test, _ = model_case
    with pytest.raises(InvalidInputError) as got:
        cost_sweep(model, test, LossSpec("brier"), 0.05, betas)
    with pytest.raises(InvalidInputError) as expected:
        ref_cost_sweep(model, test, LossSpec("brier"), 0.05, betas, [OracleSpec()])
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# Pricing count and penalty arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_betas", [1, 15])
def test_cost_sweep_prices_each_bin_once(model_case, monkeypatch, num_betas):
    """One pricing pass per sweep, whatever the number of betas, and one oracle
    pricing per segment the test bins use (unseen bins share the global one)."""
    model, test, _ = model_case
    loss, oracle = LossSpec("brier"), ORACLES["aggregated"]
    calls = {"decompositions": 0, "oracle": 0}
    decompositions, mean_cost = router_module.estimate_decompositions, OracleSpec.mean_cost

    def counted_decompositions(*args):
        calls["decompositions"] += 1
        return decompositions(*args)

    def counted_mean_cost(self, *args):
        calls["oracle"] += 1
        return mean_cost(self, *args)

    monkeypatch.setattr(router_module, "estimate_decompositions", counted_decompositions)
    monkeypatch.setattr(OracleSpec, "mean_cost", counted_mean_cost)
    bins = ref_eval_arrays(model, test, loss, [oracle])[0]
    cost_sweep(model, test, loss, 0.05, np.linspace(0.0, 1.0, num_betas), oracles=[oracle])
    segments = {b if b in model.mixtures else None for b in bins}  # None: the global segment
    assert calls == {"decompositions": 1, "oracle": len(segments)}
    calls.update(decompositions=0, oracle=0)
    bin_costs(model, [*bins, *bins, "unseen-a", "unseen-b"], loss, [oracle])
    assert calls == {"decompositions": 1, "oracle": len(segments | {None})}


@pytest.mark.parametrize(
    "alphas,beta",
    [((0.0,), 0.3), ((0.05, 0.2), math.inf), ((math.inf, 0.1), 0.0), ((math.inf,), math.inf)],
)
def test_simulated_costs_is_bin_costs_plus_penalties(model_case, alphas, beta):
    model, _, _ = model_case
    oracles = [ORACLES["bayes"], ORACLES["aggregated"]][: len(alphas)]
    for loss_kind in ("brier", "crossentropy"):
        config = RoutingConfig(loss=LossSpec(loss_kind), route_penalties=alphas, abstain_penalty=beta)
        for b in [*model.mixtures, "unseen-bin"]:
            expected = ref_simulated_costs(model, b, config, oracles)
            got = simulated_costs(model, b, config, oracles)
            assert list(got) == list(expected) == config.actions()
            assert all(type(c) is float for c in got.values())
            assert np.array(list(got.values())).tobytes() == np.array(list(expected.values())).tobytes()
            priced = bin_costs(model, [b], config.loss, oracles)[0] + config.penalties
            assert priced.tobytes() == np.array(list(expected.values())).tobytes()
