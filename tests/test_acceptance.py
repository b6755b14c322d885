"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The seeded synthetic reproduction criteria share one session model so
the whole module stays well inside its runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest

from hocroute.baselines import (
    pointwise_optimal_scores,
    random_scores,
    total_uncertainty_scores,
)
from hocroute.calibrator import aggregate_wasserstein, calibrate, estimate_decomposition
from hocroute.cli import cli_dispatch
from hocroute.core import (
    RoutingConfig,
    SnapshotExample,
    action_priority,
    ground_truth,
)
from hocroute.diagnostics import (
    brute_force_action,
    check_entropy_lipschitz,
    check_loss_lipschitz,
)
from hocroute.evaluation import (
    bucket_optimal_point_costs,
    cost_sweep,
    curve_values_at,
    multi_loss_report,
    per_point_losses,
    policy_point_costs,
    router_scores,
)
from hocroute.losses import (
    BINARY_ONLY,
    LossSpec,
    entropy,
    entropy_batch,
    expected_loss,
    expected_loss_batch,
)
from hocroute.partition import fit
from hocroute.router import decide, tree_decide
from hocroute.storage import ingest, load_model, sha256_file, write_dataset
from hocroute.synthetic import generate

SEED = 2024
WEAK_BINS = 25
SIZES = (10_000, 5_000, 100_000)
K = 100

brier = LossSpec("brier")

ALL_LOSSES = [
    LossSpec("brier"),
    LossSpec("crossentropy"),
    LossSpec("classification"),
    LossSpec("weighted_fp_fn", c_fp=2.0, c_fn=1.0),
    LossSpec("three_part"),
    LossSpec("asymmetric_class", gamma=2.0),
]


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d} PASS - {detail}")


@pytest.fixture(scope="module")
def big_run():
    return generate("sinusoidal", sizes=SIZES, k=K, seed=SEED, weak_bins=WEAK_BINS)


@pytest.fixture(scope="module")
def big_model(big_run):
    spec = fit("topclass", big_run.calibration, buckets=10)
    return calibrate(spec, big_run.calibration, recalibrate=True)


@pytest.fixture(scope="module")
def curve_inputs(big_run, big_model):
    test = big_run.test
    weak, oracle = per_point_losses(test, brier, big_model)
    ids = np.array([e.id for e in test])
    return test, weak, oracle, ids


def test_criterion_1_decision_tree_equivalence():
    rng = np.random.default_rng(SEED)
    trials = 100_000
    il = rng.random(trials) * 2.0
    rl = rng.random(trials) * 2.0
    alpha = rng.random(trials) * 2.0
    beta = np.where(rng.random(trials) < 0.25, math.inf, rng.random(trials) * 2.0)
    start = time.perf_counter()
    disagreements = 0
    compared = 0
    for values in zip(il, rl, alpha, beta):
        i, r, a, b = (float(v) for v in values)
        if min(abs(r - a), abs(i + r - b), abs(i + a - b)) <= 1e-12:
            continue  # exact ties resolve by priority, excluded by contract
        compared += 1
        if tree_decide(i, r, a, b) != brute_force_action(i, r, a, b):
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert compared > trials * 0.99
    assert elapsed < 5.0
    report(1, f"{compared} non-tie tuples agree with brute force in {elapsed:.2f}s")


def test_criterion_2_lipschitz_lemmas():
    rng = np.random.default_rng(SEED + 1)
    worst = -math.inf
    checked = 0
    for spec in ALL_LOSSES:
        for classes in (2, 3):
            if classes > 2 and spec.kind in BINARY_ONLY:
                continue
            for check in (check_loss_lipschitz, check_entropy_lipschitz):
                result = check(spec, classes, 100_000, rng)
                assert result.violations == 0, result
                worst = max(worst, result.max_excess)
                checked += result.trials
    assert worst <= 0.0 + 1e-9
    report(2, f"{checked} random triples/pairs, max excess over (B/2)*l1 bound {worst:.2e}")


def test_criterion_3_properness():
    grid = np.arange(101) / 100.0
    mesh = np.column_stack([grid, 1.0 - grid])
    truth = np.repeat(mesh, len(mesh), axis=0)
    pred = np.tile(mesh, (len(mesh), 1))
    rng = np.random.default_rng(SEED + 2)
    raw = rng.random((10_000, 3))
    truth3 = raw / raw.sum(axis=1, keepdims=True)
    raw = rng.random((10_000, 3))
    pred3 = raw / raw.sum(axis=1, keepdims=True)
    worst = -math.inf
    for spec in ALL_LOSSES:
        excess = entropy_batch(spec, truth) - expected_loss_batch(spec, truth, pred)
        worst = max(worst, float(excess.max()))
        assert float(excess.max()) <= 1e-9, spec.name
        if spec.kind not in BINARY_ONLY:
            excess3 = entropy_batch(spec, truth3) - expected_loss_batch(spec, truth3, pred3)
            worst = max(worst, float(excess3.max()))
            assert float(excess3.max()) <= 1e-9, spec.name
    report(3, f"binary 0.01-mesh grid + 10^4 multiclass pairs, max properness excess {worst:.2e}")


def test_criterion_4_decomposition_identity(big_model):
    worst = 0.0
    for bin_id, mixture in big_model.mixtures.items():
        for spec in ALL_LOSSES:
            il, rl = estimate_decomposition(big_model, bin_id, spec)
            total = float(np.mean(expected_loss_batch(spec, mixture.means, mixture.preds)))
            worst = max(worst, abs(il + rl - total))
    assert worst <= 1e-12
    report(4, f"{len(big_model.mixtures)} bins x {len(ALL_LOSSES)} losses, max |IL+RL - total| = {worst:.2e}")


def test_criterion_5_flexibility_contract(big_run, big_model, tmp_path):
    # one calibrated model file serves six losses and a 5x5 penalty grid with
    # no recalibration step; asserted via the run manifests and file bytes
    cal_path = tmp_path / "cal.jsonl"
    write_dataset(cal_path, big_run.calibration)
    test_path = tmp_path / "test.jsonl"
    write_dataset(test_path, big_run.test[:2000])
    queries = tmp_path / "queries.jsonl"
    queries.write_text(
        "\n".join(
            json.dumps({"id": e.id, "weak_probs": e.weak_pred.probs.tolist()})
            for e in big_run.test[:40]
        )
        + "\n"
    )
    model_path = tmp_path / "model.json"
    assert cli_dispatch(
        ["calibrate", "--in", str(cal_path), "--partition", "topclass:10", "--recalibrate",
         "--out", str(model_path)]
    ) == 0
    model_bytes = model_path.read_bytes()
    model_hash = sha256_file(model_path)

    loss_flags = ["brier", "crossentropy", "classification", "weighted_fp_fn:2.0:1.0",
                  "three_part", "asymmetric_class:2.0"]
    manifests = []
    for i, flag in enumerate(loss_flags):
        out = tmp_path / f"curves_{i}.csv"
        assert cli_dispatch(
            ["curve", "--model", str(model_path), "--test", str(test_path), "--loss", flag,
             "--policies", "hoc_router,total_uncertainty", "--out", str(out)]
        ) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 101
        manifests.append(out.with_name(out.name + ".manifest.json"))

    alphas = [0.0, 0.05, 0.1, 0.2, 0.4]
    betas = ["0.05", "0.1", "0.2", "0.4", "inf"]
    grid_runs = 0
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            out = tmp_path / f"route_{i}{j}.jsonl"
            flag = loss_flags[(i * len(betas) + j) % len(loss_flags)]
            assert cli_dispatch(
                ["route", "--model", str(model_path), "--loss", flag, "--alpha", str(a),
                 "--beta", b, "--in", str(queries), "--out", str(out)]
            ) == 0
            decisions = [json.loads(line) for line in out.read_text().splitlines()]
            assert len(decisions) == 40
            for record in decisions:
                costs = record["est_costs"]
                best = min(costs, key=lambda x: (costs[x], action_priority(x)))
                assert record["action"] == best
            manifests.append(out.with_name(out.name + ".manifest.json"))
            grid_runs += 1

    assert grid_runs == 25
    # the model file never changed, every run consumed the identical bytes,
    # and no run after the first was a calibration
    assert model_path.read_bytes() == model_bytes
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] in ("curve", "route")
        assert manifest["inputs"][str(model_path)] == model_hash

    # full cross product at the library level: decisions stay valid for every
    # loss and penalty combination from the single loaded model
    model = load_model(model_path)
    for spec in ALL_LOSSES:
        for a in alphas:
            for b in [0.05, 0.1, 0.2, 0.4, math.inf]:
                cfg = RoutingConfig(loss=spec, route_penalties=(a,), abstain_penalty=b)
                for bin_id in model.mixtures:
                    decision = decide(model, bin_id, cfg)
                    costs = decision.est_costs
                    assert decision.action == min(
                        costs, key=lambda x: (costs[x], action_priority(x))
                    )
    report(5, f"byte-identical model ({model_hash[:12]}...) served 6 losses x 25 penalty pairs, 31 manifests agree")


def _bootstrap_curves(policies, ids, weak, oracle, fractions, resamples=10, seed=7):
    rng = np.random.default_rng(seed)
    n = len(ids)
    out = {name: [] for name in policies}
    for _ in range(resamples):
        idx = rng.integers(0, n, size=n)
        for name, scores in policies.items():
            out[name].append(curve_values_at(scores[idx], ids[idx], weak[idx], oracle[idx], fractions))
    return {name: np.array(v) for name, v in out.items()}


def test_criterion_6_fig1_qualitative(big_run, big_model, curve_inputs):
    start = time.perf_counter()
    test, weak, oracle, ids = curve_inputs
    fractions = np.arange(1, 10) / 10.0
    scores = {
        "hoc": router_scores(big_model, test, brier).scores,
        "tu": total_uncertainty_scores(test, brier, big_model).scores,
        "po": pointwise_optimal_scores(test, brier, big_model).scores,
        "rand": random_scores(test, seed=99).scores,
    }
    values = {k: curve_values_at(s, ids, weak, oracle, fractions) for k, s in scores.items()}
    boot = _bootstrap_curves(scores, ids, weak, oracle, fractions)

    se_hoc_tu = (boot["hoc"] - boot["tu"]).std(axis=0, ddof=1)
    assert np.all(values["hoc"] <= values["tu"] + se_hoc_tu)

    # both methods live between the optimal envelope and random routing
    assert np.all(values["po"] <= values["hoc"] + 1e-9)
    assert np.all(values["po"] <= values["tu"] + 1e-9)
    se_hoc_rand = (boot["hoc"] - boot["rand"]).std(axis=0, ddof=1)
    se_tu_rand = (boot["tu"] - boot["rand"]).std(axis=0, ddof=1)
    assert np.all(values["hoc"] <= values["rand"] + se_hoc_rand)
    assert np.all(values["tu"] <= values["rand"] + se_tu_rand)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    margin = float((values["tu"] - values["hoc"]).min())
    report(6, f"router beats total uncertainty at all 9 fractions (min gap {margin:.4f}) in {elapsed:.1f}s")


def test_criterion_7_regret_bound(big_run, big_model):
    cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=math.inf)
    router_costs = policy_point_costs(big_model, big_run.test, cfg)
    bucket_costs = bucket_optimal_point_costs(big_model, big_run.test, cfg)
    paired = router_costs - bucket_costs
    se = float(paired.std(ddof=1)) / math.sqrt(len(paired))
    eps_hat = aggregate_wasserstein(big_model, big_run.test)
    bound = brier.bound * eps_hat + 2.0 * se
    regret = float(paired.mean())
    assert regret <= bound
    report(7, f"regret {regret:.6f} <= B*eps_hat + 2se = {bound:.6f} (eps_hat {eps_hat:.4f})")


def _three_way_dominance(model, test, label):
    betas = [round(0.1 + 0.05 * i, 10) for i in range(15)]
    sweep = cost_sweep(model, test, brier, alpha=0.05, betas=betas)
    assert sweep.max_estimated_gap <= 1e-9
    worst = -math.inf
    for beta in betas:
        cfg = RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=beta)
        three = policy_point_costs(model, test, cfg)
        pr = policy_point_costs(
            model, test, cfg,
            decide_config=RoutingConfig(loss=brier, route_penalties=(0.05,), abstain_penalty=math.inf),
        )
        pa = policy_point_costs(
            model, test, cfg,
            decide_config=RoutingConfig(loss=brier, route_penalties=(math.inf,), abstain_penalty=beta),
        )
        better = pr if pr.mean() <= pa.mean() else pa
        paired = three - better
        se = float(paired.std(ddof=1)) / math.sqrt(len(paired))
        margin = float(paired.mean()) - 2.0 * se
        worst = max(worst, margin)
        assert float(paired.mean()) <= 2.0 * se
    return worst


def test_criterion_8_three_way_dominance(big_run, big_model, tmp_path):
    worst_syn = _three_way_dominance(big_model, big_run.test, "synthetic")

    # ingested dataset: snapshot means are the ground-truth source, as for
    # real multi-annotator data
    real = generate("piecewise", sizes=(4_000, 3_000, 8_000), k=50, seed=SEED + 5)
    stripped = [
        SnapshotExample(id=e.id, weak_pred=e.weak_pred, labels=e.labels, features=e.features)
        for e in real.test
    ]
    cal_path = tmp_path / "real_cal.jsonl"
    test_path = tmp_path / "real_test.jsonl"
    write_dataset(cal_path, real.calibration)
    write_dataset(test_path, stripped)
    cal = ingest(cal_path)
    test = ingest(test_path)
    assert all(e.p_star is None for e in test)
    model = calibrate(fit("topclass", cal, buckets=10), cal, recalibrate=True)
    worst_real = _three_way_dominance(model, test, "ingested")
    report(8, f"three-way <= min(two-way) at 15 betas; worst margins synthetic {worst_syn:.2e}, ingested {worst_real:.2e}")


def test_criterion_9_curve_endpoints(big_run, big_model):
    # independent sums: exact (fsum) accumulation of per-point losses, with a
    # scalar-loop cross-check on a prefix so the oracle does not share the
    # batch code path it certifies
    test = big_run.test[:20_000]
    truth = np.stack([ground_truth(e).probs for e in test])
    deployed = big_model.deployed_matrix(test)
    worst = 0.0
    for spec in (brier, LossSpec("crossentropy"), LossSpec("three_part")):
        weak_mean = math.fsum(expected_loss_batch(spec, truth, deployed).tolist()) / len(test)
        oracle_mean = math.fsum(entropy_batch(spec, truth).tolist()) / len(test)
        scalar_weak = math.fsum(
            expected_loss(spec, ground_truth(e), big_model.deployed_prediction(e)) for e in test[:4000]
        )
        scalar_oracle = math.fsum(entropy(spec, ground_truth(e)) for e in test[:4000])
        assert abs(math.fsum(expected_loss_batch(spec, truth[:4000], deployed[:4000]).tolist()) - scalar_weak) <= 4e-9
        assert abs(math.fsum(entropy_batch(spec, truth[:4000]).tolist()) - scalar_oracle) <= 4e-9
        for curve in multi_loss_report(big_model, test, [spec], random_seed=1)[spec.name]:
            start_gap = abs(curve.mean_losses[0] - weak_mean)
            end_gap = abs(curve.mean_losses[-1] - oracle_mean)
            worst = max(worst, start_gap, end_gap)
            assert start_gap <= 1e-9
            assert end_gap <= 1e-9
    report(9, f"all curve endpoints match independent sums, worst gap {worst:.2e}")


def test_criterion_10_ingestion_round_trip(tmp_path):
    out_dir = tmp_path / "synth"
    assert cli_dispatch(
        ["generate-synthetic", "--kind", "sinusoidal", "--train", "1000", "--cal", "10000",
         "--test", "100", "--k", "25", "--seed", str(SEED), "--weak-bins", str(WEAK_BINS),
         "--out-dir", str(out_dir)]
    ) == 0
    reference = generate("sinusoidal", sizes=(1000, 10_000, 100), k=25, seed=SEED, weak_bins=WEAK_BINS)
    loaded = ingest(out_dir / "calibration.jsonl")
    assert len(loaded) == 10_000
    for orig, back in zip(reference.calibration, loaded):
        assert orig.id == back.id
        assert np.array_equal(orig.snapshot_mean.probs, back.snapshot_mean.probs)
        assert np.array_equal(orig.weak_pred.probs, back.weak_pred.probs)
    report(10, "10^4 generated records ingest with bit-exact snapshot means")


def test_criterion_11_recalibration_benefit(big_run, big_model):
    raw_model = calibrate(big_model.partition, big_run.calibration, recalibrate=False)
    means = big_run.test.means
    raw_loss = float(expected_loss_batch(brier, means, raw_model.deployed_matrix(big_run.test)).mean())
    recal_loss = float(expected_loss_batch(brier, means, big_model.deployed_matrix(big_run.test)).mean())
    assert recal_loss <= raw_loss + 1e-3
    report(11, f"deployed Brier vs test snapshot means: recalibrated {recal_loss:.6f} <= raw {raw_loss:.6f} + 1e-3")
