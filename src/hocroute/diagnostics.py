"""Executable checks of the library's mathematical guarantees.

Each check draws seeded random instances, runs them through the production
kernels, and reports the violation count and the largest excess against a
proved bound. Lipschitz continuity, properness and boundedness (the loss
under a one-hot truth lies in [0, B]) price their draws with
``expected_loss_batch`` and ``entropy_batch``; the threshold-tree check
compares ``tree_decide`` with ``router.choose``'s argmin over the same
action costs and records its first counterexample. Every check runs the
requested number of trials except the simulated-cost gap, whose synthetic
instance has a fixed size. All checks are deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibrator import calibrate, wasserstein_1d
from .core import ABSTAIN, PREDICT, RoutingConfig, action_priority
from .losses import BINARY_ONLY, LossSpec, entropy_batch, expected_loss_batch
from .partition import _bin_positions, assign_rows, fit
from .router import OracleSpec, choose, simulated_costs, tree_decide
from .synthetic import SINUSOIDAL, generate

SLACK = 1e-9


@dataclass
class CheckResult:
    name: str
    trials: int
    violations: int
    max_excess: float
    worst: tuple | None = None

    @property
    def passed(self) -> bool:
        """No violation in at least one trial; a check that ran none proves nothing."""
        return self.violations == 0 and self.trials > 0

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": self.violations,
            "max_excess": self.max_excess,
            "passed": self.passed,
            "worst": None if self.worst is None else [float(v) for v in self.worst],
        }


def _random_simplex(rng: np.random.Generator, n: int, classes: int) -> np.ndarray:
    raw = rng.random((n, classes))
    return raw / raw.sum(axis=1, keepdims=True)


def _loss_specs() -> list[LossSpec]:
    return [
        LossSpec("brier"),
        LossSpec("crossentropy"),
        LossSpec("classification"),
        LossSpec("weighted_fp_fn", c_fp=2.0, c_fn=1.0),
        LossSpec("three_part"),
        LossSpec("asymmetric_class", gamma=2.0),
    ]


def _excess_result(name: str, excess: np.ndarray) -> CheckResult:
    return CheckResult(
        name=name,
        trials=int(excess.size),
        violations=int(np.sum(excess > SLACK)),
        max_excess=float(excess.max()) if excess.size else 0.0,
    )


def check_loss_lipschitz(spec: LossSpec, classes: int, trials: int, rng) -> CheckResult:
    """|L(p1, q) - L(p2, q)| never exceeds (B/2) * l1(p1, p2)."""
    p1 = _random_simplex(rng, trials, classes)
    p2 = _random_simplex(rng, trials, classes)
    q = _random_simplex(rng, trials, classes)
    gap = np.abs(expected_loss_batch(spec, p1, q) - expected_loss_batch(spec, p2, q))
    bound = (spec.bound / 2.0) * np.abs(p1 - p2).sum(axis=1)
    return _excess_result(f"lipschitz[{spec.name},{classes}cls]", gap - bound)


def check_entropy_lipschitz(spec: LossSpec, classes: int, trials: int, rng) -> CheckResult:
    """|H(p1) - H(p2)| never exceeds (B/2) * l1(p1, p2)."""
    p1 = _random_simplex(rng, trials, classes)
    p2 = _random_simplex(rng, trials, classes)
    gap = np.abs(entropy_batch(spec, p1) - entropy_batch(spec, p2))
    bound = (spec.bound / 2.0) * np.abs(p1 - p2).sum(axis=1)
    return _excess_result(f"entropy_lipschitz[{spec.name},{classes}cls]", gap - bound)


def check_boundedness(spec: LossSpec, classes: int, trials: int, rng) -> CheckResult:
    """Pointwise losses land in [0, B]: the expected loss under a one-hot truth."""
    preds = _random_simplex(rng, trials, classes)
    labels = rng.integers(0, classes, size=trials)
    values = expected_loss_batch(spec, np.eye(classes)[labels], preds)
    excess = np.maximum(values - spec.bound, -values)
    return _excess_result(f"bounded[{spec.name},{classes}cls]", excess)


def check_properness(spec: LossSpec, classes: int, trials: int, rng) -> CheckResult:
    """Predicting the true conditional is never beaten by another prediction."""
    truth = _random_simplex(rng, trials, classes)
    other = _random_simplex(rng, trials, classes)
    excess = entropy_batch(spec, truth) - expected_loss_batch(spec, truth, other)
    return _excess_result(f"properness[{spec.name},{classes}cls]", excess)


def brute_force_action(
    irreducible: float, reducible: float, route_penalty: float, abstain_penalty: float
) -> str:
    costs = {
        PREDICT: irreducible + reducible,
        "route:0": irreducible + route_penalty,
        ABSTAIN: abstain_penalty,
    }
    return min(costs, key=lambda a: (costs[a], action_priority(a)))


def check_tree_equivalence(trials: int, rng) -> CheckResult:
    """The threshold tree matches ``router.choose``'s argmin over the action
    costs ``[i + r, i + alpha, beta]`` away from ties."""
    il = rng.random(trials) * 2.0
    rl = rng.random(trials) * 2.0
    alpha = rng.random(trials) * 2.0
    beta = np.where(rng.random(trials) < 0.2, math.inf, rng.random(trials) * 2.0)
    margins = np.stack([np.abs(rl - alpha), np.abs(il + rl - beta), np.abs(il + alpha - beta)])
    kept = margins.min(axis=0) > 1e-12  # exact ties are resolved by priority, not thresholds
    draws = np.stack([il, rl, alpha, beta], axis=1)[kept]
    i, r, a, b = draws.T
    config = RoutingConfig(LossSpec("brier"), route_penalties=(0.0,), abstain_penalty=0.0)
    actions = config.actions()
    argmin = choose(np.stack([i + r, i + a, b], axis=1), config)
    wrong = [n for n, draw in enumerate(draws.tolist()) if tree_decide(*draw) != actions[argmin[n]]]
    return CheckResult(
        name="tree_vs_argmin",
        trials=len(draws),
        violations=len(wrong),
        max_excess=float(len(wrong)),
        worst=tuple(draws[wrong[0]].tolist()) if wrong else None,
    )


def check_simulated_cost_gap(seed: int = 0) -> CheckResult:
    """On exact-conditional synthetic bins, the gap between simulated and
    true mean action costs stays within (B/2) times the measured per-bin
    Wasserstein distance. This is the duality bound evaluated empirically,
    so any excess beyond float noise is a bug."""
    data = generate(SINUSOIDAL, sizes=(4000, 2000, 4000), k=50, seed=seed)
    spec = LossSpec("brier")
    model = calibrate(fit("topclass", data.calibration, buckets=10), data.calibration, recalibrate=True)
    config = RoutingConfig(loss=spec, route_penalties=(0.05,), abstain_penalty=math.inf)
    truth = data.test.truth

    excesses = []
    oracle = OracleSpec(kind="bayes")
    for b, idxs in _bin_positions(*assign_rows(model.partition, data.test.probs, data.test.features)).items():
        mixture = model.mixture(b)
        sim = simulated_costs(model, b, config, oracles=[oracle])
        bin_truth = truth[idxs]  # preds[0]: the centroid the recalibrated bin stores and serves
        true_predict = float(np.mean(expected_loss_batch(spec, bin_truth, np.tile(mixture.preds[0], (len(idxs), 1)))))
        true_route = float(np.mean(entropy_batch(spec, bin_truth))) + config.route_penalties[0]
        w1 = 2.0 * wasserstein_1d(mixture.means[:, 1], bin_truth[:, 1])
        bound = (spec.bound / 2.0) * w1
        excesses.append(abs(sim[PREDICT] - true_predict) - bound)
        excesses.append(abs(sim["route:0"] - true_route) - bound)
    return _excess_result("simulated_vs_true_cost_gap", np.asarray(excesses))


def run_lemma_checks(seed: int = 0, trials: int = 100_000) -> list[CheckResult]:
    """Run every check; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    for spec in _loss_specs():
        for classes in (2, 3):
            if classes > 2 and spec.kind in BINARY_ONLY:
                continue
            results.append(check_loss_lipschitz(spec, classes, trials, rng))
            results.append(check_entropy_lipschitz(spec, classes, trials, rng))
            results.append(check_properness(spec, classes, trials, rng))
            results.append(check_boundedness(spec, classes, trials, rng))
    results.append(check_tree_equivalence(trials, rng))
    results.append(check_simulated_cost_gap(seed=seed))
    return results
