"""Experiment harness: routing curves, penalty sweeps, multi-loss reports.

Curves are cost-agnostic: they plot mean loss against the fraction of
points routed under a priority ordering, with no penalties added. Sweeps
are cost-aware: they charge the routing and abstention penalties and
compare the three-way policy against its two-way restrictions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import baselines
from .baselines import RankedPolicy, _deployed, check_split
from .calibrator import CalibratedRouterModel, estimate_decompositions
from .core import InvalidInputError, RoutingConfig, SnapshotBatch, UnsupportedLossError
from .losses import LossSpec, entropy_batch, expected_loss_batch
from .partition import _bin_positions, assign_rows
from .router import OracleSpec, _check_oracles, bin_costs, choose

HOC_ROUTER = "hoc_router"
# The router and its three baselines: the curves drawn when none are named.
CURVE_POLICIES = (HOC_ROUTER, baselines.TOTAL_UNCERTAINTY, baselines.BUCKET_OPTIMAL, baselines.POINTWISE_OPTIMAL)
GRID_POINTS = 101  # routed fractions 0, 1/100, ..., 1

THREE_WAY = "three_way"
PREDICT_ROUTE = "predict_route"
PREDICT_ABSTAIN = "predict_abstain"


@dataclass(eq=False)
class RoutingCurve:
    policy: str
    loss: str
    fractions: np.ndarray
    mean_losses: np.ndarray


@dataclass(eq=False)
class CostSweep:
    alpha: float
    betas: np.ndarray
    # policy -> mean realized cost at each beta, in the order of ``betas``
    mean_costs: dict[str, np.ndarray]
    # max over bins and betas of est(three-way choice) - min est(two-way
    # choices); argmin over a superset keeps this <= 0 up to float noise
    max_estimated_gap: float


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def per_point_losses(
    test: SnapshotBatch, loss: LossSpec, model: CalibratedRouterModel | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(weak loss, oracle loss) per test point against the ground-truth
    source: the exact conditional when attached, the snapshot mean otherwise."""
    deployed = _deployed(test, model)
    return expected_loss_batch(loss, test.truth, deployed), entropy_batch(loss, test.truth)


def _mean_losses(scores, ids, weak_losses, oracle_losses, counts) -> np.ndarray:
    """Mean loss when the top ``m`` points by score (ties by id) are routed,
    for each ``m`` in ``counts``."""
    n = len(ids)
    order = np.lexsort((ids, -scores))  # descending score, ties by id
    prefix = np.concatenate([[0.0], np.cumsum(oracle_losses[order] - weak_losses[order])])
    total_weak = float(weak_losses.sum())
    return np.array([(total_weak + prefix[m]) / n for m in counts])


def curve_values_at(
    scores: np.ndarray,
    ids: np.ndarray,
    weak_losses: np.ndarray,
    oracle_losses: np.ndarray,
    fractions: Sequence[float],
) -> np.ndarray:
    """Mean loss when the top scoring fraction of points is routed, for fractions
    in [0, 1]; ``scores``, ``ids`` and both losses are nonempty columns, row for row."""
    if not all(0.0 <= q <= 1.0 for q in fractions):
        raise InvalidInputError(f"routed fractions must lie in [0, 1], got {list(fractions)}")
    n = len(ids)
    if not 0 < n == len(scores) == len(weak_losses) == len(oracle_losses):
        lengths = [len(column) for column in (scores, ids, weak_losses, oracle_losses)]
        raise InvalidInputError(f"scores, ids and losses must be nonempty and of one length, got lengths {lengths}")
    return _mean_losses(scores, ids, weak_losses, oracle_losses, [int(round(q * n)) for q in fractions])


def _grid_curve(policy, ids, weak_losses, oracle_losses, loss_name) -> RoutingCurve:
    n, steps = len(ids), GRID_POINTS - 1
    means = _mean_losses(policy.scores, ids, weak_losses, oracle_losses, [(i * n) // steps for i in range(GRID_POINTS)])
    return RoutingCurve(policy.name, loss_name, np.arange(GRID_POINTS) / steps, means)


def routing_curve(
    policy: RankedPolicy, test: SnapshotBatch, loss: LossSpec, model: CalibratedRouterModel | None = None
) -> RoutingCurve:
    """Evaluate a priority ordering on an evenly spaced routed-fraction grid.

    The fraction-0 value is the mean weak-model loss and the fraction-1
    value the mean oracle loss, both over the same ground-truth source.
    """
    if len(policy.scores) != len(test):
        raise InvalidInputError("policy scores do not cover the test set")
    weak_losses, oracle_losses = per_point_losses(test, loss, model)
    return _grid_curve(policy, np.array(test.ids), weak_losses, oracle_losses, loss.name)


def routing_curves(
    model: CalibratedRouterModel,
    test: SnapshotBatch,
    loss: LossSpec,
    policies: Sequence[str] = CURVE_POLICIES,
    external: dict[str, dict[str, float]] | None = None,
    seed: int = 0,
) -> list[RoutingCurve]:
    """The ``routing_curve`` of each named policy, then of each ``external``
    table (id -> score), with the losses priced once for all of them.
    ``seed`` seeds the ``random`` policy. An unknown name, a name given
    twice and a request for no curves are refused."""
    baseline_args = (test, loss, model)
    scorers = {
        HOC_ROUTER: lambda: router_scores(model, test, loss),
        baselines.TOTAL_UNCERTAINTY: lambda: baselines.total_uncertainty_scores(*baseline_args),
        baselines.BUCKET_OPTIMAL: lambda: baselines.bucket_optimal_scores(*baseline_args),
        baselines.POINTWISE_OPTIMAL: lambda: baselines.pointwise_optimal_scores(*baseline_args),
        baselines.RANDOM: lambda: baselines.random_scores(test, seed),
    }
    external = external or {}
    names = [*policies, *external]
    for i, name in enumerate(names):
        if i < len(policies) and name not in scorers:
            raise InvalidInputError(f"unknown policy {name!r}")
        if name in names[:i]:
            raise InvalidInputError(f"curve name {name!r} given twice")
    if not names:
        raise InvalidInputError("no curves requested")
    weak_losses, oracle_losses = per_point_losses(test, loss, model)
    ids = np.array(test.ids)
    draw = lambda policy: _grid_curve(policy, ids, weak_losses, oracle_losses, loss.name)
    curves = [draw(scorers[name]()) for name in policies]
    return curves + [draw(baselines.external_scores(test, table, name)) for name, table in external.items()]


def router_scores(model: CalibratedRouterModel, test: SnapshotBatch, loss: LossSpec) -> RankedPolicy:
    """The calibrated router's ranking: each point scored by the estimated
    reducible loss of its bin."""
    check_split(test, model)
    bins, index = assign_rows(model.partition, test.probs, test.features)
    return RankedPolicy(HOC_ROUTER, estimate_decompositions(model, bins, loss)[1][index])


# ---------------------------------------------------------------------------
# Cost-aware decision evaluation
# ---------------------------------------------------------------------------


def _point_costs(model, test: SnapshotBatch, loss, oracles) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The distinct bins of the test points, each point's index into them,
    and each point's true cost of every action before penalties: one column
    for predict, one per oracle, and a zero column for abstain."""
    bins, index = assign_rows(model.partition, test.probs, test.features)
    deployed = _deployed(test, model, (bins, index))
    columns = [expected_loss_batch(loss, test.truth, deployed), *(o.point_costs(loss, test.truth) for o in oracles)]
    return bins, index, np.column_stack([*columns, np.zeros(len(test))])


def _realized(points: np.ndarray, index: np.ndarray, choice: np.ndarray, config: RoutingConfig) -> np.ndarray:
    """Per-point realized cost of a per-bin action choice, charged at the true
    penalties of ``config``."""
    action = choice[index]
    return points[np.arange(len(index)), action] + config.penalties[action]


def policy_point_costs(
    model: CalibratedRouterModel,
    test: SnapshotBatch,
    config: RoutingConfig,
    oracles: Sequence[OracleSpec] | None = None,
    decide_config: RoutingConfig | None = None,
) -> np.ndarray:
    """Realized per-point cost of the calibrated per-bin policy.

    Decisions are made under ``decide_config`` (defaults to ``config``);
    realized costs always charge the true penalties of ``config``. Passing a
    restricted ``decide_config`` (some penalties infinite) evaluates the
    two-way policies.
    """
    cfg = decide_config or config
    oracles = _check_oracles(cfg, _check_oracles(config, oracles))  # decisions price the charged oracles
    bins, index, points = _point_costs(model, test, config.loss, oracles)
    return _realized(points, index, choose(bin_costs(model, bins, cfg.loss, oracles), cfg), config)


def bucket_optimal_point_costs(
    model: CalibratedRouterModel,
    test: SnapshotBatch,
    config: RoutingConfig,
    oracles: Sequence[OracleSpec] | None = None,
) -> np.ndarray:
    """Realized per-point cost of the best constant action per bin, measured
    on the test set itself (oracle baseline)."""
    oracles = _check_oracles(config, oracles)
    bins, index, points = _point_costs(model, test, config.loss, oracles)
    positions, columns = _bin_positions(bins, index), np.ascontiguousarray(points.T)
    # 1-D means over each bin's rows in ascending order, as a per-bin loop sums them
    measured = np.array([[column[positions[b]].mean() for column in columns] for b in bins])
    return _realized(points, index, choose(measured, config), config)


def cost_sweep(
    model: CalibratedRouterModel,
    test: SnapshotBatch,
    loss: LossSpec,
    alpha: float,
    betas: Sequence[float],
    oracles: Sequence[OracleSpec] | None = None,
) -> CostSweep:
    """Sweep the abstention penalty at a fixed routing penalty, comparing the
    three-way policy against predict/route and predict/abstain."""
    betas = np.asarray(list(betas), dtype=float)
    if betas.size == 0:
        raise InvalidInputError("empty beta grid")
    probe = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=float(betas[0]))
    oracles = _check_oracles(probe, oracles)
    bins, index, points = _point_costs(model, test, loss, oracles)
    priced = bin_costs(model, bins, loss, oracles)  # once: no penalty in it
    pr_cfg = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=math.inf)
    mean_costs = {policy: np.empty(betas.size) for policy in (THREE_WAY, PREDICT_ROUTE, PREDICT_ABSTAIN)}
    max_gap = -math.inf
    for j, beta in enumerate(betas):
        true_cfg = RoutingConfig(loss=loss, route_penalties=(alpha,), abstain_penalty=float(beta))
        pa_cfg = RoutingConfig(loss=loss, route_penalties=(math.inf,), abstain_penalty=float(beta))
        configs = {THREE_WAY: true_cfg, PREDICT_ROUTE: pr_cfg, PREDICT_ABSTAIN: pa_cfg}
        chosen = {policy: choose(priced, cfg) for policy, cfg in configs.items()}
        est = {policy: (priced + true_cfg.penalties)[np.arange(len(bins)), c] for policy, c in chosen.items()}
        gap = est[THREE_WAY] - np.minimum(est[PREDICT_ROUTE], est[PREDICT_ABSTAIN])
        max_gap = max(max_gap, float(np.fmax.reduce(gap)))  # fmax skips inf - inf, a bin where all cost inf
        for policy, choice in chosen.items():
            mean_costs[policy][j] = _realized(points, index, choice, true_cfg).mean()
    return CostSweep(alpha=alpha, betas=betas, mean_costs=mean_costs, max_estimated_gap=float(max_gap))


# ---------------------------------------------------------------------------
# Multi-loss reports
# ---------------------------------------------------------------------------


def multi_loss_report(
    model: CalibratedRouterModel,
    test: SnapshotBatch,
    losses: Sequence[LossSpec],
    external: dict[str, dict[str, float]] | None = None,
    random_seed: int | None = None,
) -> dict[str, list[RoutingCurve]]:
    """Routing curves for every requested loss from one calibrated model.

    Calibration happens zero times here: every loss is served by the same
    stored mixtures. Losses that do not support the data's class count are
    skipped with a warning.
    """
    report: dict[str, list[RoutingCurve]] = {}
    policies = CURVE_POLICIES if random_seed is None else (*CURVE_POLICIES, baselines.RANDOM)
    for loss in losses:
        try:
            report[loss.name] = routing_curves(model, test, loss, policies, external, random_seed or 0)
        except UnsupportedLossError as err:
            warnings.warn(f"skipping {loss.name}: {err}", stacklevel=2)
    return report
