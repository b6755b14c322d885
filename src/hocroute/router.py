"""The decision layer: simulated per-bin action costs and the argmin rule.

Decisions are functions of a bin's stored mixture, the loss, and the
penalties only, so a fixed calibrated model serves any configuration
without recalibration. Oracles beyond the exact-conditional one are
supported whenever their expected loss is a known function of the true
conditional distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import ABSTAIN, PREDICT, InvalidInputError, RoutingConfig, RoutingDecision, route_action
from .calibrator import CalibratedRouterModel, estimate_decompositions
from .losses import LossSpec, entropy_batch, expected_loss_batch
from .partition import assign

BAYES = "bayes"
AGGREGATED = "aggregated"
MAJORITY = "majority"
MEAN = "mean"


@lru_cache(maxsize=None)
def _log_binomial_coefficients(k: int) -> np.ndarray:
    return np.array([math.lgamma(k + 1) - math.lgamma(c + 1) - math.lgamma(k - c + 1) for c in range(k + 1)])


# The Monte Carlo aggregated oracle: simulated pools per row and their seed.
MC_DRAWS = 1000
MC_SEED = 7


@lru_cache(maxsize=8)
def _sorted_annotator_uniforms(annotators: int) -> tuple[np.ndarray, np.ndarray]:
    """The one ``(MC_DRAWS, annotators)`` uniform draw every row's Monte Carlo
    estimate reuses, flattened and stably sorted, with the draw (row) each
    sorted uniform came from."""
    flat = np.random.default_rng(MC_SEED).random((MC_DRAWS, annotators)).ravel()
    order = np.argsort(flat, kind="stable")
    values, draw = flat[order], order // annotators
    values.flags.writeable = False
    draw.flags.writeable = False
    return values, draw


@dataclass(frozen=True, eq=False)
class OracleSpec:
    """An oracle whose expected loss at a point is a function of the true
    conditional distribution alone.

    ``bayes`` answers with the exact conditional, so its cost is the loss
    entropy. ``aggregated`` pools ``num_annotators`` independent label draws
    with a fixed rule; its cost is computed exactly for two classes (by
    summing over the binomial label counts) and by seeded Monte Carlo
    otherwise, over ``MC_DRAWS`` pools drawn from ``MC_SEED``.
    """

    kind: str = BAYES
    num_annotators: int = 1
    aggregation: str = MEAN

    def __post_init__(self) -> None:
        if self.kind not in (BAYES, AGGREGATED):
            raise InvalidInputError(f"unknown oracle kind {self.kind!r}")
        if self.aggregation not in (MEAN, MAJORITY):
            raise InvalidInputError(f"unknown aggregation {self.aggregation!r}")
        value = self.num_annotators
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise InvalidInputError(f"num_annotators must be an integer >= 1, got {value!r}")

    def point_costs(self, loss: LossSpec, truths: np.ndarray) -> np.ndarray:
        """Expected oracle loss at each row of ``truths``."""
        truths = np.asarray(truths, dtype=float)
        if self.kind == BAYES:
            return entropy_batch(loss, truths)
        if truths.shape[1] == 2:
            return self._binary_aggregated_costs(loss, truths)
        return self._mc_aggregated_costs(loss, truths)

    def mean_cost(self, loss: LossSpec, truths: np.ndarray) -> float:
        return float(np.mean(self.point_costs(loss, truths)))

    def _aggregated_prediction(self, count_positive: int) -> np.ndarray:
        k = self.num_annotators
        if self.aggregation == MEAN:
            return np.array([1.0 - count_positive / k, count_positive / k])
        if 2 * count_positive > k:  # even split goes to the lowest class index
            return np.array([0.0, 1.0])
        return np.array([1.0, 0.0])

    def _binary_aggregated_costs(self, loss: LossSpec, truths: np.ndarray) -> np.ndarray:
        k = self.num_annotators
        counts = np.arange(k + 1)
        with np.errstate(divide="ignore", invalid="ignore"):  # log(0) = -inf; 0 * -inf is taken as 0
            log_p = np.where(counts == 0, 0.0, np.multiply.outer(np.log(truths[:, 1]), counts))
            log_q = np.where(counts == k, 0.0, np.multiply.outer(np.log1p(-truths[:, 1]), k - counts))
        pmf = np.exp(_log_binomial_coefficients(k) + log_p + log_q)
        out = np.zeros(truths.shape[0])
        for c in range(k + 1):
            pred = np.tile(self._aggregated_prediction(c), (truths.shape[0], 1))
            out += pmf[:, c] * expected_loss_batch(loss, truths, pred)
        return out

    def _mc_aggregated_costs(self, loss: LossSpec, truths: np.ndarray) -> np.ndarray:
        """Common random numbers: every row turns the same uniforms into
        labels through its own inverse CDF, so a row's estimate does not
        depend on the other rows or its position among them.

        With the uniforms sorted, the labels come from one ``searchsorted``
        of the row's K CDF values: class ``c`` takes the sorted uniforms
        between the counts below consecutive CDF values. A majority vote is
        one-hot, so its loss is read from a (rows, K) table of the loss of
        each one-hot prediction, built for ``m // K`` rows at a time so it
        never outgrows one row's (m, K) predictions."""
        k, m = self.num_annotators, MC_DRAWS
        uniforms, draw = _sorted_annotator_uniforms(k)
        classes = truths.shape[1]
        offsets = classes * draw
        class_ids = np.arange(classes)
        one_hots = np.eye(classes)
        block = max(1, m // classes)
        # monotone even when an entry sits a rounding error below zero
        cdfs = np.maximum.accumulate(np.cumsum(truths, axis=1), axis=1)
        cdfs /= cdfs[:, -1:]
        out = np.zeros(truths.shape[0])
        for i, truth in enumerate(truths):
            bounds = np.searchsorted(uniforms, cdfs[i], side="left")
            labels = np.repeat(class_ids, np.diff(bounds, prepend=0))
            counts = np.bincount(offsets + labels, minlength=m * classes).reshape(m, classes)
            if self.aggregation == MEAN:
                losses = expected_loss_batch(loss, np.tile(truth, (m, 1)), counts / k)
            else:
                if i % block == 0:
                    rows = truths[i : i + block]
                    table = expected_loss_batch(
                        loss, np.repeat(rows, classes, axis=0), np.tile(one_hots, (rows.shape[0], 1))
                    ).reshape(rows.shape[0], classes)
                losses = table[i % block, np.argmax(counts, axis=1)]
            out[i] = float(np.mean(losses))
        return out


def default_oracles(config: RoutingConfig) -> list[OracleSpec]:
    return [OracleSpec(kind=BAYES) for _ in config.route_penalties]


def _check_oracles(config: RoutingConfig, oracles: Sequence[OracleSpec] | None) -> list[OracleSpec]:
    if oracles is None:
        return default_oracles(config)
    if len(oracles) != config.num_oracles:
        raise InvalidInputError(
            f"{len(oracles)} oracles for {config.num_oracles} routing penalties"
        )
    return list(oracles)


def bin_costs(
    model: CalibratedRouterModel, bins: Sequence[str], loss: LossSpec, oracles: Sequence[OracleSpec]
) -> np.ndarray:
    """Estimated cost of every action in each bin from its stored mixture, one
    row per bin in ``RoutingConfig.actions()`` order, before any penalty:
    predict, each oracle, and 0 for abstain. One pricing serves every penalty.
    The bins' decompositions come from one pass; each oracle is priced once
    per distinct segment."""
    irreducible, reducible = estimate_decompositions(model, bins, loss)
    segments = [model.segment(b) for b in bins]
    priced = {
        j: [oracle.mean_cost(loss, model.mixture(b).means) for oracle in oracles]
        for j, b in dict(zip(segments, bins)).items()
    }
    routed = np.array([priced[j] for j in segments]).reshape(len(bins), len(oracles))
    return np.column_stack([irreducible + reducible, routed, np.zeros(len(bins))])


def choose(costs: np.ndarray, config: RoutingConfig) -> np.ndarray:
    """The cheapest action of each row of penalty-free ``costs`` (columns in
    ``config.actions()`` order) once the penalties of ``config`` are added.
    ``argmin`` takes the first minimum, so a column's position is its tie
    priority: predict, then oracles by index, then abstain."""
    return np.argmin(costs + config.penalties, axis=-1)


def decide(
    model: CalibratedRouterModel,
    bin_id: str,
    config: RoutingConfig,
    oracles: Sequence[OracleSpec] | None = None,
) -> RoutingDecision:
    """Cost-minimizing action for a bin; constant across the bin's points."""
    costs = bin_costs(model, [bin_id], config.loss, _check_oracles(config, oracles))[0]
    actions, est_costs = config.actions(), (costs + config.penalties).tolist()
    return RoutingDecision(actions[choose(costs, config)], dict(zip(actions, est_costs)))


def simulated_costs(
    model: CalibratedRouterModel,
    bin_id: str,
    config: RoutingConfig,
    oracles: Sequence[OracleSpec] | None = None,
) -> dict[str, float]:
    """Estimated cost of every action from the bin's stored mixture."""
    return decide(model, bin_id, config, oracles).est_costs


class Router:
    """Caches one decision per bin for a fixed configuration, making
    per-query routing O(1) after the first point of each bin."""

    def __init__(
        self,
        model: CalibratedRouterModel,
        config: RoutingConfig,
        oracles: Sequence[OracleSpec] | None = None,
    ) -> None:
        self.model = model
        self.config = config
        self.oracles = _check_oracles(config, oracles)
        self._cache: dict[str, RoutingDecision] = {}

    def decide_bin(self, bin_id: str) -> RoutingDecision:
        found = self._cache.get(bin_id)
        if found is None:
            found = decide(self.model, bin_id, self.config, self.oracles)
            self._cache[bin_id] = found
        return found

    def decide(self, example) -> tuple[str, RoutingDecision]:
        bin_id = assign(self.model.partition, example)
        return bin_id, self.decide_bin(bin_id)


def tree_decide(
    irreducible: float, reducible: float, route_penalty: float, abstain_penalty: float
) -> str:
    """Threshold form of the optimal single-oracle decision.

    Route when the reducible loss clears the routing penalty, unless the
    irreducible loss alone makes abstaining cheaper; otherwise predict
    unless the total loss exceeds the abstention penalty.
    """
    for value in (irreducible, reducible, route_penalty):
        if not (math.isfinite(value) and value >= 0):
            raise InvalidInputError("irreducible, reducible and route penalty must be finite and >= 0")
    if math.isnan(abstain_penalty) or abstain_penalty < 0:
        raise InvalidInputError("abstention penalty must be >= 0 (inf allowed)")
    if reducible >= route_penalty:
        if irreducible >= abstain_penalty - route_penalty:
            return ABSTAIN
        return route_action(0)
    if irreducible + reducible >= abstain_penalty:
        return ABSTAIN
    return PREDICT
