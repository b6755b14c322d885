"""Ranking policies for two-way routing curves.

A policy assigns every test point a priority score; higher-scored points
are routed first. The pointwise-optimal and bucket-optimal policies read
the ground truth of the test set itself, so they are oracle baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrator import CalibratedRouterModel
from .core import InvalidInputError, SnapshotBatch
from .losses import LossSpec, entropy_batch, expected_loss_batch
from .partition import assign_rows

TOTAL_UNCERTAINTY = "total_uncertainty"
POINTWISE_OPTIMAL = "pointwise_optimal"
BUCKET_OPTIMAL = "bucket_optimal"
RANDOM = "random"


@dataclass(eq=False)
class RankedPolicy:
    """Per-row routing priorities, aligned with the rows of the batch the
    policy was built from. Ties in downstream orderings break by row id."""

    name: str
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float)
        if not np.all(np.isfinite(self.scores)):
            raise InvalidInputError("policy scores must be finite")


def check_split(test: SnapshotBatch, model: CalibratedRouterModel | None) -> None:
    """Refuse an empty test split, or one of another class count than ``model``."""
    if not test:
        raise InvalidInputError("test set is empty")
    if model is not None and test.num_classes != model.num_classes:
        raise InvalidInputError(f"test set has {test.num_classes} classes; the model has {model.num_classes}")


def _deployed(test: SnapshotBatch, model: CalibratedRouterModel | None, bins=None) -> np.ndarray:
    """The model's deployed predictions (``bins`` as ``deployed_matrix`` takes
    it), or the raw weak ones without a model."""
    check_split(test, model)
    return test.probs if model is None else model.deployed_matrix(test, bins)


def total_uncertainty_scores(
    test: SnapshotBatch, loss: LossSpec, model: CalibratedRouterModel | None = None
) -> RankedPolicy:
    """Rank by the deployed prediction's own entropy under the target loss."""
    return RankedPolicy(TOTAL_UNCERTAINTY, entropy_batch(loss, _deployed(test, model)))


def _reducible(test: SnapshotBatch, loss, model, bins=None) -> np.ndarray:
    deployed = _deployed(test, model, bins)
    return expected_loss_batch(loss, test.truth, deployed) - entropy_batch(loss, test.truth)


def pointwise_optimal_scores(
    test: SnapshotBatch, loss: LossSpec, model: CalibratedRouterModel | None = None
) -> RankedPolicy:
    """Rank by the true per-point reducible loss (oracle baseline)."""
    return RankedPolicy(POINTWISE_OPTIMAL, _reducible(test, loss, model))


def bucket_optimal_scores(test: SnapshotBatch, loss: LossSpec, model: CalibratedRouterModel) -> RankedPolicy:
    """Rank by the mean true reducible loss of each point's bin, measured on
    the test set itself: the best ordering that is constant per bin."""
    bins, index = assign_rows(model.partition, test.probs, test.features)
    reducible = _reducible(test, loss, model, (bins, index))
    bin_mean = np.bincount(index, weights=reducible) / np.bincount(index)
    return RankedPolicy(BUCKET_OPTIMAL, bin_mean[index])


def random_scores(test: SnapshotBatch, seed: int = 0) -> RankedPolicy:
    """Uniformly random priorities; its curve declines linearly in expectation."""
    rng = np.random.default_rng(seed)
    return RankedPolicy(RANDOM, rng.random(len(test)))


def external_scores(test: SnapshotBatch, table: dict[str, float], name: str = "external") -> RankedPolicy:
    """Adopt externally computed priorities keyed by example id."""
    missing = [eid for eid in test.ids if eid not in table]
    if missing:
        raise InvalidInputError(f"scores missing for {len(missing)} ids (first: {missing[0]})")
    return RankedPolicy(name, np.array([float(table[eid]) for eid in test.ids]))
