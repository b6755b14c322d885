"""Snapshot-based post-hoc calibration.

Partitions a k-snapshot calibration set, stores per-bin tagged mixtures of
(prediction, snapshot-mean) pairs, and optionally re-centers the stored
predictions at the bin centroid. All loss evaluation is deferred to query
time, so one calibrated model serves every loss and penalty configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    InvalidInputError,
    LabelDistribution,
    SnapshotBatch,
    UnsupportedDiagnosticError,
    simplex_error,
    simplex_ok,
)
from .losses import LossSpec, entropy_batch, expected_loss_batch
from .partition import PartitionSpec, _bin_positions, assign_rows


@dataclass(eq=False)
class TaggedMixture:
    """A bin's empirical distribution of (prediction, snapshot-mean) pairs,
    stored as raw entry rows in input order."""

    preds: np.ndarray  # (count, classes)
    means: np.ndarray  # (count, classes)

    def __post_init__(self) -> None:
        self.preds = np.asarray(self.preds, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        if self.preds.shape != self.means.shape:
            raise InvalidInputError("prediction and mean rows must align")

    @property
    def count(self) -> int:
        return int(self.means.shape[0])


@dataclass(eq=False)
class CalibratedRouterModel:
    """The deployable statistic: a partition plus per-bin tagged mixtures.

    Bins never seen at query time (or fitted bins that received no
    calibration data) are served by the global mixture over the whole
    calibration set, keeping the router total.
    """

    partition: PartitionSpec
    mixtures: dict[str, TaggedMixture]
    global_mixture: TaggedMixture
    recalibrated: bool
    num_classes: int
    centroids: dict[str, LabelDistribution] = field(default_factory=dict)

    def mixture(self, bin_id: str) -> TaggedMixture:
        found = self.mixtures.get(bin_id)
        return found if found is not None and found.count > 0 else self.global_mixture

    @property
    def global_centroid(self) -> np.ndarray:
        return self.global_mixture.means.mean(axis=0)

    def deployed_row(self, bin_id: str, raw_pred: np.ndarray) -> np.ndarray:
        """The prediction served for a point: its bin centroid when
        recalibrated, the raw weak prediction otherwise."""
        if not self.recalibrated:
            return raw_pred
        centroid = self.centroids.get(bin_id)
        return self.global_centroid if centroid is None else centroid.probs

    def deployed_prediction(self, example) -> LabelDistribution:
        from .partition import assign

        row = self.deployed_row(assign(self.partition, example), example.weak_pred.probs)
        return LabelDistribution(row)

    def deployed_matrix(self, data: SnapshotBatch, bins: tuple[list[str], np.ndarray] | None = None) -> np.ndarray:
        """The prediction served for each row, one row each. ``bins`` is
        the rows' ``(bin ids, index)`` pair as ``partition.assign_rows``
        returns it, from a caller that has assigned them; without it they are
        assigned here. Each distinct bin's row is looked up once."""
        if not self.recalibrated:
            return data.probs
        bin_ids, index = assign_rows(self.partition, data.probs, data.features) if bins is None else bins
        # raw_pred only matters for a model that is not recalibrated
        return np.stack([self.deployed_row(b, None) for b in bin_ids])[index]


def calibrate(partition: PartitionSpec, calibration: SnapshotBatch, recalibrate: bool = False) -> CalibratedRouterModel:
    """Build per-bin tagged mixtures from a k-snapshot calibration set.

    With ``recalibrate`` the stored prediction of every entry is replaced by
    the centroid of the snapshot means in its bin, and the centroid map is
    kept so the same value is served as the deployed prediction at query
    time.
    """
    if not calibration:
        raise InvalidInputError("calibration set is empty")
    preds, means = calibration.probs, calibration.means
    mixtures: dict[str, TaggedMixture] = {}
    centroids: dict[str, LabelDistribution] = {}
    for b, rows in _bin_positions(*assign_rows(partition, preds, calibration.features)).items():
        bin_means = means[rows]
        if recalibrate:
            centroid = bin_means.mean(axis=0)
            centroids[b] = LabelDistribution(centroid)
            bin_preds = np.tile(centroid, (len(rows), 1))
        else:
            bin_preds = preds[rows]
        mixtures[b] = TaggedMixture(preds=bin_preds, means=bin_means)

    if recalibrate:
        global_preds = np.tile(means.mean(axis=0), (means.shape[0], 1))
    else:
        global_preds = preds
    global_mixture = TaggedMixture(preds=global_preds, means=means)

    return CalibratedRouterModel(
        partition=partition,
        mixtures=mixtures,
        global_mixture=global_mixture,
        recalibrated=recalibrate,
        num_classes=calibration.num_classes,
        centroids=centroids,
    )


def estimate_decomposition(
    model: CalibratedRouterModel, bin_id: str, loss: LossSpec
) -> tuple[float, float]:
    """(irreducible, reducible) loss estimates for one bin.

    Irreducible is the mean self-loss of the snapshot means; reducible is
    the mean total loss of the stored predictions minus that. The two always
    add up to the mean total loss exactly. A mixture row that is not a
    probability vector is refused, so no bin is priced on one.
    """
    mixture = model.mixture(bin_id)
    for name, rows in (("preds", mixture.preds), ("means", mixture.means)):
        bad = np.flatnonzero(~simplex_ok(rows))
        if bad.size:
            raise InvalidInputError(f"bin {bin_id!r}: {name} row {bad[0]}: {simplex_error(rows[bad[0]])}")
    irreducible = float(np.mean(entropy_batch(loss, mixture.means)))
    total = float(np.mean(expected_loss_batch(loss, mixture.means, mixture.preds)))
    return irreducible, total - irreducible


# ---------------------------------------------------------------------------
# Higher-order calibration diagnostic (binary classification)
# ---------------------------------------------------------------------------


def wasserstein_1d(a: np.ndarray, b: np.ndarray) -> float:
    """1-Wasserstein distance between two one-dimensional empirical samples,
    computed as the area between the sorted empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise InvalidInputError("need nonempty samples")
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / a.size
    cdf_b = np.searchsorted(b, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def _wasserstein_by_bin(model: CalibratedRouterModel, reference: SnapshotBatch):
    """``wasserstein_error`` and the reference rows of each bin it covers."""
    if model.num_classes != 2:
        raise UnsupportedDiagnosticError("Wasserstein diagnostic requires 2 classes")
    if not reference:
        raise InvalidInputError("reference set is empty")
    positions = _bin_positions(*assign_rows(model.partition, reference.probs, reference.features))
    per_bin = {
        b: 2.0 * wasserstein_1d(model.mixture(b).means[:, 1], reference.means[r, 1]) for b, r in positions.items()
    }
    return per_bin, positions


def wasserstein_error(model: CalibratedRouterModel, reference: SnapshotBatch) -> dict[str, float]:
    """Per-bin distance between the calibrated mixture's snapshot-mean
    distribution and a held-out reference sample.

    Binary classification only: the distance is computed on the positive
    class coordinate and doubled, which equals the 1-Wasserstein distance
    under the l1 norm on the two-class simplex. This is a proxy for the
    higher-order calibration error against the unobservable exact mixture.
    """
    return _wasserstein_by_bin(model, reference)[0]


def aggregate_wasserstein(model: CalibratedRouterModel, reference: SnapshotBatch) -> float:
    """Reference-mass-weighted mean of the per-bin Wasserstein proxy."""
    per_bin, positions = _wasserstein_by_bin(model, reference)
    return float(sum(per_bin[b] * len(positions[b]) for b in per_bin) / len(reference))
