"""Snapshot-based post-hoc calibration.

Partitions a k-snapshot calibration set and stores each bin's tagged
mixture of (prediction, snapshot-mean) pairs as one segment of a single row
table, optionally re-centering the stored predictions at the bin centroid.
All loss evaluation is deferred to query time, so one calibrated model serves
every loss and penalty configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple, Sequence

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
from .partition import PartitionSpec, _bin_positions, assign, assign_rows


class TaggedMixture(NamedTuple):
    """A bin's (prediction, snapshot-mean) pairs in calibration order: read-only
    views of one segment of its model's rows."""

    preds: np.ndarray  # (count, classes)
    means: np.ndarray  # (count, classes)


@dataclass(eq=False)
class CalibratedRouterModel:
    """The deployable statistic: a partition plus one (preds, means) row table.

    Bin ``bins[j]`` owns rows ``offsets[j]:offsets[j + 1]``, in calibration
    order. The last segment is the global mixture over the whole calibration
    set, in its own order; it serves bins never seen at query time (or fitted
    bins that received no calibration data), keeping the router total. Rows
    are checked here, once; ``mixtures`` and ``global_mixture`` view them. A
    recalibrated segment stores one prediction, its centroid, in every row:
    the prediction it serves, which ``centroids`` views for each bin.
    """

    partition: PartitionSpec
    bins: tuple[str, ...]
    offsets: np.ndarray  # len(bins) + 2 row offsets, from 0 to the row count
    preds: np.ndarray  # (rows, classes)
    means: np.ndarray  # (rows, classes)
    recalibrated: bool

    def __post_init__(self) -> None:
        offsets = self.offsets = np.asarray(self.offsets, dtype=np.intp)
        self.preds, self.means = (np.ascontiguousarray(rows, dtype=float).view() for rows in (self.preds, self.means))
        aligned = self.preds.shape == self.means.shape and len(offsets) == len(self.bins) + 2
        if not aligned or offsets[0] != 0 or offsets[-1] != len(self.means) or (offsets[1:] <= offsets[:-1]).any():
            raise InvalidInputError("preds and means must align in one nonempty segment per bin, then the global one")
        owner = lambda j: f"bin {self.bins[j]!r}" if j < len(self.bins) else "global mixture"
        for name, rows in (("preds", self.preds), ("means", self.means)):
            rows.flags.writeable = False
            ok = simplex_ok(rows)
            if not ok.all():
                row = int(np.argmin(ok))
                j = int(np.searchsorted(offsets, row, side="right")) - 1
                raise InvalidInputError(f"{owner(j)}: {name} row {row - offsets[j]}: {simplex_error(rows[row])}")
        if self.recalibrated:
            # a row that differs from the one before it, other than a segment's first
            changed = (self.preds[1:] != self.preds[:-1]).any(axis=1)
            changed[offsets[1:-1] - 1] = False
            if changed.any():
                j = int(np.searchsorted(offsets, np.argmax(changed) + 1, side="right")) - 1
                raise InvalidInputError(f"{owner(j)}: a recalibrated segment must store one prediction in every row")
        views = [TaggedMixture(self.preds[a:b], self.means[a:b]) for a, b in zip(offsets[:-1], offsets[1:])]
        self.mixtures, self.global_mixture = MappingProxyType(dict(zip(self.bins, views))), views[-1]
        firsts = zip(self.bins, offsets) if self.recalibrated else ()  # each bin's first row
        self.centroids = MappingProxyType({b: LabelDistribution._view(self.preds[a]) for b, a in firsts})
        self._segments = {b: j for j, b in enumerate(self.bins)}

    @property
    def num_classes(self) -> int:
        return int(self.preds.shape[1])

    def segment(self, bin_id: str) -> int:
        """The segment that prices ``bin_id``: its own, else the global one (the last)."""
        return self._segments.get(bin_id, len(self.bins))

    def mixture(self, bin_id: str) -> TaggedMixture:
        return self.mixtures.get(bin_id, self.global_mixture)

    def deployed_prediction(self, example) -> LabelDistribution:
        """The prediction served for a point: its segment's stored prediction
        when recalibrated, the raw weak prediction otherwise."""
        if not self.recalibrated:
            return example.weak_pred
        return LabelDistribution._view(self.preds[self.offsets[self.segment(assign(self.partition, example))]])

    def deployed_matrix(self, data: SnapshotBatch, bins: tuple[list[str], np.ndarray] | None = None) -> np.ndarray:
        """The prediction served for each row, one row each. ``bins`` is
        the rows' ``(bin ids, index)`` pair as ``partition.assign_rows``
        returns it, from a caller that has assigned them; without it they are
        assigned here. Each distinct bin's row is looked up once."""
        if not self.recalibrated:
            return data.probs
        bin_ids, index = assign_rows(self.partition, data.probs, data.features) if bins is None else bins
        return self.preds[self.offsets[[self.segment(b) for b in bin_ids]]][index]


def calibrate(partition: PartitionSpec, calibration: SnapshotBatch, recalibrate: bool = False) -> CalibratedRouterModel:
    """Build per-bin tagged mixtures from a k-snapshot calibration set: one
    stable grouping of its rows by bin, then the whole set as the global
    segment.

    With ``recalibrate`` the stored prediction of every entry is replaced by
    the centroid of the snapshot means in its segment, which is then also the
    prediction served at query time.
    """
    if not calibration:
        raise InvalidInputError("calibration set is empty")
    positions = _bin_positions(*assign_rows(partition, calibration.probs, calibration.features))
    rows = np.concatenate([*positions.values(), np.arange(len(calibration))])
    offsets = np.cumsum([0, *map(len, positions.values()), len(calibration)])
    means = calibration.means[rows]
    # every segment's centroid, the global one last
    centroids = [means[a:b].mean(axis=0) for a, b in zip(offsets[:-1], offsets[1:])] if recalibrate else []
    return CalibratedRouterModel(
        partition=partition,
        bins=tuple(positions),
        offsets=offsets,
        preds=np.repeat(centroids, np.diff(offsets), axis=0) if recalibrate else calibration.probs[rows],
        means=means,
        recalibrated=recalibrate,
    )


def estimate_decompositions(
    model: CalibratedRouterModel, bins: Sequence[str], loss: LossSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(irreducible, reducible) loss estimates of each of ``bins``, in one pass.

    Irreducible is the mean self-loss of a bin's snapshot means; reducible is
    the mean total loss of its stored predictions minus that, so the two add
    up to the mean total loss exactly. The loss kernels run once over the
    distinct segments, gathered, and each mean is taken over its segment's own
    slice, so a bin's figures do not depend on the bins priced with it.
    """
    segments, inverse = np.unique(np.array([model.segment(b) for b in bins], dtype=np.intp), return_inverse=True)
    sizes = np.diff(model.offsets)[segments]
    ends = np.cumsum(sizes)  # where each segment ends among the gathered rows
    rows = np.arange(sizes.sum()) + np.repeat(model.offsets[segments] - (ends - sizes), sizes)
    means = model.means[rows]
    losses = entropy_batch(loss, means), expected_loss_batch(loss, means, model.preds[rows])
    irreducible, total = (np.array([np.mean(x[end - n : end]) for end, n in zip(ends, sizes)]) for x in losses)
    return irreducible[inverse], (total - irreducible)[inverse]


def estimate_decomposition(model: CalibratedRouterModel, bin_id: str, loss: LossSpec) -> tuple[float, float]:
    """``estimate_decompositions`` of one bin."""
    irreducible, reducible = estimate_decompositions(model, [bin_id], loss)
    return float(irreducible[0]), float(reducible[0])


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
