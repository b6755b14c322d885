"""Shared vocabulary: label distributions, snapshot records, routing configurations.

Everything downstream (losses, partitions, calibration, routing, evaluation)
speaks in terms of these types. They are immutable value objects once
constructed and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # LossSpec lives downstream; annotation only
    from .losses import LossSpec

# Post-construction simplex tolerance; vectors are silently renormalized.
SIMPLEX_ATOL = 1e-9
# The constructor and every file reader reject vectors whose total mass is off
# by more than this: the one mass tolerance of the library.
MASS_GUARD = 1e-6


class InvalidInputError(ValueError):
    """User-supplied data violates a documented precondition."""


class UnsupportedLossError(ValueError):
    """A loss kind cannot be evaluated for the given class count."""


class UnsupportedDiagnosticError(ValueError):
    """A diagnostic was requested outside its supported setting."""


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

PREDICT = "predict"
ABSTAIN = "abstain"


def route_action(oracle_index: int = 0) -> str:
    """Canonical label for routing to the oracle with the given index."""
    return f"route:{oracle_index}"


def action_priority(action: str) -> tuple[int, int]:
    """Tie-break order: predict first, then oracles by index, abstain last."""
    if action == PREDICT:
        return (0, 0)
    if action.startswith("route:"):
        return (1, int(action.split(":", 1)[1]))
    if action == ABSTAIN:
        return (2, 0)
    raise InvalidInputError(f"unknown action {action!r}")


# ---------------------------------------------------------------------------
# Probability vectors and snapshot records
# ---------------------------------------------------------------------------


def json_numbers(values) -> bool:
    """Whether every item of ``values`` is a JSON number: an ``int`` or a
    ``float``, so neither a bool nor a string that spells a number."""
    return {int, float}.issuperset(map(type, values))


def simplex_ok(p: np.ndarray) -> np.bool_ | np.ndarray:
    """The simplex rule over the last axis: every entry within
    ``[-SIMPLEX_ATOL, 1 + MASS_GUARD]`` (so finite) and the mass within
    ``MASS_GUARD`` of one. A bool for one vector, a bool per row for a matrix."""
    # Entry-wise comparisons and ufunc reductions: a row minimum and maximum
    # over a short last axis cost several times more on a tall matrix. A product
    # with ones sums each row to within rounding, far inside half the guard.
    in_range = (p >= -SIMPLEX_ATOL) & (p <= 1.0 + MASS_GUARD)
    if p.ndim == 2 and in_range.all() and (abs(p @ np.ones(p.shape[1]) - 1.0) < MASS_GUARD / 2).all():
        return np.ones(len(p), dtype=bool)
    return np.logical_and.reduce(in_range, axis=-1) & (abs(np.add.reduce(p, axis=-1) - 1.0) <= MASS_GUARD)


def simplex_error(p: np.ndarray) -> InvalidInputError:
    """Why the vector ``p`` fails ``simplex_ok``."""
    if not np.isfinite(p).all():
        return InvalidInputError("probabilities must be finite")
    if p.min() < -SIMPLEX_ATOL or p.max() > 1.0 + MASS_GUARD:
        return InvalidInputError(f"entries outside [0, 1]: {p.tolist()}")
    return InvalidInputError(f"probabilities sum to {float(p.sum())!r}, beyond tolerance {MASS_GUARD}")


def normalize_simplex(p: np.ndarray) -> np.ndarray:
    """Clip vectors that pass ``simplex_ok`` to ``>= 0`` and rescale them to
    mass one, in place, over the last axis. Ulp-level drift is left alone so
    normalization is idempotent."""
    p.clip(0.0, None, out=p)
    total = p.sum(axis=-1)
    drift = abs(total - 1.0) > 1e-12
    if drift.any():
        np.divide(p, total[..., None], out=p, where=drift[..., None])
    return p


@dataclass(frozen=True, eq=False)
class LabelDistribution:
    """A point of the probability simplex over class labels.

    The universal currency for predictions, snapshot means, and ground
    truth. Entries are validated to lie in [0, 1] and renormalized so they
    sum to one; vectors whose mass deviates by more than ``MASS_GUARD`` are
    rejected rather than repaired.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float).copy()
        if p.ndim != 1 or p.shape[0] < 2:
            raise InvalidInputError("need a 1-D probability vector over >= 2 classes")
        if not simplex_ok(p):
            raise simplex_error(p)
        normalize_simplex(p)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def _view(cls, probs: np.ndarray) -> LabelDistribution:
        """A read-only row of a batch column, checked and normalized already: no copy, no check."""
        view = object.__new__(cls)
        object.__setattr__(view, "probs", probs)
        return view

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[0])

    def __repr__(self) -> str:
        return f"LabelDistribution({self.probs.tolist()})"


def _count_labels(labels: Sequence[int] | np.ndarray, num_classes: int) -> np.ndarray:
    """Per-class counts of a nonempty flat list of class indices."""
    arr = np.asarray(labels)
    if arr.size == 0:
        raise InvalidInputError("snapshot needs at least one label")
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError("labels must be a flat list of class indices")
    if int(arr.min()) < 0 or int(arr.max()) >= num_classes:
        raise InvalidInputError("label index out of range")
    return np.bincount(arr.astype(np.intp), minlength=num_classes)


def snapshot_mean(labels: Sequence[int] | np.ndarray, num_classes: int) -> LabelDistribution:
    """Average of one-hot labels: the empirical conditional distribution.

    Permutation invariant in the label list; a single repeated label yields
    the corresponding one-hot vector.
    """
    counts = _count_labels(labels, num_classes)
    return LabelDistribution(counts / counts.sum())


@dataclass(eq=False, init=False)
class SnapshotExample:
    """One calibration or evaluation record: row 0 of a one-row ``SnapshotBatch``.

    Carries the weak model's prediction and ``k`` independently sampled
    labels, given as class indices (``labels``) or as per-class counts
    (``label_counts``) and kept as counts: ``snapshot_mean`` is derived from
    them, and ``labels`` spells them out, grouped by class, only when read.
    ``p_star`` is the exact conditional distribution and only present for
    synthetic data where it is known. The batch's rules check the record;
    ``batch[i]`` is a record too, a read-only view of a checked row.
    """

    id: str
    weak_pred: LabelDistribution
    label_counts: np.ndarray
    features: np.ndarray | None
    p_star: LabelDistribution | None
    snapshot_mean: LabelDistribution

    def __init__(self, id, weak_pred, labels=None, features=None, p_star=None, *, label_counts=None) -> None:
        try:
            if (labels is None) == (label_counts is None):
                raise InvalidInputError("give either labels or label_counts")
            counts = label_counts if labels is None else _count_labels(labels, weak_pred.num_classes)
            features = None if features is None else np.reshape(features, (1, -1))
            p_star = None if p_star is None else [p_star.probs]
            batch = SnapshotBatch([id], [weak_pred.probs], [counts], features, p_star)
        except InvalidInputError as err:
            raise InvalidInputError(f"example {id}: {err}") from None
        vars(self).update(vars(batch[0]))

    @property
    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_classes, dtype=np.int32), self.label_counts)

    @property
    def num_classes(self) -> int:
        return self.weak_pred.num_classes

    @property
    def k(self) -> int:
        return int(self.label_counts.sum())


def ground_truth(example: SnapshotExample) -> LabelDistribution:
    """Exact conditional when available, snapshot mean otherwise."""
    return example.p_star if example.p_star is not None else example.snapshot_mean


def nan_padded(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Consecutive runs of ``flat``, ``lengths[i]`` values for row ``i``, as
    the rows of one matrix, NaN past each run; None when every run is empty."""
    if not lengths.any():
        return None
    out = np.full((lengths.size, lengths.max()), np.nan)
    out[np.arange(out.shape[1]) < lengths[:, None]] = flat
    return out


@dataclass(frozen=True, eq=False)
class SnapshotBatch:
    """Snapshot records as columns, row for row: what every batch path reads.

    ``counts`` holds each row's labels as per-class counts. ``features`` is
    NaN past a row's own features and ``p_star`` (the exact conditional) a NaN
    row where a record has none; each is None when no row has one. ``means``
    (``counts / k``) and ``truth`` (``p_star`` where present, the mean
    otherwise) are derived at construction with ``LabelDistribution``'s
    arithmetic, so a row's values do not depend on the batch it is in.
    Construction holds the record rules: a row's label counts are integers >= 0
    whose total is >= 1 and fits in int64, and its features are finite, then
    NaN (missing) to the end. ``batch[i]`` is row ``i`` as a ``SnapshotExample``
    of read-only arrays, checked nowhere again; a slice is a batch.
    """

    ids: list[str]
    probs: np.ndarray  # (n, K) weak predictions
    counts: np.ndarray  # (n, K) integer label counts
    features: np.ndarray | None = None  # (n, F)
    p_star: np.ndarray | None = None  # (n, K)
    means: np.ndarray = field(init=False)
    truth: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.ids)
        probs, counts = np.array(self.probs, dtype=float, ndmin=2), np.array(self.counts, ndmin=2)
        p_star = np.full(probs.shape, np.nan) if self.p_star is None else np.array(self.p_star, dtype=float, ndmin=2)
        features = np.empty((n, 0)) if self.features is None else np.array(self.features, dtype=float)
        present = ~np.isnan(p_star).all(axis=-1)
        # Counts become int64 only when each fits; then a partial row sum past int64 wraps below 0.
        exact = np.issubdtype(counts.dtype, np.integer) and (counts >= 0).all() and (counts <= 2**63 - 1).all()
        counts = counts.astype(np.int64, copy=False) if exact else counts
        totals = counts.cumsum(axis=-1) if exact else None
        if not (
            probs.shape[0] == n
            and probs.shape[1] >= 2
            and probs.shape == counts.shape == p_star.shape
            and features.shape[:1] == (n,)
            and features.ndim == 2
            and exact
            and (totals >= 0).all()
            and totals[:, -1].all()
            and not np.isinf(features).any()
            and not (np.isnan(features[:, :-1]) & ~np.isnan(features[:, 1:])).any()  # NaN only pads a row's end
            and simplex_ok(probs).all()
            and simplex_ok(p_star[present]).all()
        ):
            raise InvalidInputError(
                "need, for each id, probabilities and label counts (integers >= 0, total >= 1 within int64) over the"
                " same >= 2 classes, a p_star row of probabilities or of NaN, and a row of finite features, then NaN"
            )
        means = normalize_simplex(counts / totals[:, -1:])
        p_star[present] = normalize_simplex(p_star[present])
        columns = {
            "ids": list(self.ids),
            "probs": normalize_simplex(probs),
            "counts": counts,
            "features": None if self.features is None else features,
            "p_star": p_star if present.any() else None,
            "means": means,
            "truth": np.where(present[:, None], p_star, means),
        }
        for name, column in columns.items():
            if isinstance(column, np.ndarray):
                column.flags.writeable = False
            object.__setattr__(self, name, column)

    @classmethod
    def from_examples(cls, examples: Sequence[SnapshotExample]) -> SnapshotBatch:
        """The columns of a sequence of records: the one place records become a batch."""
        examples = list(examples)
        if not examples or len({e.num_classes for e in examples}) != 1:
            raise InvalidInputError("need examples, all over the same number of classes")
        num_classes = examples[0].num_classes
        features = [np.zeros(0) if e.features is None else e.features for e in examples]
        return cls(
            ids=[e.id for e in examples],
            probs=np.stack([e.weak_pred.probs for e in examples]),
            counts=np.stack([e.label_counts for e in examples]),
            features=nan_padded(np.concatenate(features), np.array([f.size for f in features])),
            p_star=np.stack([np.full(num_classes, np.nan) if e.p_star is None else e.p_star.probs for e in examples]),
        )

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[1])

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, index) -> SnapshotExample | SnapshotBatch:
        if isinstance(index, slice):
            columns = {name: getattr(self, name) for name in ("probs", "counts", "features", "p_star")}
            return SnapshotBatch(self.ids[index], **{k: None if c is None else c[index] for k, c in columns.items()})
        i = range(len(self))[index]
        features = np.empty(0) if self.features is None else self.features[i][~np.isnan(self.features[i])]
        features.flags.writeable = False
        view = LabelDistribution._view
        row = object.__new__(SnapshotExample)
        row.id, row.weak_pred, row.label_counts = self.ids[i], view(self.probs[i]), self.counts[i]
        row.features, row.snapshot_mean = features if features.size else None, view(self.means[i])
        row.p_star = view(self.p_star[i]) if self.p_star is not None and not np.isnan(self.p_star[i, 0]) else None
        return row


# ---------------------------------------------------------------------------
# Routing configuration and decisions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RoutingConfig:
    """A task configuration: loss, per-oracle routing penalties, abstention penalty.

    ``abstain_penalty=inf`` disables abstention, so the same decision code
    serves both two-way and three-way settings. Penalties may be ``inf`` to
    switch individual actions off.
    """

    loss: "LossSpec"
    route_penalties: tuple[float, ...] = (0.0,)
    abstain_penalty: float = math.inf

    def __post_init__(self) -> None:
        pens = tuple(float(a) for a in self.route_penalties)
        if len(pens) < 1:
            raise InvalidInputError("need at least one routing penalty")
        if any(math.isnan(a) or a < 0 for a in pens):
            raise InvalidInputError("routing penalties must be >= 0")
        beta = float(self.abstain_penalty)
        if math.isnan(beta) or beta < 0:
            raise InvalidInputError("abstention penalty must be >= 0 (inf disables)")
        object.__setattr__(self, "route_penalties", pens)
        object.__setattr__(self, "abstain_penalty", beta)

    @property
    def num_oracles(self) -> int:
        return len(self.route_penalties)

    def actions(self) -> list[str]:
        return [PREDICT] + [route_action(i) for i in range(self.num_oracles)] + [ABSTAIN]

    @property
    def penalties(self) -> np.ndarray:
        """The penalty of each action, in ``actions()`` order."""
        return np.array([0.0, *self.route_penalties, self.abstain_penalty])


@dataclass(frozen=True, eq=False)
class RoutingDecision:
    """A chosen action together with the estimated cost of every action."""

    action: str
    est_costs: dict[str, float]

    def __post_init__(self) -> None:
        if self.action not in self.est_costs:
            raise InvalidInputError(f"action {self.action!r} missing from est_costs")
