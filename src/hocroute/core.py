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
# Constructor rejects vectors whose total mass is off by more than this
# (matches the ingestion tolerance for externally produced probabilities).
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


def simplex_ok(p: np.ndarray) -> np.bool_ | np.ndarray:
    """The simplex rule over the last axis: every entry within
    ``[-SIMPLEX_ATOL, 1 + MASS_GUARD]`` (so finite) and the mass within
    ``MASS_GUARD`` of one. A bool for one vector, a bool per row for a matrix."""
    # Entry-wise comparisons and ufunc reductions: a row minimum and maximum
    # over a short last axis cost several times more on a tall matrix.
    return np.logical_and.reduce((p >= -SIMPLEX_ATOL) & (p <= 1.0 + MASS_GUARD), axis=-1) & (
        abs(np.add.reduce(p, axis=-1) - 1.0) <= MASS_GUARD
    )


def simplex_error(p: np.ndarray) -> InvalidInputError:
    """Why the vector ``p`` fails ``simplex_ok``."""
    if not np.isfinite(p).all():
        return InvalidInputError("probabilities must be finite")
    if p.min() < -SIMPLEX_ATOL or p.max() > 1.0 + MASS_GUARD:
        return InvalidInputError(f"entries outside [0, 1]: {p.tolist()}")
    return InvalidInputError(f"probabilities sum to {float(p.sum())!r}, beyond tolerance")


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

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[0])

    def __repr__(self) -> str:
        return f"LabelDistribution({self.probs.tolist()})"


def snapshot_mean(labels: Sequence[int] | np.ndarray, num_classes: int) -> LabelDistribution:
    """Average of one-hot labels: the empirical conditional distribution.

    Permutation invariant in the label list; a single repeated label yields
    the corresponding one-hot vector.
    """
    arr = np.asarray(labels)
    if arr.size == 0:
        raise InvalidInputError("snapshot needs at least one label")
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError("labels must be a flat list of class indices")
    if int(arr.min()) < 0 or int(arr.max()) >= num_classes:
        raise InvalidInputError("label index out of range")
    counts = np.bincount(arr, minlength=num_classes)
    return LabelDistribution(counts / arr.size)


@dataclass(eq=False)
class SnapshotExample:
    """One calibration or evaluation record.

    Carries the weak model's prediction and ``k`` independently sampled
    labels; ``snapshot_mean`` is always derived from the labels. ``p_star``
    is the exact conditional distribution and only present for synthetic
    data where it is known.
    """

    id: str
    weak_pred: LabelDistribution
    labels: np.ndarray
    features: np.ndarray | None = None
    p_star: LabelDistribution | None = None
    snapshot_mean: LabelDistribution = field(init=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            raise InvalidInputError(f"example {self.id}: labels must be integers")
        self.labels = labels.astype(np.int32, copy=False)
        try:
            self.snapshot_mean = snapshot_mean(self.labels, self.weak_pred.num_classes)
        except InvalidInputError as err:
            raise InvalidInputError(f"example {self.id}: {err}") from None
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=float)
        if self.p_star is not None and self.p_star.num_classes != self.weak_pred.num_classes:
            raise InvalidInputError(f"example {self.id}: p_star class count mismatch")

    @property
    def num_classes(self) -> int:
        return self.weak_pred.num_classes

    @property
    def k(self) -> int:
        return int(self.labels.size)


def ground_truth(example: SnapshotExample) -> LabelDistribution:
    """Exact conditional when available, snapshot mean otherwise."""
    return example.p_star if example.p_star is not None else example.snapshot_mean


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


@dataclass(frozen=True, eq=False)
class RoutingDecision:
    """A chosen action together with the estimated cost of every action."""

    action: str
    est_costs: dict[str, float]

    def __post_init__(self) -> None:
        if self.action not in self.est_costs:
            raise InvalidInputError(f"action {self.action!r} missing from est_costs")

    @classmethod
    def from_costs(cls, est_costs: dict[str, float]) -> "RoutingDecision":
        """Pick the cost-minimizing action; exact ties resolve by priority."""
        best = min(est_costs, key=lambda a: (est_costs[a], action_priority(a)))
        return cls(action=best, est_costs={a: float(c) for a, c in est_costs.items()})


# ---------------------------------------------------------------------------
# Array helpers shared by the numeric modules
# ---------------------------------------------------------------------------


def feature_matrix(rows: Sequence[np.ndarray | None]) -> np.ndarray | None:
    """Per-row feature vectors as one ``(n, F)`` matrix, ``F`` the longest
    vector; NaN fills the entries a row lacks. None when no row has features."""
    present = [f for f in rows if f is not None]
    if not present:
        return None
    out = np.full((len(rows), max(f.size for f in present)), np.nan)
    for i, f in enumerate(rows):
        if f is not None:
            out[i, : f.size] = f
    return out


def weak_pred_matrix(examples: Sequence[SnapshotExample]) -> np.ndarray:
    return np.stack([e.weak_pred.probs for e in examples])


def snapshot_mean_matrix(examples: Sequence[SnapshotExample]) -> np.ndarray:
    return np.stack([e.snapshot_mean.probs for e in examples])


def ground_truth_matrix(examples: Sequence[SnapshotExample]) -> np.ndarray:
    return np.stack([ground_truth(e).probs for e in examples])
