"""Bounded proper losses, their expected values, and the induced entropies.

Six loss kinds are supported. The decision-based kinds (classification,
weighted FP/FN, three-part, asymmetric class penalty) fold an optimal
post-processing step into the loss so that the expected loss remains proper
with respect to the raw predicted probabilities.

Scalar functions are the readable reference implementations; the ``*_batch``
variants are vectorized over rows and back the evaluation hot paths. The two
are held to agree by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, LabelDistribution, UnsupportedLossError

BRIER = "brier"
CROSS_ENTROPY = "crossentropy"
CLASSIFICATION = "classification"
WEIGHTED_FP_FN = "weighted_fp_fn"
THREE_PART = "three_part"
ASYMMETRIC_CLASS = "asymmetric_class"

KINDS = (BRIER, CROSS_ENTROPY, CLASSIFICATION, WEIGHTED_FP_FN, THREE_PART, ASYMMETRIC_CLASS)
BINARY_ONLY = (WEIGHTED_FP_FN, THREE_PART)


@dataclass(frozen=True)
class LossSpec:
    """A loss kind with its parameters.

    ``c_fp``/``c_fn`` apply to the weighted FP/FN loss, ``gamma`` to the
    asymmetric class penalty, and ``epsilon`` is the probability clamp that
    makes cross-entropy bounded. ``bound`` is the range upper bound B used
    by the regret and Lipschitz guarantees.
    """

    kind: str
    c_fp: float = 1.0
    c_fn: float = 1.0
    gamma: float = 2.0
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}; choose from {KINDS}")
        if not (self.c_fp > 0 and self.c_fn > 0):
            raise InvalidInputError("c_fp and c_fn must be > 0")
        if not self.gamma > 0:
            raise InvalidInputError("gamma must be > 0")
        if not (0 < self.epsilon < 0.5):
            raise InvalidInputError("epsilon must lie in (0, 0.5)")

    @property
    def bound(self) -> float:
        if self.kind == BRIER:
            return 2.0
        if self.kind == CROSS_ENTROPY:
            return math.log(1.0 / self.epsilon)
        if self.kind == CLASSIFICATION:
            return 1.0
        if self.kind == WEIGHTED_FP_FN:
            return max(self.c_fp, self.c_fn)
        if self.kind == THREE_PART:
            return 4.0
        return max(self.gamma, 1.0)  # asymmetric class penalty

    @property
    def name(self) -> str:
        if self.kind == WEIGHTED_FP_FN:
            return f"{self.kind}(cfp={self.c_fp:g},cfn={self.c_fn:g})"
        if self.kind == ASYMMETRIC_CLASS:
            return f"{self.kind}(gamma={self.gamma:g})"
        return self.kind


def _check_classes(spec: LossSpec, num_classes: int) -> None:
    if spec.kind in BINARY_ONLY and num_classes != 2:
        raise UnsupportedLossError(f"{spec.kind} is defined for 2 classes, got {num_classes}")


def _clamped(probs: np.ndarray, epsilon: float) -> np.ndarray:
    """Clamp to [eps, 1-eps] and renormalize; floor once more so no entry
    ends below eps and the log stays within the advertised bound."""
    q = np.clip(probs, epsilon, 1.0 - epsilon)
    q = q / q.sum(axis=-1, keepdims=True)
    return np.clip(q, epsilon, None)


def _decision(spec: LossSpec, probs: np.ndarray) -> int:
    """The internal decision for decision-based kinds (lowest index on ties)."""
    if spec.kind == CLASSIFICATION:
        return int(np.argmax(probs))
    if spec.kind == WEIGHTED_FP_FN:
        # cross-multiplied odds threshold; avoids dividing by p0 = 0
        return int(probs[1] * spec.c_fn >= probs[0] * spec.c_fp)
    if spec.kind == ASYMMETRIC_CLASS:
        scores = probs.copy()
        scores[0] = spec.gamma * probs[0] + (1.0 - spec.gamma)
        return int(np.argmax(scores))
    raise InvalidInputError(f"{spec.kind} has no decision step")


def pointwise_loss(spec: LossSpec, y: int, pred: LabelDistribution) -> float:
    """Loss of prediction ``pred`` on the single observed label ``y``."""
    p = pred.probs
    n = p.shape[0]
    if not 0 <= y < n:
        raise InvalidInputError(f"label {y} out of range for {n} classes")
    _check_classes(spec, n)
    if spec.kind == BRIER:
        one_hot = np.zeros(n)
        one_hot[y] = 1.0
        return float(np.sum((one_hot - p) ** 2))
    if spec.kind == CROSS_ENTROPY:
        return float(-np.log(_clamped(p, spec.epsilon)[y]))
    if spec.kind == CLASSIFICATION:
        return 0.0 if _decision(spec, p) == y else 1.0
    if spec.kind == WEIGHTED_FP_FN:
        if _decision(spec, p) == 1:
            return spec.c_fp if y == 0 else 0.0
        return spec.c_fn if y == 1 else 0.0
    if spec.kind == THREE_PART:
        p1 = p[1]
        if p1 < 0.25:
            return 1.0 if y == 1 else 0.0
        if p1 < 15.0 / 16.0:
            return 0.25
        return 4.0 if y == 0 else 0.0
    # asymmetric class penalty
    yhat = _decision(spec, p)
    if yhat == 0:
        return 0.0 if y == 0 else spec.gamma
    return 0.0 if y == yhat else 1.0


def expected_loss(spec: LossSpec, truth: LabelDistribution, pred: LabelDistribution) -> float:
    """Expected loss of ``pred`` when labels are drawn from ``truth``."""
    if truth.num_classes != pred.num_classes:
        raise InvalidInputError("truth and prediction have different class counts")
    return float(sum(truth.probs[y] * pointwise_loss(spec, y, pred) for y in range(truth.num_classes)))


def entropy(spec: LossSpec, p: LabelDistribution) -> float:
    """Self-loss L(p, p): the entropy induced by the loss."""
    return expected_loss(spec, p, p)


# ---------------------------------------------------------------------------
# Vectorized forms (rows of probability vectors)
# ---------------------------------------------------------------------------


def expected_loss_batch(spec: LossSpec, truth: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Row-wise expected loss; ``truth`` and ``pred`` are (n, classes) arrays."""
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape or truth.ndim != 2:
        raise InvalidInputError(f"shape mismatch: {truth.shape} vs {pred.shape}")
    _check_classes(spec, truth.shape[1])

    if spec.kind == BRIER:
        return 1.0 - 2.0 * np.sum(truth * pred, axis=1) + np.sum(pred**2, axis=1)
    if spec.kind == CROSS_ENTROPY:
        return -np.sum(truth * np.log(_clamped(pred, spec.epsilon)), axis=1)
    if spec.kind == CLASSIFICATION:
        yhat = np.argmax(pred, axis=1)
        return 1.0 - truth[np.arange(truth.shape[0]), yhat]
    if spec.kind == WEIGHTED_FP_FN:
        positive = pred[:, 1] * spec.c_fn >= pred[:, 0] * spec.c_fp
        return np.where(positive, spec.c_fp * truth[:, 0], spec.c_fn * truth[:, 1])
    if spec.kind == THREE_PART:
        p1 = pred[:, 1]
        return np.where(p1 < 0.25, truth[:, 1], np.where(p1 < 15.0 / 16.0, 0.25, 4.0 * truth[:, 0]))
    # asymmetric class penalty
    scores = pred.copy()
    scores[:, 0] = spec.gamma * pred[:, 0] + (1.0 - spec.gamma)
    yhat = np.argmax(scores, axis=1)
    other = 1.0 - truth[np.arange(truth.shape[0]), yhat]
    return np.where(yhat == 0, spec.gamma * (1.0 - truth[:, 0]), other)


def entropy_batch(spec: LossSpec, probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    return expected_loss_batch(spec, probs, probs)
