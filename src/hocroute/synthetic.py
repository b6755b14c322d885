"""Synthetic binary environments with controllable irreducible noise.

Inputs are standard-normal scalars; labels are Bernoulli draws from one of
three closed-form conditional-probability curves. The weak predictor is a
binned-frequency estimator: cheap, imperfect, and miscalibrated in places,
which is the regime routing is meant to help with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import InvalidInputError, LabelDistribution, SnapshotBatch
from .partition import _rank_edges

SINUSOIDAL = "sinusoidal"
THREE_STEPS = "three_steps"
PIECEWISE = "piecewise"
KINDS = (SINUSOIDAL, THREE_STEPS, PIECEWISE)


def _sinusoidal(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    w = 0.2 * np.logaddexp(0.0, (ax - 1.0) / 0.2)
    v = np.sign(x) * (120.0 * ax - 112.0 * w - 0.0635)
    u = 0.6 * np.cos(v) + 0.4 * np.cos(4.2 * x)
    return (0.98 * u + 1.0) / 2.0


def _three_steps(x: np.ndarray) -> np.ndarray:
    mid = np.sin(100.0 * x) / 2.0 + 0.5
    return np.where(x <= -1.0, 0.0, np.where(x >= 1.0, 1.0, mid))


def _piecewise(x: np.ndarray) -> np.ndarray:
    quarter_wave = np.sin(100.0 * x) / 4.0
    out = np.where(x <= -1.0, 0.5, quarter_wave + 0.5)
    out = np.where((x > -0.5) & (x <= 0.0), 0.25, out)
    out = np.where(x > 0.5, quarter_wave + 0.25, out)
    return out


_FUNCTIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    SINUSOIDAL: _sinusoidal,
    THREE_STEPS: _three_steps,
    PIECEWISE: _piecewise,
}


def eval_ground_truth(kind: str, x) -> np.ndarray | float:
    """Exact conditional probability of the positive class at ``x``."""
    if kind not in _FUNCTIONS:
        raise InvalidInputError(f"unknown ground-truth kind {kind!r}; choose from {KINDS}")
    arr = np.asarray(x, dtype=float)
    out = _FUNCTIONS[kind](arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


@dataclass(eq=False)
class BinnedFrequencyPredictor:
    """Equal-mass 1-D histogram classifier with add-one smoothing.

    Stands in for a trained model: per cell it predicts the smoothed
    positive-label frequency, clamped away from 0 and 1.
    """

    edges: np.ndarray
    positive_rate: np.ndarray

    def predict_proba(self, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.edges, arr, side="right")
        p1 = self.positive_rate[idx]
        return np.column_stack([1.0 - p1, p1])

    def predict(self, x: float) -> LabelDistribution:
        return LabelDistribution(self.predict_proba(x)[0])


def fit_weak_predictor(
    train_x: np.ndarray, train_y: np.ndarray, bins: int = 50
) -> BinnedFrequencyPredictor:
    """Fit the binned-frequency estimator on (x, y) pairs with y in {0, 1}."""
    x = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y)
    if x.size == 0 or x.shape != y.shape:
        raise InvalidInputError("need matching nonempty train_x / train_y")
    if not np.isin(y, (0, 1)).all():
        raise InvalidInputError("weak predictor supports binary labels only")
    if bins < 1:
        raise InvalidInputError(f"weak predictor needs bins >= 1, got {bins}")
    edges = _rank_edges(x, bins)
    idx = np.searchsorted(edges, x, side="right")
    cells = edges.size + 1
    totals = np.bincount(idx, minlength=cells)
    positives = np.bincount(idx, weights=y.astype(float), minlength=cells)
    rate = (positives + 1.0) / (totals + 2.0)
    return BinnedFrequencyPredictor(edges=edges, positive_rate=np.clip(rate, 0.01, 0.99))


@dataclass(eq=False)
class SyntheticDataset:
    kind: str
    seed: int
    train_x: np.ndarray
    train_y: np.ndarray
    calibration: SnapshotBatch
    test: SnapshotBatch
    weak_model: BinnedFrequencyPredictor


def _snapshots(
    prefix: str, x: np.ndarray, positives: np.ndarray, k: int, weak: BinnedFrequencyPredictor, p_star=None
) -> SnapshotBatch:
    """The split whose row ``i`` has input ``x[i]`` and ``positives[i]`` of
    its ``k`` labels positive."""
    return SnapshotBatch(
        ids=[f"{prefix}-{i:06d}" for i in range(x.size)],
        probs=weak.predict_proba(x),
        counts=np.column_stack([k - positives, positives]),
        features=x[:, None],
        p_star=None if p_star is None else np.column_stack([1.0 - p_star, p_star]),
    )


LABEL_BLOCK = 1 << 18  # uniforms per block of label draws: a 2 MB buffer


def _positive_counts(rng: np.random.Generator, p: np.ndarray, k: int) -> np.ndarray:
    """How many of row ``i``'s ``k`` Bernoulli(``p[i]``) labels are positive.

    The uniforms are drawn ``LABEL_BLOCK // k`` rows at a time from the one
    stream. ``Generator.random`` fills row-major, so the counts equal those of
    a single ``rng.random((n, k))`` draw, with a bounded buffer."""
    rows = max(1, LABEL_BLOCK // k)
    blocks = (p[i : i + rows] for i in range(0, p.size, rows))
    return np.concatenate([(rng.random((b.size, k)) < b[:, None]).sum(axis=1) for b in blocks])


def generate(
    kind: str,
    sizes: tuple[int, int, int] = (10_000, 5_000, 100_000),
    k: int = 100,
    seed: int = 0,
    weak_bins: int = 50,
) -> SyntheticDataset:
    """Reproducible train / k-snapshot calibration / test split.

    The three splits draw from independently spawned RNG streams of the root
    seed, so resizing one split never perturbs the others. Test examples
    carry the exact conditional distribution.
    """
    n_train, n_cal, n_test = sizes
    if min(n_train, n_cal, n_test) < 1 or k < 1:
        raise InvalidInputError("split sizes and k must be >= 1")
    root = np.random.SeedSequence(seed)
    rng_train, rng_cal, rng_test = (np.random.default_rng(s) for s in root.spawn(3))

    train_x = rng_train.standard_normal(n_train)
    train_p = eval_ground_truth(kind, train_x)
    train_y = (rng_train.random(n_train) < train_p).astype(np.int32)
    weak = fit_weak_predictor(train_x, train_y, bins=weak_bins)

    cal_x = rng_cal.standard_normal(n_cal)
    cal_positives = _positive_counts(rng_cal, eval_ground_truth(kind, cal_x), k)
    calibration = _snapshots("cal", cal_x, cal_positives, k, weak)

    test_x = rng_test.standard_normal(n_test)
    test_p = eval_ground_truth(kind, test_x)
    test_positives = _positive_counts(rng_test, test_p, k)
    test = _snapshots("test", test_x, test_positives, k, weak, p_star=test_p)

    return SyntheticDataset(
        kind=kind,
        seed=seed,
        train_x=train_x,
        train_y=train_y,
        calibration=calibration,
        test=test,
        weak_model=weak,
    )
