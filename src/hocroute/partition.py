"""Input-space partitions: top-class quantile bins, feature bins, exact level sets.

A fitted partition maps every example to exactly one bin id (a short
string). Quantile edges sit at equal-count split ranks of the calibration
values, using the midpoint of the two straddling order statistics, so bins
receive equal calibration mass up to one example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import InvalidInputError, SnapshotBatch, json_numbers
from .losses import LossSpec, entropy_batch, expected_loss_batch

TOP_CLASS = "topclass"
FEATURE = "feature"
LEVEL_SET = "levelset"
KINDS = (TOP_CLASS, FEATURE, LEVEL_SET)

# Bin id served to level-set queries whose prediction vector was never seen
# during calibration; its statistics fall back to the global mixture.
OVERFLOW_BIN = "overflow"

_LEVEL_DECIMALS = 6


def _level_key(probs: np.ndarray) -> str:
    return ",".join(f"{v:.6f}" for v in np.round(probs, _LEVEL_DECIMALS))


def _rank_edges(values: np.ndarray, buckets: int) -> np.ndarray:
    """Interior edges splitting sorted values into equal-count buckets."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    b = min(int(buckets), n)
    edges: list[float] = []
    for i in range(1, b):
        cut = (i * n) // b
        edge = (ordered[cut - 1] + ordered[cut]) / 2.0
        if not edges or edge > edges[-1]:  # strictly increasing; ties collapse
            edges.append(float(edge))
    return np.asarray(edges, dtype=float)


def _checked_ints(buckets, feature_index) -> tuple[int, int]:
    """``buckets`` >= 1 and ``feature_index`` >= 0 as ints; a bool, a float or a value out of range is refused."""
    for name, value, low in (("buckets", buckets, 1), ("feature_index", feature_index, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
            raise InvalidInputError(f"{name!r} must be an integer >= {low}, not {value!r}")
    return int(buckets), int(feature_index)


@dataclass(eq=False)
class PartitionSpec:
    """A fitted partition. Immutable after ``fit``; safe for concurrent assign."""

    kind: str
    buckets: int
    class_edges: dict[int, np.ndarray] = field(default_factory=dict)
    edges: np.ndarray | None = None
    feature_index: int = 0
    level_keys: frozenset[str] = frozenset()

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "buckets": self.buckets,
            "feature_index": self.feature_index,
            "class_edges": {str(c): e.tolist() for c, e in sorted(self.class_edges.items())},
            "edges": None if self.edges is None else self.edges.tolist(),
            "level_keys": sorted(self.level_keys),
        }

    @property
    def features_needed(self) -> int:
        """How many features a query must carry to be assigned a bin."""
        return self.feature_index + 1 if self.kind == FEATURE else 0

    @classmethod
    def from_record(cls, record: dict) -> "PartitionSpec":
        """The inverse of ``to_record``. Fields that ``fit`` could not have
        produced (edges not flat lists of JSON numbers, not finite or not
        strictly increasing, ``buckets`` or
        ``feature_index`` not an integer in range, ``level_keys`` not a
        list of strings) and unknown kinds fail with ``InvalidInputError``."""
        buckets, feature_index = _checked_ints(record["buckets"], record.get("feature_index", 0))
        level_keys = record.get("level_keys", [])
        if not isinstance(level_keys, list) or not all(isinstance(k, str) for k in level_keys):
            raise InvalidInputError("'level_keys' must be a list of strings")
        spec = cls(
            kind=record["kind"],
            buckets=buckets,
            feature_index=feature_index,
            class_edges={int(c): _edges(e) for c, e in record.get("class_edges", {}).items()},
            edges=None if record.get("edges") is None else _edges(record["edges"]),
            level_keys=frozenset(level_keys),
        )
        if spec.kind not in KINDS:
            raise InvalidInputError(f"unknown partition kind {spec.kind!r}")
        for edges in [*spec.class_edges.values(), *([] if spec.edges is None else [spec.edges])]:
            if not np.isfinite(edges).all() or (np.diff(edges) <= 0).any():
                raise InvalidInputError("bucket edges must be finite and strictly increasing")
        return spec


def _edges(values) -> np.ndarray:
    """Bucket edges read from a model file: a flat list of JSON numbers."""
    if type(values) is not list or not json_numbers(values):
        raise InvalidInputError("bucket edges must be flat lists of numbers")
    return np.asarray(values, dtype=float)


def fit(kind: str, calibration: SnapshotBatch, buckets: int = 10, feature_index: int = 0) -> PartitionSpec:
    """Fit a partition on the calibration set."""
    if kind not in KINDS:
        raise InvalidInputError(f"unknown partition kind {kind!r}; choose from {KINDS}")
    if not calibration:
        raise InvalidInputError("calibration set is empty")
    buckets, feature_index = _checked_ints(buckets, feature_index)

    if kind == TOP_CLASS:
        preds = calibration.probs
        classes = np.argmax(preds, axis=1)
        confidences = preds[np.arange(preds.shape[0]), classes]
        class_edges = {
            int(c): _rank_edges(confidences[classes == c], buckets) for c in np.unique(classes)
        }
        return PartitionSpec(kind=kind, buckets=buckets, class_edges=class_edges)

    if kind == FEATURE:
        j = feature_index
        present = calibration.features is not None and calibration.features.shape[1] > j
        values = calibration.features[:, j] if present else np.full(len(calibration), np.nan)
        lacking = np.isnan(values)
        if lacking.any():
            raise InvalidInputError(f"example {calibration.ids[int(np.argmax(lacking))]} lacks feature {j}")
        edges = _rank_edges(values, buckets)
        return PartitionSpec(kind=kind, buckets=buckets, edges=edges, feature_index=j)

    keys = frozenset(map(_level_key, calibration.probs))
    return PartitionSpec(kind=kind, buckets=len(keys), level_keys=keys)


def assign(spec: PartitionSpec, example) -> str:
    """Deterministic bin id for one example (or any object with ``weak_pred``
    and ``features`` attributes). Values outside the fitted edge range fall
    into the first/last bucket; intervals are half-open [lo, hi)."""
    if spec.kind == TOP_CLASS:
        probs = example.weak_pred.probs
        c = int(np.argmax(probs))
        edges = spec.class_edges.get(c)
        idx = 0 if edges is None or edges.size == 0 else int(np.searchsorted(edges, probs[c], side="right"))
        return f"c{c}:b{idx}"
    if spec.kind == FEATURE:
        feats = example.features
        j = spec.feature_index
        value = math.nan if feats is None or np.asarray(feats).size <= j else float(np.asarray(feats, dtype=float)[j])
        if math.isnan(value):
            raise InvalidInputError(f"example lacks feature {j}")
        idx = 0 if spec.edges is None or spec.edges.size == 0 else int(np.searchsorted(spec.edges, value, side="right"))
        return f"f:b{idx}"
    key = _level_key(example.weak_pred.probs)
    return f"ls:{key}" if key in spec.level_keys else OVERFLOW_BIN


def _bucket_index(edges: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    if edges is None or edges.size == 0:
        return np.zeros(values.shape[0], dtype=np.intp)
    return np.searchsorted(edges, values, side="right")


def assign_rows(
    spec: PartitionSpec, probs: np.ndarray, features: np.ndarray | None = None
) -> tuple[list[str], np.ndarray]:
    """``assign`` for every row of an ``(n, K)`` prediction matrix (and an
    ``(n, F)`` feature matrix, NaN where a row lacks a feature), as the
    distinct bin ids and each row's index into them."""
    if spec.kind == TOP_CLASS:
        classes = probs.argmax(axis=1)
        confidence = probs[np.arange(probs.shape[0]), classes]
        buckets = np.zeros(probs.shape[0], dtype=np.intp)
        for c in np.unique(classes).tolist():
            rows = classes == c
            buckets[rows] = _bucket_index(spec.class_edges.get(c), confidence[rows])
        width = int(buckets.max(initial=0)) + 1
        codes, index = np.unique(classes * width + buckets, return_inverse=True)
        return [f"c{code // width}:b{code % width}" for code in codes.tolist()], index
    if spec.kind == FEATURE:
        j = spec.feature_index
        if features is None or features.shape[1] <= j or np.isnan(features[:, j]).any():
            raise InvalidInputError(f"example lacks feature {j}")
        codes, index = np.unique(_bucket_index(spec.edges, features[:, j]), return_inverse=True)
        return [f"f:b{b}" for b in codes.tolist()], index
    bins = [f"ls:{key}" if key in spec.level_keys else OVERFLOW_BIN for key in map(_level_key, probs)]
    first_seen: dict[str, int] = {}
    index = np.array([first_seen.setdefault(b, len(first_seen)) for b in bins], dtype=np.intp)
    return list(first_seen), index


def _bin_positions(bins: list[str], index: np.ndarray) -> dict[str, np.ndarray]:
    """Each bin's row positions in input order, keyed by bin id in order of
    first appearance, as a loop over the rows would meet them."""
    order = np.argsort(index, kind="stable")
    rows = np.split(order, np.cumsum(np.bincount(index, minlength=len(bins)))[:-1])
    return {bins[j]: rows[j] for j in sorted(range(len(bins)), key=lambda j: rows[j][0])}


def assign_many(spec: PartitionSpec, data: SnapshotBatch) -> list[str]:
    """``assign`` of every row, through ``assign_rows``."""
    bins, index = assign_rows(spec, data.probs, data.features)
    return [bins[i] for i in index.tolist()]


def fitted_bins(spec: PartitionSpec) -> list[str]:
    """Every bin id this partition can produce for in-support inputs."""
    if spec.kind == TOP_CLASS:
        return [
            f"c{c}:b{i}" for c, edges in sorted(spec.class_edges.items()) for i in range(edges.size + 1)
        ]
    if spec.kind == FEATURE:
        n = 1 if spec.edges is None else spec.edges.size + 1
        return [f"f:b{i}" for i in range(n)]
    return sorted(f"ls:{k}" for k in spec.level_keys)


@dataclass(eq=False)
class PartitionQualityReport:
    """Per-bin excess-cost bound: half the mean absolute deviation of the
    reducible loss inside each bin, with snapshot means standing in for the
    exact conditional. Low numbers mean a single per-bin decision is close
    to pointwise-optimal for the predict/route setting."""

    per_bin: dict[str, float]
    counts: dict[str, int]
    aggregate: float
    empty_bins: list[str]


def partition_quality(spec: PartitionSpec, data: SnapshotBatch, loss: LossSpec) -> PartitionQualityReport:
    if not data:
        raise InvalidInputError("no data to evaluate partition quality")
    reducible = expected_loss_batch(loss, data.means, data.probs) - entropy_batch(loss, data.means)
    positions = _bin_positions(*assign_rows(spec, data.probs, data.features))

    per_bin: dict[str, float] = {}
    counts: dict[str, int] = {}
    for b, rows in positions.items():
        rl = reducible[rows]
        per_bin[b] = float(0.5 * np.mean(np.abs(rl - rl.mean())))
        counts[b] = len(rows)

    aggregate = float(sum(per_bin[b] * counts[b] for b in per_bin) / len(data))
    empty = [b for b in fitted_bins(spec) if b not in positions]
    return PartitionQualityReport(per_bin=per_bin, counts=counts, aggregate=aggregate, empty_bins=empty)
