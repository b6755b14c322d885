"""Seeded benchmark inputs, written in the program's own file formats.

Everything here is plain numpy and json: the program under test receives
only the generated files and lines, never the generator. Probabilities are
continuous draws, so calibration confidences have no ties and every
``topclass:B`` partition gets its full ``classes * B`` bins.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _binary_truth(x: np.ndarray) -> np.ndarray:
    """Smooth positive-class probability with noisy and clean regions."""
    return 0.5 + 0.45 * np.sin(2.0 * x) * np.exp(-0.1 * x * x)


def _binary_weak(rng: np.random.Generator, p: np.ndarray) -> np.ndarray:
    """A miscalibrated weak prediction of the positive class."""
    return np.clip(0.8 * p + 0.1 + 0.08 * rng.standard_normal(p.size), 0.02, 0.98)


def _labels(rng: np.random.Generator, truth: np.ndarray, k: int) -> np.ndarray:
    """``k`` independent class draws per row of ``truth`` (inverse CDF)."""
    cdf = np.cumsum(truth, axis=1)
    u = rng.random((truth.shape[0], k))
    drawn = (u[:, :, None] > cdf[:, None, :]).sum(axis=2)
    return np.minimum(drawn, truth.shape[1] - 1)


def _write_dataset(path: Path, num_classes: int, records) -> None:
    header = {"format": "snapshot-dataset", "version": 1, "num_classes": num_classes}
    Path(str(path) + ".header.json").write_text(json.dumps(header) + "\n")
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def binary_dataset(path: Path, rng: np.random.Generator, n: int, k: int, prefix: str, p_star: bool) -> None:
    """Binary snapshot dataset with one feature; ``p_star`` adds the exact
    conditional (as the program's test splits carry it)."""
    x = rng.standard_normal(n)
    p = _binary_truth(x)
    weak = _binary_weak(rng, p)
    truth = np.column_stack([1.0 - p, p])
    labels = _labels(rng, truth, k)

    def records():
        for i in range(n):
            record = {
                "id": f"{prefix}-{i:06d}",
                "features": [float(x[i])],
                "weak_probs": [float(1.0 - weak[i]), float(weak[i])],
                "labels": labels[i].tolist(),
            }
            if p_star:
                record["p_star"] = truth[i].tolist()
            yield record

    _write_dataset(path, 2, records())


def _multiclass_weak(rng: np.random.Generator, n: int, classes: int) -> tuple[np.ndarray, np.ndarray]:
    truth = rng.dirichlet(np.full(classes, 0.5), size=n)
    noise = rng.dirichlet(np.ones(classes), size=n)
    weak = 0.7 * truth + 0.3 * noise
    return truth, weak / weak.sum(axis=1, keepdims=True)


def multiclass_dataset(path: Path, rng: np.random.Generator, n: int, classes: int, k: int) -> None:
    """Calibration set over ``classes`` classes with ``k`` labels per row."""
    truth, weak = _multiclass_weak(rng, n, classes)
    labels = _labels(rng, truth, k)
    records = (
        {"id": f"cal-{i:06d}", "weak_probs": weak[i].tolist(), "labels": labels[i].tolist()}
        for i in range(n)
    )
    _write_dataset(path, classes, records)


def query_lines(rng: np.random.Generator, n: int, classes: int) -> tuple[list[str], np.ndarray]:
    """Route-stream JSONL lines (``id`` and ``weak_probs``) and their
    probability matrix, row for row."""
    if classes == 2:
        p = _binary_truth(rng.standard_normal(n))
        weak = _binary_weak(rng, p)
        probs = np.column_stack([1.0 - weak, weak])
    else:
        probs = _multiclass_weak(rng, n, classes)[1]
    lines = [
        json.dumps({"id": f"q-{i:06d}", "weak_probs": probs[i].tolist()}) + "\n" for i in range(n)
    ]
    return lines, probs
