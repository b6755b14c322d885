"""Output checks for the benchmark workloads.

Each check counts the operations whose output is wrong; those counts feed
``failed`` and ``error_rate``. Checks run between timed passes, never
inside them.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np


def expected_bins(probs: np.ndarray, class_edges: dict) -> list[str]:
    """Top-class bin ids recomputed with plain numpy from a model file's
    ``partition.class_edges`` (half-open ``[lo, hi)`` buckets)."""
    classes = np.argmax(probs, axis=1)
    conf = probs[np.arange(probs.shape[0]), classes]
    buckets = np.zeros(probs.shape[0], dtype=int)
    for c, edges in class_edges.items():
        mask = classes == int(c)
        if len(edges):
            buckets[mask] = np.searchsorted(np.asarray(edges, dtype=float), conf[mask], side="right")
    return [f"c{c}:b{b}" for c, b in zip(classes.tolist(), buckets.tolist())]


def _priority(action: str) -> tuple[int, int]:
    if action == "predict":
        return (0, 0)
    if action == "abstain":
        return (2, 0)
    kind, _, index = action.partition(":")
    if kind == "route" and index.isdigit():
        return (1, int(index))
    return (3, 0)  # not an action name; never preferred on a tie


def argmin_action(est_costs: dict[str, float]) -> str:
    """Cheapest action; exact ties go predict < route:i (by i) < abstain."""
    return min(est_costs, key=lambda a: (est_costs[a], _priority(a)))


@dataclass
class DecisionCheck:
    """Checks each pass of routing decisions against the query stream.

    ``reference(bin_id)`` gives the expected ``est_costs`` of a bin; it is
    called once per distinct bin over the checker's life. ``problems``
    counts failed checks by reason over all passes.
    """

    ids: Sequence[str]
    bins: Sequence[str]
    reference: Callable[[str], dict[str, float]]
    problems: Counter = field(default_factory=Counter)
    _expected: dict[str, dict[str, float]] = field(default_factory=dict)

    def costs_for(self, bin_id: str) -> dict[str, float]:
        if bin_id not in self._expected:
            self._expected[bin_id] = self.reference(bin_id)
        return self._expected[bin_id]

    def check(self, decisions: Iterable[tuple[str, str, str, dict]]) -> int:
        """Number of queries whose decision is missing or wrong.

        ``decisions`` yields ``(id, bin, action, est_costs)`` in output order.
        """
        failed = 0
        seen = 0
        first_in_bin: dict[str, tuple[str, dict]] = {}
        for i, (qid, bin_id, action, costs) in enumerate(decisions):
            seen += 1
            reasons = []
            if i >= len(self.ids):
                reasons.append("extra_decision")
            else:
                if qid != self.ids[i]:
                    reasons.append("id_order")
                if bin_id != self.bins[i]:
                    reasons.append("bin")
                elif costs != self.costs_for(bin_id):
                    reasons.append("est_costs")
            if not costs or action != argmin_action(costs):
                reasons.append("argmin")
            first = first_in_bin.setdefault(bin_id, (action, costs))
            if first != (action, costs):
                reasons.append("bin_consistency")
            if reasons:
                failed += 1
                self.problems.update(reasons)
        missing = max(0, len(self.ids) - seen)
        if missing:
            self.problems["missing_decision"] += missing
        return failed + missing


def decision_lines(paths: Iterable[Path]) -> Iterable[tuple[str, str, str, dict]]:
    """Decoded ``route`` output lines; an undecodable line yields a record
    that fails every check."""
    for path in paths:
        with open(path) as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    yield record["id"], record["bin"], record["action"], record["est_costs"]
                except (ValueError, KeyError, TypeError):
                    yield "", "", "", {}


def count_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def check_curves(path: Path, policies: Sequence[str], grid_points: int) -> list[str]:
    """Problems in a ``curve`` CSV: row counts per policy, and the shared
    fraction-0 (all weak) and fraction-1 (all oracle) values."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    per_policy = Counter(r["policy"] for r in rows)
    if per_policy != Counter({p: grid_points for p in policies}):
        problems.append(f"curve rows per policy {dict(per_policy)}")
    for fraction in ("0.0", "1.0"):
        values = [float(r["mean_loss"]) for r in rows if r["fraction"] == fraction]
        if len(values) != len(policies):
            problems.append(f"curve has {len(values)} rows at fraction {fraction}")
        elif not all(math.isclose(v, values[0], rel_tol=1e-9, abs_tol=1e-12) for v in values):
            problems.append(f"curve values differ at fraction {fraction}: {values}")
    return problems


def check_sweep(path: Path, rows_expected: int) -> list[str]:
    """Problems in a ``sweep`` CSV: row count and finite costs."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != rows_expected:
        problems.append(f"sweep has {len(rows)} rows, expected {rows_expected}")
    if not all(math.isfinite(float(r["mean_cost"])) for r in rows):
        problems.append("sweep has non-finite costs")
    return problems
