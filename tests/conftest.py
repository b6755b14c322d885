import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from hocroute.calibrator import CalibratedRouterModel
from hocroute.core import LabelDistribution, SnapshotBatch, SnapshotExample, action_priority
from hocroute.partition import PartitionSpec
from hocroute.storage import header_path
from hocroute.synthetic import SINUSOIDAL, generate


def simplex_arrays(classes: int):
    """Hypothesis strategy for rows of the probability simplex."""
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=classes, max_size=classes
    ).map(lambda w: np.asarray(w) / np.sum(w))


def simplexes(classes: int):
    return simplex_arrays(classes).map(LabelDistribution)


def make_example(eid, weak, labels, features=None, p_star=None):
    return SnapshotExample(
        id=eid,
        weak_pred=LabelDistribution(weak),
        labels=labels,
        features=features,
        p_star=None if p_star is None else LabelDistribution(p_star),
    )


def model_of(mixtures: dict, global_mixture, partition=None, recalibrated=False):
    """A model built directly from ``(preds, means)`` pairs: ``mixtures`` maps
    each bin to its pair, ``global_mixture`` is the global one. The partition
    defaults to a single top-class bucket. Every test that builds a model by
    hand, or changes one's rows, goes through here."""
    segments = [*mixtures.values(), global_mixture]
    preds, means = (np.concatenate([np.asarray(rows, dtype=float) for rows in column]) for column in zip(*segments))
    return CalibratedRouterModel(
        partition=partition or PartitionSpec(kind="topclass", buckets=1, class_edges={0: np.array([])}),
        bins=tuple(mixtures),
        offsets=np.cumsum([0, *(len(p) for p, _ in segments)]),
        preds=preds,
        means=means,
        recalibrated=recalibrated,
    )


def ref_from_costs(est_costs: dict[str, float]) -> str:
    """The decision rule as a ``min`` over named actions, kept frozen: the
    cheapest action, exact ties resolved by ``action_priority`` (predict,
    then oracles by index, then abstain)."""
    return min(est_costs, key=lambda a: (est_costs[a], action_priority(a)))


def packed_rows(rows) -> str:
    """Rows of numbers as a version-3 model file's ``rows`` text."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def unpacked_rows(payload: dict) -> list[list[float]]:
    """A version-3 or 4 model payload's ``rows``, as the lists of numbers of version 2."""
    return np.frombuffer(base64.b64decode(payload["rows"]), "<f8").reshape(-1, payload["num_classes"]).tolist()


def index_type(table_rows: int) -> str:
    """The type of a version-4 row index into a table of ``table_rows`` rows,
    written out: 1, 2 or 4 little-endian unsigned bytes."""
    return "<u1" if table_rows <= 256 else "<u2" if table_rows <= 65536 else "<u4"


def packed_indices(indices, table_rows: int) -> str:
    """Row indices as a version-4 model file's ``preds`` or ``means`` text."""
    return base64.b64encode(np.asarray(indices, dtype=index_type(table_rows)).tobytes()).decode("ascii")


def unpacked_indices(text: str, table_rows: int) -> list[int]:
    """A version-4 ``preds`` or ``means`` text as the list of integers of version 3."""
    return np.frombuffer(base64.b64decode(text), index_type(table_rows)).tolist()


def version_3_payload(payload: dict) -> dict:
    """A version-4 model payload as version 3: each mixture's ``preds`` and
    ``means`` as lists of integer row indices."""
    table_rows = len(unpacked_rows(payload))
    unpack = lambda mixture: {key: unpacked_indices(mixture[key], table_rows) for key in ("preds", "means")}
    bins = {b: unpack(mixture) for b, mixture in payload["bins"].items()}
    return {**payload, "version": 3, "bins": bins, "global": unpack(payload["global"])}


def version_2_payload(payload: dict) -> dict:
    """A version-3 model payload as version 2: ``rows`` as lists of numbers."""
    return {**payload, "version": 2, "rows": unpacked_rows(payload)}


def version_1_payload(payload: dict) -> dict:
    """A version-2 model payload as version 1: no ``rows``, and each mixture's
    ``preds`` and ``means`` as the rows they index."""
    rows = payload["rows"]
    inline = lambda mixture: {key: [rows[i] for i in mixture[key]] for key in ("preds", "means")}
    bins = {b: inline(mixture) for b, mixture in payload["bins"].items()}
    older = {key: value for key, value in payload.items() if key != "rows"}
    return {**older, "version": 1, "bins": bins, "global": inline(payload["global"])}


def write_older_models(source, v3, v2, v1):
    """Version-3, version-2 and version-1 copies, at ``v3``, ``v2`` and
    ``v1``, of the version-4 model file ``source``: its indices unpacked, then
    its rows too, then its rows inlined in each mixture."""
    payload = version_3_payload(json.loads(Path(source).read_text(encoding="utf-8")))
    Path(v3).write_text(json.dumps(payload), encoding="utf-8")
    payload = version_2_payload(payload)
    Path(v2).write_text(json.dumps(payload), encoding="utf-8")
    Path(v1).write_text(json.dumps(version_1_payload(payload)), encoding="utf-8")


def batch_columns(batch) -> dict:
    """Every column of a ``SnapshotBatch`` as its dtype and bytes (None for an absent one)."""
    names = ("probs", "counts", "features", "p_star", "means", "truth")
    columns = {name: getattr(batch, name) for name in names}
    return {"ids": batch.ids} | {k: None if c is None else (c.dtype, c.tobytes()) for k, c in columns.items()}


def three_classes(batch: SnapshotBatch) -> SnapshotBatch:
    """``batch`` with its first class split in two halves: the same rows over 3 classes."""
    split = lambda m: np.column_stack([m[:, 0] / 2, m[:, 0] / 2, m[:, 1:]])
    half = batch.counts[:, 0] // 2
    counts = np.column_stack([half, batch.counts[:, 0] - half, batch.counts[:, 1:]])
    return SnapshotBatch(ids=batch.ids, probs=split(batch.probs), counts=counts, features=batch.features)


def version_1_line(line: str) -> str:
    """A version-2 dataset line as version 1: its ``label_counts`` spelled out
    as ``labels``, class indices grouped by class."""
    record = json.loads(line)
    counts = record.pop("label_counts")
    return json.dumps({**record, "labels": [c for c, n in enumerate(counts) for _ in range(n)]}) + "\n"


def write_version_1(source, target):
    """A version-1 copy at ``target`` of the version-2 dataset ``source``."""
    header = json.loads(header_path(source).read_text())
    header_path(target).write_text(json.dumps({**header, "version": 1}))
    with open(source) as lines:
        target.write_text("".join(map(version_1_line, lines)))
    return target


@pytest.fixture(scope="session")
def small_run():
    """A desk-sized seeded synthetic run shared across test modules."""
    return generate(SINUSOIDAL, sizes=(4000, 2000, 4000), k=50, seed=11)
