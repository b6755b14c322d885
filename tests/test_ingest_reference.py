"""``ingest``, which checks a dataset as columns, against a frozen copy of the
per-record reader it replaced. The batch's columns must equal the reference
records stacked row by row, byte for byte, and must not depend on how many
lines are decoded together, or on whether the labels are written as a list
(version 1) or as per-class counts (version 2)."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hocroute import storage
from hocroute.core import InvalidInputError, SnapshotBatch, SnapshotExample, ground_truth
from hocroute.storage import _check_fields, _decode, _distribution, _record_error, header_path, ingest, read_header

from conftest import batch_columns, simplex_arrays

# ---------------------------------------------------------------------------
# Frozen per-record reader
# ---------------------------------------------------------------------------


def ref_parse_record(record, num_classes, lineno):
    weak, features = _check_fields(record, num_classes, lineno, ("id", "weak_probs", "labels"))
    labels = record["labels"]
    if not isinstance(labels, list) or not labels:
        raise _record_error(lineno, "labels", "must be a nonempty list")
    try:
        labels = np.asarray(labels)
    except ValueError:  # ragged nesting
        labels = None
    if labels is None or labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise _record_error(lineno, "labels", "must be a flat list of integers")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise _record_error(lineno, "labels", f"class index out of range for {num_classes} classes")
    p_star = None if record.get("p_star") is None else _distribution(record, "p_star", num_classes, lineno)
    return SnapshotExample(id=str(record["id"]), weak_pred=weak, labels=labels, features=features, p_star=p_star)


def ref_ingest(path):
    num_classes = int(read_header(path)["num_classes"])
    examples = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                examples.append(ref_parse_record(_decode(line, lineno), num_classes, lineno))
    if not examples:
        raise InvalidInputError(f"dataset file {path} holds no records")
    return examples


# ---------------------------------------------------------------------------
# Valid datasets: ragged labels, ragged or missing features, p_star on some
# rows only, blank lines
# ---------------------------------------------------------------------------


@st.composite
def datasets(draw):
    classes = draw(st.sampled_from([2, 3, 10]))
    drifted = st.tuples(simplex_arrays(classes), st.floats(-5e-7, 5e-7)).map(lambda t: t[0] * (1.0 + t[1]))
    row = st.fixed_dictionaries(
        {
            "id": st.one_of(st.text(max_size=4), st.integers()),
            "weak_probs": st.one_of(simplex_arrays(classes), drifted).map(lambda p: p.tolist()),
            "labels": st.lists(st.integers(0, classes - 1), min_size=1, max_size=12),
        },
        optional={
            "features": st.one_of(st.none(), st.lists(st.floats(-1e6, 1e6), max_size=3)),
            "p_star": st.one_of(st.none(), simplex_arrays(classes).map(lambda p: p.tolist())),
        },
    )
    records = draw(st.lists(st.tuples(row, st.booleans()), min_size=1, max_size=40))
    lines = []
    for record, blank_before in records:
        lines += ["\n"] if blank_before else []
        lines.append(json.dumps(record) + "\n")
    return classes, lines


def _write(path, classes, lines):
    header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": 1, "num_classes": classes}))
    path.write_text("".join(lines))
    return path


def _write_version_2(path, classes, lines):
    """The dataset ``lines`` (version 1) as a version-2 file: labels as per-class counts."""
    header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": 2, "num_classes": classes}))
    records = [json.loads(line) for line in lines if line.strip()]
    for record in records:
        record["label_counts"] = np.bincount(record.pop("labels"), minlength=classes).tolist()
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def _padded(rows, width):
    out = np.full((len(rows), width), np.nan)
    for row, values in zip(out, rows):
        row[: len(values)] = values
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=datasets())
def test_ingest_columns_equal_reference(tmp_path, data):
    classes, lines = data
    path = _write(tmp_path / "data.jsonl", classes, lines)
    reference = ref_ingest(path)
    batch = ingest(path)

    assert batch.ids == [e.id for e in reference]
    assert batch.probs.tobytes() == np.stack([e.weak_pred.probs for e in reference]).tobytes()
    assert batch.means.tobytes() == np.stack([e.snapshot_mean.probs for e in reference]).tobytes()
    assert batch.truth.tobytes() == np.stack([ground_truth(e).probs for e in reference]).tobytes()
    counts = np.stack([np.bincount(e.labels, minlength=classes) for e in reference])
    assert np.array_equal(batch.counts, counts)

    features = [[] if e.features is None else e.features.tolist() for e in reference]
    width = max(map(len, features))
    assert (batch.features is None) == (width == 0)
    if width:
        assert batch.features.tobytes() == _padded(features, width).tobytes()
    p_stars = [[] if e.p_star is None else e.p_star.probs.tolist() for e in reference]
    assert (batch.p_star is None) == all(e.p_star is None for e in reference)
    if batch.p_star is not None:
        assert batch.p_star.tobytes() == _padded(p_stars, classes).tobytes()

    for i, e in enumerate(reference):  # the row view reads back the reference record
        view = batch[i]
        assert view.snapshot_mean.probs.tobytes() == e.snapshot_mean.probs.tobytes()
        assert sorted(view.labels.tolist()) == sorted(e.labels.tolist())

    expected = batch_columns(batch)
    for chunk in (1, 7):
        with mock.patch.object(storage, "INGEST_CHUNK_LINES", chunk):
            assert batch_columns(ingest(path)) == expected

    # the same records in version 2, as label counts, read to the same columns
    assert batch_columns(ingest(_write_version_2(tmp_path / "data_v2.jsonl", classes, lines))) == expected


@pytest.mark.parametrize("dropped", [(), ("features",), ("p_star",), ("features", "p_star")])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=datasets())
def test_from_examples_of_the_row_views_is_the_batch(tmp_path, data, dropped):
    """A batch's row views, stacked again by ``from_examples``, give back the
    batch column for column, whether it was ingested from version 1 or 2."""
    classes, lines = data
    records = [json.loads(line) for line in lines if line.strip()]
    lines = [json.dumps({k: v for k, v in record.items() if k not in dropped}) + "\n" for record in records]
    v1 = _write(tmp_path / "rows_v1.jsonl", classes, lines)
    for path in (v1, _write_version_2(tmp_path / "rows_v2.jsonl", classes, lines)):
        batch = ingest(path)
        if dropped == ("features", "p_star"):
            assert batch.features is None and batch.p_star is None
        assert batch_columns(SnapshotBatch.from_examples(list(batch))) == batch_columns(batch)
