"""The record rules of the file readers, held to a frozen copy of the per-line
check they replaced: ``_read_columns`` on one line refuses with that check's
message or accepts as it does, and a batch of lines refuses with the message of
its first bad line, numbered in the file, however the lines are chunked."""

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hocroute import cli, storage
from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError
from hocroute.partition import fit
from hocroute.storage import (
    _check_fields,
    _decode,
    _distribution,
    _read_columns,
    _record_error,
    ingest,
    parse_queries,
    parse_query,
    save_model,
    write_dataset,
)

from conftest import version_1_line
from test_readers_fuzz import mutate, mutate_value

RULES = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------------------
# Frozen per-line check
# ---------------------------------------------------------------------------


def ref_check_line(line: str, num_classes: int, lineno: int, min_features: int = 0, version: int | None = None) -> None:
    """Raise for the first field of a line that breaks a record rule: the
    query fields, at least ``min_features`` features and, in a record of a
    dataset of format ``version``, its labels and ``p_star``."""
    record = _decode(line, lineno)
    labels_field = {None: (), 1: ("labels",), 2: ("label_counts",)}[version]
    _, features = _check_fields(record, num_classes, lineno, ("id", "weak_probs", *labels_field))
    if features is None and min_features:
        raise _record_error(lineno, "features", "missing")
    if features is not None and features.size < min_features:
        raise _record_error(lineno, "features", f"expected at least {min_features} entries")
    if version is None:
        return
    if version == 1:
        labels = record["labels"]
        if not isinstance(labels, list) or not labels:
            raise _record_error(lineno, "labels", "must be a nonempty list")
        if set(map(type, labels)) != {int}:
            raise _record_error(lineno, "labels", "must be a flat list of integers")
        if min(labels) < 0 or max(labels) >= num_classes:
            raise _record_error(lineno, "labels", f"class index out of range for {num_classes} classes")
    else:
        counts = record["label_counts"]
        if "labels" in record:
            raise _record_error(lineno, "label_counts", "given together with 'labels'")
        if not isinstance(counts, list) or [type(c) for c in counts] != [int] * num_classes:
            raise _record_error(lineno, "label_counts", f"must be a list of {num_classes} integers")
        if min(counts) < 0 or not 0 < sum(counts) <= np.iinfo(np.int64).max:
            raise _record_error(lineno, "label_counts", "counts must be >= 0 with a total >= 1 that fits in int64")
    if record.get("p_star") is not None:
        _distribution(record, "p_star", num_classes, lineno)


def ref_message(line, num_classes, lineno, min_features, version) -> str | None:
    try:
        ref_check_line(line, num_classes, lineno, min_features, version)
    except InvalidInputError as err:
        return str(err)
    return None


def message(read, *args) -> str | None:
    try:
        read(*args)
    except InvalidInputError as err:
        return str(err)
    return None


# ---------------------------------------------------------------------------
# Seed lines: written records of 2 and 3 classes, in both dataset formats,
# and hand-made records at the edges of the rules
# ---------------------------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)
EDGE_RECORDS = [  # version 2
    {"id": 7, "weak_probs": [0.25, 0.75], "label_counts": [INT64_MAX, 0]},
    {"id": "a", "weak_probs": [0.25, 0.75], "label_counts": [INT64_MAX, 1]},
    {"id": "b", "weak_probs": [0.25, 0.75], "label_counts": [0, 0], "features": []},
    {"id": "c", "weak_probs": [0.25, 0.75], "label_counts": [1, 2], "labels": [0]},
    {"id": "d", "weak_probs": [0.25, 0.75], "label_counts": [1, 2], "features": [1.0, 2.0, 3.0], "p_star": None},
    {"id": "e", "weak_probs": [0.5000001, 0.5], "label_counts": [3, 2], "p_star": [2.0, -1.0]},
    {"id": "f", "weak_probs": [0.25, 0.75], "label_counts": [-1, 3], "features": [float("nan")]},
    {"id": "g", "weak_probs": [float("nan"), 1.0], "label_counts": [10**20, 1]},
    {"id": "h", "weak_probs": [0.25, 0.75], "label_counts": [1], "labels": [0]},
    {"id": "i", "weak_probs": ["0.25", "0.75", "0"], "label_counts": [1, 1]},
]
EDGE_RECORDS_V1 = [
    {"id": 1, "weak_probs": [0.25, 0.75], "labels": []},
    {"id": 2, "weak_probs": [0.25, 0.75], "labels": [0, 2], "features": [0.5]},
    {"id": 3, "weak_probs": [0.25, 0.75], "labels": [-1, 1], "p_star": [0.5, 0.5]},
    {"id": 4, "weak_probs": [0.25, 0.75], "labels": [10**20], "features": [1e308, 1e308]},
    {"id": 5, "weak_probs": [0.2, 0.7], "labels": [True, 1]},
]


@pytest.fixture(scope="module")
def seed_lines(tmp_path_factory, small_run):
    """(version, number of classes, line) of valid and nearly valid records."""
    workspace = tmp_path_factory.mktemp("rules")
    path = workspace / "two.jsonl"
    write_dataset(path, small_run.test[:4])
    lines = [(2, 2, line) for line in path.read_text().splitlines()]
    three = small_run.test[:3].probs
    three = np.column_stack([three[:, 0] / 2, three[:, 0] / 2, three[:, 1]])
    for i, row in enumerate(three.tolist()):
        record = {"id": f"t{i}", "weak_probs": row, "label_counts": [i, 1, 2], "features": [0.5] * i, "p_star": row}
        lines.append((2, 3, json.dumps(record)))
    lines += [(2, 2, json.dumps(record)) for record in EDGE_RECORDS]
    lines += [(1, 2, json.dumps(record)) for record in EDGE_RECORDS_V1]
    return lines + [(1, classes, version_1_line(line).rstrip()) for _, classes, line in lines[:7]]


@st.composite
def fuzzed_lines(draw, seeds, blank=False):
    """(version, classes, line): a seed line for its dataset format or read as
    a query (version None), mutated or left valid."""
    version, classes, line = draw(st.sampled_from(seeds))
    if draw(st.booleans()):
        version = None
    kind = draw(st.sampled_from(["valid", "any", "value", "value"]))  # a value mutation keeps the JSON readable
    if kind == "any":
        line = mutate(SimpleNamespace(draw=draw), line)
    elif kind == "value":
        line = json.dumps(mutate_value(SimpleNamespace(draw=draw), json.loads(line)))
    if blank and draw(st.integers(0, 5)) == 0:
        line = draw(st.sampled_from(["", " ", "\t"]))
    return version, classes, line


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@RULES
@given(data=st.data())
def test_one_line_is_checked_as_the_frozen_per_line_check(seed_lines, data):
    version, classes, line = data.draw(fuzzed_lines(seed_lines))
    line += data.draw(st.sampled_from(["\n", ""]))
    min_features = data.draw(st.integers(0, 3))
    lineno = data.draw(st.integers(1, 10**6))
    expected = ref_message(line, classes, lineno, min_features, version) if line.strip() else None  # blank: skipped
    assert message(_read_columns, [line], lineno, classes, min_features, version) == expected


@RULES
@given(data=st.data())
def test_a_batch_refuses_with_its_first_bad_line(seed_lines, data):
    version, classes, _ = data.draw(st.sampled_from(seed_lines))
    same_kind = [seed for seed in seed_lines if seed[1] == classes and (version is None or seed[0] == version)]
    drawn = data.draw(st.lists(fuzzed_lines(same_kind, blank=True), min_size=2, max_size=8))
    version = data.draw(st.sampled_from([None, version]))
    min_features = data.draw(st.integers(0, 3))
    first = data.draw(st.integers(1, 1000))
    lines = [line + "\n" for _, _, line in drawn]
    expected = None
    for lineno, line in enumerate(lines, first):
        if line.strip() and expected is None:
            expected = ref_message(line, classes, lineno, min_features, version)
    assert message(_read_columns, lines, first, classes, min_features, version) == expected


@RULES
@given(data=st.data())
def test_parse_query_and_a_batch_of_one_agree(seed_lines, data):
    _, classes, line = data.draw(fuzzed_lines(seed_lines))
    assume(line.strip())  # a batch skips a blank line, which the one-query reader is never given
    lineno = data.draw(st.integers(1, 10**6))
    single, batch = message(parse_query, line, classes, lineno), message(parse_queries, [line], classes, lineno)
    assert single == batch


def test_a_refusal_no_single_line_repeats_names_the_lines(tmp_path, small_run):
    """When a batch is refused but each of its lines alone is read, the batch's
    own error is raised, naming its range of lines and the field."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, small_run.test[:5])
    lines = path.read_text().splitlines(True)
    decode = storage._decode_lines

    def refuse_batches(batch):
        if len(batch) > 1:
            raise ValueError("a batch refused")
        return decode(batch)

    with mock.patch.object(storage, "_decode_lines", refuse_batches):
        assert _read_columns(lines[:1], 4, 2, version=2) is not None
        with pytest.raises(InvalidInputError, match=r"^lines 4-8: field '-': invalid JSON \(a batch refused\)$"):
            _read_columns(lines, 4, 2, version=2)
        with pytest.raises(InvalidInputError, match=r"^lines 1-5: field '-'"):
            ingest(path)


# ---------------------------------------------------------------------------
# Line numbers across chunk boundaries
# ---------------------------------------------------------------------------


def test_ingest_names_a_bad_line_after_the_first_chunk(tmp_path, small_run):
    """Line 257 is the first line of the second default chunk."""
    path = tmp_path / "data.jsonl"
    write_dataset(path, small_run.test[:300])
    lines = path.read_text().splitlines(True)
    lines[256] = lines[256].replace('"weak_probs": [', '"weak_probs": [0.5, ', 1)
    path.write_text("".join(lines))
    assert storage.INGEST_CHUNK_LINES == 256
    for chunk in (256, 1, 7):
        with mock.patch.object(storage, "INGEST_CHUNK_LINES", chunk):
            with pytest.raises(InvalidInputError, match=r"^line 257: field 'weak_probs': expected 2 entries$"):
                ingest(path)


def test_route_names_a_bad_line_after_the_first_chunk(tmp_path, small_run, capsys):
    """Line 2049 is the first line of the second chunk of ``route``: it is
    named, and the 2048 decisions before it are written."""
    cal = small_run.calibration[:500]
    model = tmp_path / "model.json"
    save_model(model, calibrate(fit("topclass", cal, buckets=4), cal))
    data = tmp_path / "queries.jsonl"
    write_dataset(data, small_run.test[:2100])
    lines = data.read_text().splitlines(True)
    lines[2048] = '{"id": "bad", "weak_probs": [0.5, 0.6]}\n'
    data.write_text("".join(lines))
    out = tmp_path / "decisions.jsonl"
    assert cli.ROUTE_CHUNK_LINES == 2048
    assert cli.cli_dispatch(["route", "--model", str(model), "--in", str(data), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InvalidInputError" and error["message"].startswith("line 2049: field 'weak_probs': ")
    decisions = out.read_text().splitlines()
    assert len(decisions) == 2048 and json.loads(decisions[-1])["id"] == json.loads(lines[2047])["id"]
