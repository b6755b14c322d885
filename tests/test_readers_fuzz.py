"""Mutation fuzzing of the readers: a valid dataset, query line or model file,
damaged by hypothesis, is either read or refused with ``InvalidInputError``;
no other exception escapes."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hocroute.calibrator import calibrate
from hocroute.core import InvalidInputError, RoutingConfig
from hocroute.losses import LossSpec
from hocroute.partition import fit
from hocroute.router import Router
from hocroute.storage import (
    header_path,
    ingest,
    load_model,
    parse_queries,
    parse_query,
    read_scores_csv,
    save_model,
    write_dataset,
)

from conftest import version_1_payload, version_2_payload, version_3_payload, write_version_1

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)  # parses, but overflows a float
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
# A format ``version`` field: the ones a reader takes, and JSON values that
# equal them in Python or read alike as text.
VERSIONS = st.sampled_from([1, 2, 3, 4, 5, 0, -1, True, False, 1.0, 2.0, 3.0, 4.0, "1", "2", "3", "4", None])
JSON_CHARS = st.sampled_from(list('{}[]",:.-+eE0123456789 tfnulNaIy\\')) | st.characters()


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def mutate_value(data, document):
    """``document`` with one sub-value replaced, deleted or grown."""
    path = data.draw(st.sampled_from(list(_paths(document))))
    if not path:
        return data.draw(json_values)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    op = data.draw(st.sampled_from(["replace", "delete", "append"]))
    if op == "replace":
        parent[path[-1]] = data.draw(json_values)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], list):
        parent[path[-1]].append(data.draw(json_values))
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]][data.draw(st.text(max_size=4))] = data.draw(json_values)
    return document


def mutate_text(data, text: str) -> str:
    """``text`` after one to three character-level edits."""
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        if op == "delete":
            text = text[:i] + text[i + data.draw(st.integers(1, 8)) :]
        elif op == "insert":
            text = text[:i] + "".join(data.draw(st.lists(JSON_CHARS, min_size=1, max_size=6))) + text[i:]
        elif op == "replace":
            text = text[:i] + data.draw(JSON_CHARS) + text[i + 1 :]
        else:
            text = text[:i]
    return text


def mutate(data, text: str) -> str:
    """A structural mutation of the JSON in ``text``, a textual one, or both."""
    kind = data.draw(st.sampled_from(["value", "text", "both"]))
    if kind != "text":
        text = json.dumps(mutate_value(data, json.loads(text)))
    if kind != "value":
        text = mutate_text(data, text)
    return text


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def datasets(workspace, small_run):
    """A version-2 dataset of four records and its version-1 copy, each as
    (header text, lines)."""
    v2 = workspace / "valid.jsonl"
    write_dataset(v2, small_run.test[:4])
    v1 = write_version_1(v2, workspace / "valid_v1.jsonl")
    return [(header_path(path).read_text(), path.read_text().splitlines()) for path in (v2, v1)]


@pytest.fixture(scope="module")
def saved_models(workspace, small_run):
    """The version-4 texts ``save_model`` writes for a recalibrated
    top-class, a raw feature and a raw level-set model."""
    cal = small_run.calibration[:30]
    texts = []
    for kind, buckets in (("topclass", 2), ("feature", 3), ("levelset", 1)):
        path = workspace / f"{kind}.json"
        save_model(path, calibrate(fit(kind, cal, buckets=buckets), cal, recalibrate=kind == "topclass"))
        texts.append(path.read_text())
    return texts


@pytest.fixture(scope="module")
def model_texts(workspace, saved_models):
    """The saved version-4 texts, and version-3, 2 and 1 copies of each."""
    texts = []
    for text in saved_models:
        v3 = version_3_payload(json.loads(text))
        v2 = version_2_payload(v3)
        texts += [text, json.dumps(v3), json.dumps(v2), json.dumps(version_1_payload(v2))]
    for i, text in enumerate(texts):  # every seed is a valid model before it is mutated
        path = workspace / f"seed-{i}.json"
        path.write_text(text)
        load_model(path)
    return texts


def test_saved_mixtures_are_objects_with_nonempty_index_lists(saved_models):
    """The benchmark tells bins with data by the truth of ``bins[b]["preds"]``."""
    for text in saved_models:
        payload = json.loads(text)
        assert payload["version"] == 4 and payload["bins"]
        for mixture in [*payload["bins"].values(), payload["global"]]:
            assert type(mixture) is dict and mixture.keys() == {"preds", "means"}
            assert type(mixture["preds"]) is type(mixture["means"]) is str and mixture["preds"] and mixture["means"]


@FUZZ
@given(data=st.data())
def test_ingest_raises_only_invalid_input(workspace, datasets, data):
    header, lines = data.draw(st.sampled_from(datasets))
    lines = list(lines)
    target = data.draw(st.sampled_from(["line", "header", "version"]))
    if target == "line":
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = mutate(data, lines[i])
    elif target == "header":
        header = mutate(data, header)
    else:
        header = json.dumps({**json.loads(header), "version": data.draw(VERSIONS)})
    path = workspace / "fuzzed.jsonl"
    # surrogatepass: a lone surrogate drawn by the text mutation becomes bytes that are not UTF-8
    header_path(path).write_bytes(header.encode("utf-8", "surrogatepass"))
    raw = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    if data.draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8
        i = data.draw(st.integers(0, len(raw)))
        raw = raw[:i] + b"\xff" + raw[i:]
    path.write_bytes(raw)
    try:
        examples = ingest(path)
    except InvalidInputError:
        return
    assert examples and all(e.num_classes == examples[0].num_classes for e in examples)
    version = json.loads(header)["version"]
    assert type(version) is int and version in (1, 2)


@FUZZ
@given(data=st.data())
def test_query_readers_raise_only_invalid_input(datasets, data):
    _, lines = datasets[0]
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = mutate(data, lines[i])
    try:
        query = parse_query(lines[i], 2, i + 1)
    except InvalidInputError:
        query = None
    if query is not None:
        assert query.weak_pred.num_classes == 2
    try:
        batch = parse_queries(lines, 2, min_features=data.draw(st.integers(0, 2)))
    except InvalidInputError as err:
        assert query is None or "features" in str(err)
        return
    assert batch.probs.shape == (sum(1 for line in lines if line.strip()), 2)


@FUZZ
@given(data=st.data())
def test_load_model_raises_only_invalid_input(workspace, model_texts, data):
    text = data.draw(st.sampled_from(model_texts))
    if data.draw(st.integers(0, 4)) == 0:
        text = json.dumps({**json.loads(text), "version": data.draw(VERSIONS)})
    text = mutate(data, text)
    path = workspace / "fuzzed.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        model = load_model(path)
    except InvalidInputError:
        return
    # a model that loads routes every bin it stores to a finite decision
    router = Router(model, RoutingConfig(LossSpec("brier"), (0.05,), 0.3))
    for bin_id in model.mixtures:
        assert all(math.isfinite(c) for c in router.decide_bin(bin_id).est_costs.values())


@FUZZ
@given(data=st.data())
def test_read_scores_csv_raises_only_invalid_input(workspace, data):
    raw = mutate_text(data, "id,score\na,0.5\nb,1e-3\nc,-2\n").encode("utf-8", "surrogatepass")
    if data.draw(st.integers(0, 4)) == 0:  # a byte that is not UTF-8
        i = data.draw(st.integers(0, len(raw)))
        raw = raw[:i] + b"\xff" + raw[i:]
    path = workspace / "fuzzed.csv"
    path.write_bytes(raw)
    try:
        table = read_scores_csv(path)
    except InvalidInputError:
        return
    assert table and all(math.isfinite(v) for v in table.values())
