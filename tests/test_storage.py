import base64
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hocroute.calibrator import calibrate, estimate_decomposition
from hocroute.core import MASS_GUARD, InvalidInputError, LabelDistribution
from hocroute.evaluation import PREDICT_ABSTAIN, PREDICT_ROUTE, THREE_WAY, CostSweep, cost_sweep, multi_loss_report
from hocroute.losses import LossSpec
from hocroute.partition import assign_many, fit
from hocroute.storage import (
    _decode_lines,
    header_path,
    ingest,
    load_model,
    parse_queries,
    parse_query,
    read_header,
    read_scores_csv,
    save_model,
    sha256_file,
    write_curves_csv,
    write_dataset,
    write_manifest,
    write_sweep_csv,
)

from conftest import (
    batch_columns,
    index_type,
    model_of,
    packed_indices,
    packed_rows,
    unpacked_indices,
    unpacked_rows,
    version_1_line,
    version_1_payload,
    version_2_payload,
    version_3_payload,
    write_version_1,
)

brier = LossSpec("brier")
V1, V2, V3, V4 = "valid_payload", "valid_payload_v2", "valid_payload_v3", "valid_payload_v4"  # by format version
WIDE = "wide_payload_v4"  # a version-4 payload whose table of 257 rows takes 2-byte indices
PACKED = "must be base64 of one or more rows of 2 little-endian float64 numbers$"  # a bad version-3 'rows' text
INDICES = "must be base64 of one or more little-endian 1-byte row indices$"  # a bad version-4 index list of V4
# where an index past the table is put to show which is named: the first segment with one, preds before means
FIRST_BAD_INDEX_SPOTS = (("c1:b0", "preds"), ("c0:b1", "means"), ("c0:b1", "preds"))


def mixture_of(payload: dict, mixture: str) -> dict:
    return payload["global"] if mixture == "global" else payload["bins"][mixture]


def reindexed(mixture: str, key: str, damage):
    """``damage`` applied to the index list ``key`` of a version-4 payload's
    ``mixture`` (a bin id, or "global") as a list, packed again."""

    def apply(payload):
        table_rows = len(unpacked_rows(payload))
        record = mixture_of(payload, mixture)
        indices = unpacked_indices(record[key], table_rows)
        damage(indices)
        record[key] = packed_indices(indices, table_rows)

    return apply


def rebytes(mixture: str, key: str, damage):
    """``damage`` applied to the bytes of the index list ``key`` of a
    version-4 payload's ``mixture``, encoded again."""

    def apply(payload):
        record = mixture_of(payload, mixture)
        record[key] = base64.b64encode(damage(base64.b64decode(record[key]))).decode("ascii")

    return apply


def distinct_rows_model(table_rows: int):
    """A raw model whose global mixture's preds and means are the same
    ``table_rows`` distinct rows, so its row table holds exactly those."""
    x = np.arange(table_rows) / table_rows
    rows = np.stack([x, 1 - x], axis=1)
    return model_of({}, (rows, rows))


def repacked(damage):
    """``damage`` applied to a version-3 payload's rows as lists, packed again."""

    def apply(payload):
        rows = unpacked_rows(payload)
        damage(rows)
        payload["rows"] = packed_rows(rows)

    return apply


def model_arrays(model) -> dict[str, bytes]:
    """Every array a model holds, by name, as its bytes."""
    mixtures = {**model.mixtures, "global": model.global_mixture}
    arrays = {f"{b}:{key}": getattr(m, key) for b, m in mixtures.items() for key in ("preds", "means")}
    arrays.update({f"centroid:{b}": c.probs for b, c in model.centroids.items()})
    return {name: a.tobytes() for name, a in arrays.items()}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory, small_run):
    path = tmp_path_factory.mktemp("data") / "cal.jsonl"
    write_dataset(path, small_run.calibration[:500])
    return path


class TestDatasetRoundTrip:
    def test_snapshot_means_bit_exact(self, dataset, small_run):
        loaded = ingest(dataset)
        for orig, back in zip(small_run.calibration[:500], loaded):
            assert orig.id == back.id
            np.testing.assert_array_equal(orig.snapshot_mean.probs, back.snapshot_mean.probs)
            np.testing.assert_array_equal(orig.weak_pred.probs, back.weak_pred.probs)
            np.testing.assert_array_equal(orig.labels, back.labels)

    def test_exact_conditional_survives(self, tmp_path, small_run):
        path = tmp_path / "test.jsonl"
        write_dataset(path, small_run.test[:50])
        loaded = ingest(path)
        for orig, back in zip(small_run.test[:50], loaded):
            np.testing.assert_array_equal(orig.p_star.probs, back.p_star.probs)

    def test_header_sidecar(self, dataset):
        header = read_header(dataset)
        assert header["num_classes"] == 2
        assert header_path(dataset).name == "cal.jsonl.header.json"


class TestIngestValidation:
    def write_lines(self, tmp_path, lines, num_classes=2):
        path = tmp_path / "bad.jsonl"
        header_path(path).write_text(
            json.dumps({"format": "snapshot-dataset", "version": 1, "num_classes": num_classes})
        )
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_small_probability_drift_renormalized(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"id": "a", "weak_probs": [0.5, 0.5000005], "labels": [0]})]
        )
        (example,) = ingest(path)
        assert example.weak_pred.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_probability_mass_rejected_with_line(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                json.dumps({"id": "a", "weak_probs": [0.5, 0.5], "labels": [0]}),
                json.dumps({"id": "b", "weak_probs": [0.5, 0.4], "labels": [0]}),
            ],
        )
        with pytest.raises(InvalidInputError, match="line 2.*weak_probs"):
            ingest(path)

    def test_labels_validated(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"id": "a", "weak_probs": [0.5, 0.5], "labels": []})]
        )
        with pytest.raises(InvalidInputError, match="line 1.*labels"):
            ingest(path)
        path = self.write_lines(
            tmp_path, [json.dumps({"id": "a", "weak_probs": [0.5, 0.5], "labels": [2]})]
        )
        with pytest.raises(InvalidInputError, match="labels"):
            ingest(path)
        for bad in ([[0], [1, 0]], [0.0], "01"):
            path = self.write_lines(tmp_path, [json.dumps({"id": "a", "weak_probs": [0.5, 0.5], "labels": bad})])
            with pytest.raises(InvalidInputError, match="line 1: field 'labels'"):
                ingest(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = self.write_lines(tmp_path, ["{not json"])
        with pytest.raises(InvalidInputError, match="line 1"):
            ingest(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        path.write_text(json.dumps({"id": "a", "weak_probs": [0.5, 0.5], "labels": [0]}) + "\n")
        with pytest.raises(InvalidInputError, match="header"):
            ingest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="does not exist"):
            ingest(tmp_path / "nope.jsonl")


MISSING = object()  # a ``version`` field left out
BAD_VERSIONS = [True, 3.0, "3", 4, 2.0, "2", None, MISSING]
MODEL_BAD_VERSIONS = [v for v in BAD_VERSIONS if v != 4] + [4.0, "4", 5]


def with_version(record: dict, version) -> dict:
    """``record`` with ``version`` as its version, or with none for MISSING."""
    record = {k: v for k, v in record.items() if k != "version"}
    return record if version is MISSING else {**record, "version": version}


def version_error(source, version, accepted: str) -> str:
    """A regular expression for the whole message refusing ``version`` in ``source``."""
    found = "missing" if version is MISSING else f"unsupported version {json.dumps(version)}"
    message = f"{source}: field 'version': {found} (this reader takes {accepted})"
    return f"^{re.escape(message)}$"


class TestDatasetVersion2:
    """Version 2 stores a row's labels as ``label_counts``; version 1 files,
    which list the labels, read to the same arrays."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory, small_run):
        root = tmp_path_factory.mktemp("v2")
        v2 = root / "v2.jsonl"
        write_dataset(v2, small_run.test[:300])
        return v2, write_version_1(v2, root / "v1.jsonl")

    def test_written_as_counts(self, files):
        v2, _ = files
        assert json.loads(header_path(v2).read_text())["version"] == 2
        record = json.loads(v2.read_text().splitlines()[0])
        assert "labels" not in record and type(record["label_counts"][0]) is int

    def test_version_1_and_2_read_to_equal_arrays(self, files, tmp_path):
        v2, v1 = files
        from_v1 = ingest(v1)
        assert batch_columns(ingest(v2)) == batch_columns(from_v1)
        again = tmp_path / "again.jsonl"  # version 1 -> version 2 -> ingest
        write_dataset(again, from_v1)
        assert again.read_bytes() == v2.read_bytes()
        assert batch_columns(ingest(again)) == batch_columns(from_v1)

    def test_records_write_the_bytes_of_their_batch(self, files, tmp_path):
        v2, _ = files
        batch = ingest(v2)
        assert batch.features is not None and batch.p_star is not None
        for rows in (batch, batch[:40]):
            as_records, as_batch = tmp_path / "records.jsonl", tmp_path / "batch.jsonl"
            write_dataset(as_records, list(rows))
            write_dataset(as_batch, rows)
            assert as_records.read_bytes() == as_batch.read_bytes()
            assert header_path(as_records).read_bytes() == header_path(as_batch).read_bytes()

    def test_extreme_counts_are_read(self, tmp_path):
        path = tmp_path / "extreme.jsonl"
        header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": 2, "num_classes": 2}))
        records = [{"id": "a", "weak_probs": [0.5, 0.5], "label_counts": c} for c in ([0, 5], [2**63 - 2, 1])]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        batch = ingest(path)
        assert batch.counts.tolist() == [[0, 5], [2**63 - 2, 1]]
        assert batch.means[0].tolist() == [0.0, 1.0]
        # a row view keeps the counts: it does not spell out 2**63 - 1 labels
        assert [e.k for e in batch] == [5, 2**63 - 1]
        assert batch[1].snapshot_mean.probs.tobytes() == batch.means[1].tobytes()

    @pytest.mark.parametrize("lineno", [1, 100, 257])
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param({"label_counts": [-1, 3]}, id="negative"),
            pytest.param({"label_counts": [1.0, 2]}, id="float"),
            pytest.param({"label_counts": [True, 2]}, id="bool"),
            pytest.param({"label_counts": [1, 2, 3]}, id="wrong-length"),
            pytest.param({"label_counts": [0, 0]}, id="all-zero"),
            pytest.param({"label_counts": [2**63, 0]}, id="count-beyond-int64"),
            pytest.param({"label_counts": [2**62, 2**62]}, id="total-beyond-int64"),
            pytest.param({"label_counts": 3}, id="not-a-list"),
            pytest.param({"label_counts": None}, id="null"),
            pytest.param({"labels": [0, 1]}, id="with-labels"),
        ],
    )
    def test_bad_label_counts_named(self, files, tmp_path, damage, lineno):
        v2, _ = files
        lines = v2.read_text().splitlines(keepends=True)
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **damage}) + "\n"
        path = tmp_path / "bad.jsonl"
        header_path(path).write_text(header_path(v2).read_text())
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match=f"^line {lineno}: field 'label_counts': "):
            ingest(path)

    def test_version_1_line_in_a_version_2_file_is_refused(self, files, tmp_path):
        v2, _ = files
        lines = v2.read_text().splitlines(keepends=True)
        lines[4] = version_1_line(lines[4])
        path = tmp_path / "mixed.jsonl"
        header_path(path).write_text(header_path(v2).read_text())
        path.write_text("".join(lines))
        with pytest.raises(InvalidInputError, match="^line 5: field 'label_counts': missing$"):
            ingest(path)

    @pytest.mark.parametrize("version", BAD_VERSIONS)
    def test_header_version_checked(self, files, tmp_path, version):
        _, v1 = files
        path = tmp_path / "data.jsonl"
        path.write_text(v1.read_text())
        header_path(path).write_text(json.dumps(with_version(json.loads(header_path(v1).read_text()), version)))
        with pytest.raises(InvalidInputError, match=version_error(header_path(path), version, "1, 2")):
            ingest(path)


class TestQueryParsing:
    def test_labels_optional_at_routing_time(self):
        query = parse_query(json.dumps({"id": "q1", "weak_probs": [0.7, 0.3]}), 2, 1)
        assert query.id == "q1" and query.features is None

    def test_query_validation(self):
        with pytest.raises(InvalidInputError, match="weak_probs"):
            parse_query(json.dumps({"id": "q1", "weak_probs": [0.7, 0.2]}), 2, 3)


@pytest.mark.parametrize("excess", [0.9 * MASS_GUARD, 1.1 * MASS_GUARD])
def test_every_reader_applies_the_one_mass_tolerance(excess, tmp_path):
    """A row whose mass is within MASS_GUARD of one is accepted, and one just
    beyond it refused, alike by the constructor and every reader."""
    row = [0.5, 0.5 + excess]
    query = json.dumps({"id": "a", "weak_probs": row}) + "\n"
    reads = {"LabelDistribution": lambda: LabelDistribution(np.array(row))}
    reads["parse_query"] = lambda: parse_query(query, 2, 1)
    reads["parse_queries"] = lambda: parse_queries([query], 2)
    for field, record in (
        ("weak_probs", {"id": "a", "weak_probs": row, "labels": [0]}),
        ("p_star", {"id": "a", "weak_probs": [0.5, 0.5], "labels": [0], "p_star": row}),
    ):
        path = tmp_path / f"{field}.jsonl"
        header_path(path).write_text(json.dumps({"format": "snapshot-dataset", "version": 1, "num_classes": 2}))
        path.write_text(json.dumps(record) + "\n")
        reads[f"ingest {field}"] = lambda path=path: ingest(path)
    for name, read in reads.items():
        if excess < MASS_GUARD:
            read()
        else:
            field = "p_star" if name == "ingest p_star" else "weak_probs"
            expected = "" if name == "LabelDistribution" else f"line 1: field '{field}': "
            with pytest.raises(InvalidInputError, match=f"^{expected}probabilities sum to .*, beyond tolerance {MASS_GUARD}$"):
                read()


JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.lists(st.integers(), min_size=2),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6,
).map(json.dumps)


def _loads_each(lines):
    """The reference: ``json.loads`` of each line, or the error of the first that fails."""
    try:
        return [json.loads(line) for line in lines], None
    except (ValueError, RecursionError) as err:
        return None, err


class TestDecodeLines:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equals_json_loads_of_each_line(self, data):
        """Values and blank lines joined by commas, broken into lines at some
        of the commas (a kept comma merges two values onto one line, a break
        at a nested one splits a value) and cut at random points: the one-call
        decode returns what decoding each line returns, and raises what the
        first failing line raises."""
        blank = st.sampled_from(["", " ", "\t"])
        pieces = data.draw(st.lists(st.one_of(JSON_TEXTS, JSON_TEXTS, JSON_TEXTS, JSON_TEXTS, blank), max_size=8))
        text = ", ".join(pieces)
        commas = [m.start() for m in re.finditer(", ", text)]
        breaks = min(data.draw(st.sampled_from([len(pieces) - 1, len(commas) // 2, len(commas)])), len(commas))
        for cut in sorted(data.draw(st.permutations(commas))[: max(breaks, 0)], reverse=True):
            text = text[:cut] + "\n" + text[cut + 2 :]
        for cut in sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=1)), reverse=True):
            text = text[:cut] + "\n" + text[cut:]
        lines = [line + "\n" for line in text.split("\n")[:-1]] + [text.split("\n")[-1]] * data.draw(st.booleans())
        lines = [line for line in lines if line.strip()] if data.draw(st.booleans()) else lines
        expected, error = _loads_each(lines)
        if error is None:
            assert repr(_decode_lines(lines)) == repr(expected)
        else:
            with pytest.raises(type(error)) as raised:
                _decode_lines(lines)
            assert str(raised.value) == str(error)

    def test_valid_lines_take_one_call(self):
        lines = [json.dumps({"id": f"q{i}", "weak_probs": [0.5, 0.5]}) + "\n" for i in range(5)]
        expected = [json.loads(line) for line in lines]
        with mock.patch("json.loads", wraps=json.loads) as loads:
            assert _decode_lines(lines) == expected
        assert loads.call_count == 1

    @pytest.mark.parametrize(
        "lines, first_bad",
        [
            # joined with plain commas, these read as four values from four lines
            (['{"id": "q0"}\n', '{"id": "a"}, {"id": "b"}\n', "[[1\n", "2]]\n"], 2),
            # joined with separators, these read as the 2n - 1 items of four lines
            (["1, 2\n", "3, 4\n", "[5\n", "6]\n"], 1),
        ],
    )
    def test_misaligned_lines_are_decoded_one_at_a_time(self, lines, first_bad):
        with mock.patch("json.loads", wraps=json.loads) as loads:
            with pytest.raises(json.JSONDecodeError, match="^Extra data"):
                _decode_lines(lines)
        assert loads.call_count == 1 + first_bad

    def test_a_line_at_the_nesting_limit_is_decoded_on_its_own(self):
        """The one call nests each line one level deeper than ``json.loads``
        of the line alone, so a line at the deepest level that decodes alone
        makes the one call fail, and the per-line fallback decodes it."""

        def decodes(depth: int) -> bool:
            try:
                _decode_lines(["[" * depth + "]" * depth])
            except RecursionError:
                return False
            return True

        lo, hi = 1, 2  # ``lo`` decodes, ``hi`` does not
        while decodes(hi) and hi < 1 << 20:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if decodes(mid) else (lo, mid)
        line = "[" * lo + "]" * lo
        values = _decode_lines([line, line])  # the one call nests ``hi`` levels deep and fails
        assert len(values) == 2
        for value in values:  # walked down a level at a time: comparing nested lists recurses
            for _ in range(lo - 1):
                (value,) = value
            assert value == []


class TestModelFile:
    def test_bit_exact_round_trip(self, tmp_path, small_run):
        data = small_run.calibration[:800]
        model = calibrate(fit("topclass", data, buckets=7), data, recalibrate=True)
        first = tmp_path / "model.json"
        second = tmp_path / "model2.json"
        save_model(first, model)
        loaded = load_model(first)
        save_model(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        for b in model.mixtures:
            np.testing.assert_array_equal(model.mixtures[b].means, loaded.mixtures[b].means)
            np.testing.assert_array_equal(model.mixtures[b].preds, loaded.mixtures[b].preds)
        np.testing.assert_array_equal(model.global_mixture.means, loaded.global_mixture.means)
        for b in model.centroids:
            np.testing.assert_array_equal(model.centroids[b].probs, loaded.centroids[b].probs)
        sample = small_run.test[:100]
        assert assign_many(model.partition, sample) == assign_many(loaded.partition, sample)
        assert estimate_decomposition(model, "c0:b0", brier) == estimate_decomposition(loaded, "c0:b0", brier)

    @pytest.mark.parametrize("version", MODEL_BAD_VERSIONS)
    def test_version_checked(self, tmp_path, valid_payload_v4, version):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(with_version(valid_payload_v4, version)))
        with pytest.raises(InvalidInputError, match=version_error(path, version, "1, 2, 3, 4")):
            load_model(path)

    def test_version_guard(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "hoc-router-model", "version": 99}))
        with pytest.raises(InvalidInputError, match="version"):
            load_model(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(InvalidInputError, match="not a"):
            load_model(path)

    @pytest.fixture(scope="class")
    def payload_model(self, small_run):
        data = small_run.calibration[:200]
        return calibrate(fit("topclass", data, buckets=3), data, recalibrate=True)

    @pytest.fixture(scope="class")
    def valid_payload(self, valid_payload_v2):
        return version_1_payload(valid_payload_v2)

    @pytest.fixture(scope="class")
    def valid_payload_v4(self, payload_model, tmp_path_factory):
        path = tmp_path_factory.mktemp("v4") / "model.json"
        save_model(path, payload_model)
        return json.loads(path.read_text())

    @pytest.fixture(scope="class")
    def valid_payload_v3(self, valid_payload_v4):
        return version_3_payload(valid_payload_v4)

    @pytest.fixture(scope="class")
    def valid_payload_v2(self, valid_payload_v3):
        return version_2_payload(valid_payload_v3)

    @pytest.fixture(scope="class")
    def wide_payload_v4(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "model.json"
        save_model(path, distinct_rows_model(257))
        return json.loads(path.read_text())

    def corrupt(self, payload, damage):
        payload = json.loads(json.dumps(payload))
        damage(payload)
        return payload

    @pytest.mark.parametrize(
        "damage, field, payload, detail",
        [
            pytest.param(lambda p: p.pop("partition"), "partition", V1, "", id="missing-field"),
            pytest.param(lambda p: p["bins"]["c0:b0"].pop("means"), "bins", V1, "", id="mixture-without-means"),
            pytest.param(lambda p: p["bins"]["c0:b0"]["means"][0].append(0.0), "bins", V1, "", id="ragged-row"),
            pytest.param(lambda p: p["bins"]["c0:b0"]["preds"].pop(), "bins", V1, "", id="preds-means-misaligned"),
            pytest.param(lambda p: p["bins"]["c0:b0"]["means"].__setitem__(0, [0.7, 0.7]), "bins", V1, "", id="mass-off"),
            pytest.param(lambda p: p["global"]["preds"].__setitem__(3, [-0.5, 1.5]), "global", V1, "", id="negative-entry"),
            pytest.param(lambda p: p["bins"].__setitem__("c0:b9", p["bins"]["c0:b0"]), "bins", V1, "", id="unknown-bin"),
            pytest.param(lambda p: p["centroids"].__setitem__("c0:b0", [0.5, 0.6]), "centroids", V1, "", id="bad-centroid"),
            pytest.param(lambda p: p["partition"]["class_edges"]["0"].reverse(), "partition", V1, "", id="unsorted-edges"),
            pytest.param(lambda p: p.__setitem__("num_classes", "2"), "num_classes", V1, "", id="num-classes-not-int"),
            pytest.param(
                lambda p: p["centroids"]["c0:b0"].__setitem__(0, str(p["centroids"]["c0:b0"][0])), "centroids", V3,
                "bin 'c0:b0': must be a flat list of numbers$", id="string-centroid-entry",
            ),
            pytest.param(
                lambda p: p["partition"]["class_edges"]["0"].__setitem__(0, str(p["partition"]["class_edges"]["0"][0])),
                "partition", V3, "bucket edges must be flat lists of numbers$", id="string-class-edge",
            ),
            pytest.param(lambda p: p.pop("rows"), "rows", V2, "missing", id="v2-missing-rows"),
            pytest.param(
                lambda p: p["rows"].__setitem__(1, [0.7, 0.7]), "rows", V2, "row 1 is not a probability vector",
                id="v2-row-off-simplex",
            ),
            pytest.param(
                lambda p: p["rows"].__setitem__(0, [0.5]), "rows", V2, "must be a nonempty list of rows", id="v2-short-row"
            ),
            pytest.param(
                lambda p: p["rows"].__setitem__(0, [True, 0]), "rows", V2,
                "must be a nonempty list of rows of 2 numbers$", id="v2-bool-in-row",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["means"].__setitem__(0, len(p["rows"])), "bins", V2,
                r"bin 'c0:b0': 'means' index \d+ is out of range", id="v2-index-out-of-range",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["preds"].__setitem__(2, -1), "bins", V2,
                "bin 'c0:b0': 'preds' index -1 is out of range", id="v2-negative-index",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["preds"].__setitem__(0, 2**70), "bins", V2,
                "bin 'c0:b0': 'preds' index 1180591620717411303424 is out of range", id="v2-index-beyond-int64",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["means"].__setitem__(0, 0.0), "bins", V2,
                "bin 'c0:b0': 'means' must be a nonempty flat list of integer row indices", id="v2-float-index",
            ),
            pytest.param(
                lambda p: p["global"]["preds"].__setitem__(1, True), "global", V2,
                "'preds' must be a nonempty flat list of integer row indices", id="v2-bool-index",
            ),
            pytest.param(
                lambda p: p["global"].__setitem__("means", [[0.5, 0.5]]), "global", V2,
                "'means' must be a nonempty flat list of integer row indices", id="v2-rows-instead-of-indices",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"].update(preds=[], means=[]), "bins", V2,
                "bin 'c0:b0': 'preds' must be a nonempty flat list", id="v2-empty-index-list",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["preds"].pop(), "bins", V2,
                r"bin 'c0:b0': \d+ 'preds' rows for \d+ 'means' rows", id="v2-preds-means-misaligned",
            ),
            pytest.param(lambda p: p.__setitem__("rows", unpacked_rows(p)), "rows", V3, PACKED, id="v3-rows-not-text"),
            pytest.param(lambda p: p.__setitem__("rows", "*" + p["rows"][1:]), "rows", V3, PACKED, id="v3-not-base64"),
            pytest.param(lambda p: p.__setitem__("rows", "\u00e9" + p["rows"][1:]), "rows", V3, PACKED, id="v3-not-ascii"),
            pytest.param(
                lambda p: p.__setitem__("rows", packed_rows(np.ravel(unpacked_rows(p))[:-1])), "rows", V3, PACKED,
                id="v3-not-whole-rows",
            ),
            pytest.param(lambda p: p.__setitem__("rows", ""), "rows", V3, PACKED, id="v3-empty"),
            pytest.param(
                repacked(lambda rows: rows.__setitem__(1, [0.7, 0.7])), "rows", V3, "row 1 is not a probability vector",
                id="v3-row-off-simplex",
            ),
            pytest.param(
                repacked(lambda rows: rows.__setitem__(0, [np.nan, 1.0])), "rows", V3,
                "row 0 is not a probability vector", id="v3-nan-row",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"].__setitem__("preds", unpacked_indices(p["bins"]["c0:b0"]["preds"], 1)),
                "bins", V4, f"bin 'c0:b0': 'preds' {INDICES}", id="v4-preds-not-text",
            ),
            pytest.param(
                lambda p: p["global"].__setitem__("preds", 7), "global", V4, f"'preds' {INDICES}", id="v4-preds-a-number"
            ),
            pytest.param(
                lambda p: p["bins"]["c1:b2"].__setitem__("means", "*" + p["bins"]["c1:b2"]["means"][1:]), "bins", V4,
                f"bin 'c1:b2': 'means' {INDICES}", id="v4-not-base64",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"].__setitem__("preds", "\u00e9" + p["bins"]["c0:b0"]["preds"][1:]), "bins",
                V4, f"bin 'c0:b0': 'preds' {INDICES}", id="v4-not-ascii",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"].update(preds="", means=""), "bins", V4,
                f"bin 'c0:b0': 'preds' {INDICES}", id="v4-empty",
            ),
            pytest.param(
                lambda p: p["global"].__setitem__("means", ""), "global", V4, f"'means' {INDICES}", id="v4-empty-means"
            ),
            pytest.param(
                rebytes("global", "preds", lambda raw: raw[:-1]), "global", WIDE,
                "'preds' must be base64 of one or more little-endian 2-byte row indices$", id="v4-not-whole-indices",
            ),
            pytest.param(
                reindexed("c0:b1", "preds", list.pop), "bins", V4, r"bin 'c0:b1': 27 'preds' rows for 28 'means' rows$",
                id="v4-preds-means-misaligned",
            ),
            pytest.param(
                reindexed("global", "means", lambda index: index.append(0)), "global", WIDE,
                r"257 'preds' rows for 258 'means' rows$", id="v4-wide-preds-means-misaligned",
            ),
            pytest.param(
                reindexed("c0:b2", "means", lambda index: index.__setitem__(3, 57)), "bins", V4,
                "bin 'c0:b2': 'means' index 57 is out of range$", id="v4-index-out-of-range",
            ),
            pytest.param(
                reindexed("global", "preds", lambda index: index.__setitem__(-1, 255)), "global", V4,
                "'preds' index 255 is out of range$", id="v4-global-index-out-of-range",
            ),
            pytest.param(
                reindexed("global", "means", lambda index: index.__setitem__(0, 65535)), "global", WIDE,
                "'means' index 65535 is out of range$", id="v4-wide-index-out-of-range",
            ),
            pytest.param(  # a bad index is named in the first mixture that holds one, preds before means
                lambda p: [
                    reindexed(b, key, lambda index: index.__setitem__(0, 99))(p) for b, key in FIRST_BAD_INDEX_SPOTS
                ],
                "bins", V4, "bin 'c0:b1': 'preds' index 99 is out of range$", id="v4-first-bad-index-named",
            ),
            *(
                pytest.param(
                    lambda p: [mixture_of(p, b)[key].__setitem__(0, 99) for b, key in FIRST_BAD_INDEX_SPOTS], "bins",
                    payload, "bin 'c0:b1': 'preds' index 99 is out of range$", id=f"{version}-first-bad-index-named",
                )
                for payload, version in ((V2, "v2"), (V3, "v3"))
            ),
            pytest.param(  # a negative index and one past the table are one range rule, named by segment first
                lambda p: [
                    p["bins"]["c0:b1"]["means"].__setitem__(2, -1), p["bins"]["c1:b0"]["preds"].__setitem__(0, 99)
                ],
                "bins", V2, "bin 'c0:b1': 'means' index -1 is out of range$", id="v2-negative-before-too-large",
            ),
            pytest.param(  # every mixture's shape and type are checked before any index's range
                lambda p: [p["bins"]["c0:b0"]["preds"].__setitem__(0, 99), p["global"]["means"].__setitem__(1, 0.5)],
                "global", V2, "'means' must be a nonempty flat list of integer row indices$",
                id="v2-malformed-global-before-bin-range",
            ),
        ],
    )
    def test_corrupt_model_fields_named(self, tmp_path, request, damage, field, payload, detail):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.corrupt(request.getfixturevalue(payload), damage)))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: field '{field}': {detail}"):
            load_model(path)

    @pytest.mark.parametrize("payload", [V1, V2, V3])
    @pytest.mark.parametrize(
        "damage, field, detail",
        [
            pytest.param(
                lambda p: p["centroids"].__setitem__("c0:b0", [0.25, 0.75]), "centroids",
                "bin 'c0:b0': must be the bin's stored prediction; only a bin with rows has one$", id="centroid-edited",
            ),
            pytest.param(
                lambda p: p["bins"].pop("c0:b0"), "centroids",
                "bin 'c0:b0': must be the bin's stored prediction; only a bin with rows has one$", id="centroid-of-no-rows",
            ),
            pytest.param(
                lambda p: p.__setitem__("recalibrated", False), "centroids",
                "bin 'c0:b0': must be absent in a raw model$", id="centroids-of-a-raw-model",
            ),
            pytest.param(
                lambda p: p["bins"]["c0:b0"]["preds"].__setitem__(1, p["bins"]["c0:b0"]["means"][1]), "bins",
                "bin 'c0:b0': a recalibrated segment must store one prediction in every row$", id="two-bin-predictions",
            ),
            pytest.param(
                lambda p: p["global"]["preds"].__setitem__(1, p["global"]["means"][1]), "global",
                "global mixture: a recalibrated segment must store one prediction in every row$",
                id="two-global-predictions",
            ),
        ],
    )
    def test_served_predictions_that_are_not_the_stored_ones_are_refused(
        self, tmp_path, request, damage, field, detail, payload
    ):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.corrupt(request.getfixturevalue(payload), damage)))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: field '{field}': {detail}"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            ("buckets", "7", "'buckets' must be an integer >= 1, not '7'"),
            ("buckets", -3, "'buckets' must be an integer >= 1, not -3"),
            ("buckets", 0, "'buckets' must be an integer >= 1, not 0"),
            ("buckets", 2.7, "'buckets' must be an integer >= 1, not 2.7"),
            ("buckets", True, "'buckets' must be an integer >= 1, not True"),
            ("feature_index", True, "'feature_index' must be an integer >= 0, not True"),
            ("feature_index", 0.9, "'feature_index' must be an integer >= 0, not 0.9"),
            ("feature_index", -1, "'feature_index' must be an integer >= 0, not -1"),
            ("level_keys", "abc", "'level_keys' must be a list of strings"),
            ("level_keys", [0.5], "'level_keys' must be a list of strings"),
        ],
    )
    def test_malformed_partition_fields_named(self, tmp_path, valid_payload_v2, key, value, detail):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.corrupt(valid_payload_v2, lambda p: p["partition"].__setitem__(key, value))))
        expected = f"{path}: field 'partition': {detail}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(expected)}$"):
            load_model(path)

    def test_round_trip_keeps_bit_patterns(self, tmp_path, small_run):
        data = small_run.calibration[:200]
        model = calibrate(fit("topclass", data, buckets=3), data, recalibrate=False)
        mixture = model.mixtures["c0:b0"]
        preds = mixture.preds.copy()
        preds[:3] = [[1.0, -0.0], [1.0, 0.0], [1.0, 5e-324]]
        model = model_of({**model.mixtures, "c0:b0": (preds, mixture.means)}, model.global_mixture, model.partition)
        first, second = tmp_path / "model.json", tmp_path / "model2.json"
        save_model(first, model)
        rows = unpacked_rows(json.loads(first.read_text()))
        # distinct bit patterns, equal values, and a subnormal
        assert {"[1.0, -0.0]", "[1.0, 0.0]", "[1.0, 5e-324]"} <= {json.dumps(r) for r in rows}
        loaded = load_model(first)
        assert model_arrays(loaded) == model_arrays(model)
        save_model(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_version_1_file_loads_as_version_2(
        self, tmp_path, valid_payload, valid_payload_v2, valid_payload_v3, payload_model
    ):
        paths = [tmp_path / f"v{version}.json" for version in (1, 2, 3, 4)]
        for path, payload in zip(paths, (valid_payload, valid_payload_v2, valid_payload_v3)):
            path.write_text(json.dumps(payload))
        save_model(paths[3], payload_model)
        assert json.loads(paths[3].read_text())["version"] == 4
        arrays = [model_arrays(load_model(path)) for path in paths]
        assert arrays[0] == arrays[1] == arrays[2] == arrays[3] == model_arrays(payload_model)
        for path in paths:  # each older copy is saved again as the version-4 file
            save_model(tmp_path / "resaved.json", load_model(path))
            assert (tmp_path / "resaved.json").read_bytes() == paths[3].read_bytes()

    @pytest.mark.parametrize("table_rows, width", [(256, 1), (257, 2), (65536, 2), (65537, 4)])
    def test_index_width_follows_the_table(self, tmp_path, table_rows, width):
        model = distinct_rows_model(table_rows)
        first, second = tmp_path / "model.json", tmp_path / "model2.json"
        save_model(first, model)
        payload = json.loads(first.read_text())
        assert len(unpacked_rows(payload)) == table_rows and np.dtype(index_type(table_rows)).itemsize == width
        for key in ("preds", "means"):
            packed = payload["global"][key]
            assert len(base64.b64decode(packed)) == width * table_rows
            assert unpacked_indices(packed, table_rows) == list(range(table_rows))
        loaded = load_model(first)
        assert model_arrays(loaded) == model_arrays(model)
        save_model(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_valid_payload_loads_and_bad_json_is_refused(self, tmp_path, valid_payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(valid_payload))
        assert load_model(path).num_classes == 2
        path.write_text(json.dumps(valid_payload)[:-10])
        with pytest.raises(InvalidInputError, match="invalid JSON"):
            load_model(path)
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(InvalidInputError, match="invalid JSON"):
            load_model(path)

    def test_model_without_bins_loads_and_uses_the_global_mixture(self, tmp_path, valid_payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**valid_payload, "bins": {}, "centroids": {}}))
        model = load_model(path)
        assert model.mixtures == {}
        assert model.mixture("c0:b0") is model.global_mixture

    @pytest.mark.parametrize("kind", ["topclass", "feature", "levelset"])
    def test_calibrated_models_pass_the_bin_rule(self, tmp_path, small_run, kind):
        data = small_run.calibration[:300]
        path = tmp_path / "model.json"
        save_model(path, calibrate(fit(kind, data, buckets=4), data, recalibrate=True))
        load_model(path)  # refuses a bin outside the partition's fitted bins


class TestReports:
    def test_curves_csv_deterministic(self, tmp_path, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        test = small_run.test[:500]
        report = multi_loss_report(model, test, [brier], random_seed=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves_csv(a, report["brier"])
        write_curves_csv(b, multi_loss_report(model, test, [brier], random_seed=1)["brier"])
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().splitlines()
        assert rows[0] == "policy,loss,fraction,mean_loss"
        assert len(rows) == 1 + 101 * len(report["brier"])

    def test_sweep_csv(self, tmp_path, small_run):
        data = small_run.calibration
        model = calibrate(fit("topclass", data, buckets=10), data, recalibrate=True)
        sweep = cost_sweep(model, small_run.test[:500], brier, alpha=0.05, betas=[0.2, 0.4])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        rows = path.read_text().splitlines()
        assert rows[0] == "alpha,beta,policy,mean_cost"
        assert len(rows) == 1 + 2 * 3

    def test_sweep_csv_by_hand(self, tmp_path):
        # betas outermost, then policies in the sweep's order; every number as its repr
        mean_costs = {THREE_WAY: [0.05, 0.125], PREDICT_ROUTE: [0.2, 1 / 3], PREDICT_ABSTAIN: [0.1, 0.25]}
        sweep = CostSweep(1, np.array([0.1, 0.25]), {k: np.array(v) for k, v in mean_costs.items()}, 0.0)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        assert path.read_bytes().decode("utf-8") == (
            "alpha,beta,policy,mean_cost\r\n"
            "1,0.1,three_way,0.05\r\n"
            "1,0.1,predict_route,0.2\r\n"
            "1,0.1,predict_abstain,0.1\r\n"
            "1,0.25,three_way,0.125\r\n"
            "1,0.25,predict_route,0.3333333333333333\r\n"
            "1,0.25,predict_abstain,0.25\r\n"
        )

    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\na,0.5\nb,1.5\n")
        assert read_scores_csv(path) == {"a": 0.5, "b": 1.5}
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(InvalidInputError):
            read_scores_csv(empty)

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"id,score\na,0.5\nb,notanumber\n", 3),
            (b"a,0.5\nb,0.\xff5\n", 2),
            (b"a,0.5\nb,nan\n", 2),
            (b"a,inf\n", 1),
        ],
        ids=["not_a_number", "not_utf8", "nan", "inf"],
    )
    def test_bad_score_rows_name_file_and_line(self, content, line, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(content)
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(path))}: line {line}: "):
            read_scores_csv(path)

    @pytest.mark.parametrize("header, line", [("", 3), ("id,score\n", 4)])
    def test_an_id_given_twice_is_refused(self, header, line, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(header + "a,1\nb,2\na,3\n")
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(str(path))}: line {line}: id 'a' given twice$"):
            read_scores_csv(path)

    def test_manifest_hashes_inputs(self, tmp_path):
        data = tmp_path / "in.txt"
        data.write_text("hello")
        manifest_path = tmp_path / "m.json"
        manifest = write_manifest(manifest_path, command="demo", args={"x": 1}, inputs=[data], seed=7)
        assert manifest["inputs"][str(data)] == sha256_file(data)
        on_disk = json.loads(manifest_path.read_text())
        assert on_disk["seed"] == 7 and on_disk["command"] == "demo"
