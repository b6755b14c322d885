"""File formats: snapshot datasets, model files, score tables, reports, manifests.

Datasets are JSONL (one record per example, its labels as per-class counts)
with a small JSON header sidecar carrying the format version and the class
count. Model files are versioned JSON: one packed table of the distinct
probability rows, which each mixture lists by packed index; floats survive
the round trip bit-exactly. Every CLI run records a manifest
with its arguments, seeds, and input hashes so it can be reproduced.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json
import math
import secrets
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .calibrator import CalibratedRouterModel
from .core import (
    InvalidInputError,
    LabelDistribution,
    SnapshotBatch,
    SnapshotExample,
    json_numbers,
    nan_padded,
    normalize_simplex,
    simplex_error,
    simplex_ok,
)
from .evaluation import CostSweep, RoutingCurve
from .partition import PartitionSpec, fitted_bins

DATASET_FORMAT = "snapshot-dataset"
MODEL_FORMAT = "hoc-router-model"


def header_path(dataset_path: str | Path) -> Path:
    return Path(str(dataset_path) + ".header.json")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

# Dataset lines decoded and checked (or written) together. The decoded JSON
# of a chunk is many times the size of the columns it becomes, so chunks stay
# small.
INGEST_CHUNK_LINES = 256


def write_dataset(path: str | Path, examples: SnapshotBatch | Sequence[SnapshotExample]) -> None:
    """Write a version-2 dataset and its header sidecar, one record per row;
    a row's labels are written as its per-class ``label_counts``. Records are
    taken as well as a batch, and turned into one by ``from_examples``."""
    if not examples:
        raise InvalidInputError("refusing to write an empty dataset")
    batch = examples if isinstance(examples, SnapshotBatch) else SnapshotBatch.from_examples(examples)
    header = {"format": DATASET_FORMAT, "version": 2, "num_classes": batch.num_classes}
    header_path(path).write_text(json.dumps(header, indent=2) + "\n", encoding="utf-8")
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(batch), INGEST_CHUNK_LINES):
            rows = slice(start, start + INGEST_CHUNK_LINES)
            absent = [None] * len(batch.ids[rows])
            features = absent if batch.features is None else batch.features[rows].tolist()
            p_stars = absent if batch.p_star is None else batch.p_star[rows].tolist()
            lines = []
            for eid, probs, counts, row_features, p_star in zip(
                batch.ids[rows], batch.probs[rows].tolist(), batch.counts[rows].tolist(), features, p_stars
            ):
                record: dict = {"id": eid, "weak_probs": probs, "label_counts": counts}
                row_features = [v for v in row_features or () if not math.isnan(v)]
                if row_features:
                    record["features"] = row_features
                if p_star is not None and not math.isnan(p_star[0]):
                    record["p_star"] = p_star
                lines.append(json.dumps(record) + "\n")
            fh.write("".join(lines))


def _record_error(lineno: int, field: str, message: str, last: int | None = None) -> InvalidInputError:
    where = f"line {lineno}" if last in (None, lineno) else f"lines {lineno}-{last}"
    return InvalidInputError(f"{where}: field {field!r}: {message}")


def _decode(line: str, lineno: int):
    try:
        return json.loads(line)
    except (ValueError, RecursionError) as err:  # bad JSON, an integer too long, or nested too deeply
        raise _record_error(lineno, "-", f"invalid JSON ({err})") from None


def _vector(record: dict, field: str, lineno: int) -> np.ndarray:
    values = record[field]
    if type(values) is list and json_numbers(values):
        with suppress(OverflowError):  # an integer beyond float range
            return np.asarray(values, dtype=float)
    raise _record_error(lineno, field, "must be a flat list of numbers")


def _distribution(record: dict, field: str, num_classes: int, lineno: int) -> LabelDistribution:
    probs = _vector(record, field, lineno)
    if probs.size != num_classes:
        raise _record_error(lineno, field, f"expected {num_classes} entries")
    try:
        return LabelDistribution(probs)
    except InvalidInputError as err:
        raise _record_error(lineno, field, str(err)) from None


def _check_fields(
    record, num_classes: int, lineno: int, required: tuple[str, ...]
) -> tuple[LabelDistribution, np.ndarray | None]:
    """``parse_query``'s check of a decoded record, held equal to ``_read_columns``:
    an object holding ``required``, ``id`` a string or a (non-bool) integer,
    ``weak_probs`` a distribution over ``num_classes``, and ``features``, when
    present, a list of finite numbers. Returns the prediction and the features."""
    if not isinstance(record, dict):
        raise _record_error(lineno, "-", "record is not a JSON object")
    for field in required:
        if field not in record:
            raise _record_error(lineno, field, "missing")
    if type(record["id"]) not in (str, int):
        raise _record_error(lineno, "id", "must be a string or an integer")
    weak = _distribution(record, "weak_probs", num_classes, lineno)
    if record.get("features") is None:
        return weak, None
    features = _vector(record, "features", lineno)
    if not np.isfinite(features).all():
        raise _record_error(lineno, "features", "must be finite")
    return weak, features


def _distributions(values: list, field: str, num_classes: int, refuse) -> np.ndarray:
    """``_distribution`` over a column: one normalized row per value, or the
    error ``refuse`` makes for ``field`` and the first rule a value breaks."""
    probs = None
    with suppress(TypeError, ValueError, OverflowError):  # a value not a list, rows of unequal size, a huge integer
        probs = np.array(values, dtype=float) if json_numbers(chain.from_iterable(values)) else None
    if probs is None:
        raise refuse(field, "must be a flat list of numbers")
    if probs.shape != (len(values), num_classes):
        raise refuse(field, f"expected {num_classes} entries")
    ok = simplex_ok(probs)
    if not ok.all():
        raise refuse(field, str(simplex_error(probs[ok.argmin()])))
    return normalize_simplex(probs)


def _flat_rows(rows: list) -> tuple[list, np.ndarray]:
    """The items of ``rows``, lists or None (no items), in one flat list, and
    the number of items in each row; every count is -1 when a row is neither."""
    if rows.count(None) == len(rows):
        return [], np.zeros(len(rows), dtype=np.intp)
    rows = [[] if row is None else row for row in rows]
    if not all(type(row) is list for row in rows):
        return [], np.full(len(rows), -1)
    return list(chain.from_iterable(rows)), np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))


def _decode_lines(lines: list[str]) -> list:
    """``json.loads`` of each line, in one call on the lines joined into an
    array with a fresh random string between each two. No JSON string holds a
    raw newline or that string, so it lands at every odd position of ``2n - 1``
    items only when each line is one JSON value; otherwise line by line."""
    separator = secrets.token_hex(16)
    with suppress(ValueError, RecursionError):  # bad JSON, or the added array level passed the recursion limit
        items = json.loads("[" + f'\n,"{separator}",'.join(lines) + "]")
        if len(items) == 2 * len(lines) - 1 and items[1::2].count(separator) == len(lines) - 1:
            return items[::2]
    return [json.loads(line) for line in lines]


def _read_columns(
    lines: Sequence, first_lineno: int, num_classes: int, min_features: int = 0, version: int | None = None
):
    """The columns of the nonblank ``lines`` (the first is line ``first_lineno``):
    the ids, the normalized ``weak_probs``, every feature in one flat array with
    each record's count and, for a dataset of format ``version``, per-class
    label counts (int64) and ``p_star`` rows (NaN where a record has none); None
    when all are blank. These are the dataset and query record rules, each
    raising ``InvalidInputError`` that names its field; refused lines are read
    again as batches of one, so the error names the first bad line too."""
    refuse = lambda field, message: _record_error(first_lineno, field, message, first_lineno + len(lines) - 1)
    try:
        try:  # decode, then gather every required field before any rule on a value
            records = _decode_lines([line for line in lines if line.strip()])
            if not records:
                return None
            ids = [record["id"] for record in records]
            weak = [record["weak_probs"] for record in records]
            labels = [] if version is None else [record[("labels", "label_counts")[version - 1]] for record in records]
        except (ValueError, RecursionError) as err:  # bad JSON, an integer too long, or nested too deeply
            raise refuse("-", f"invalid JSON ({err})") from None
        except TypeError:  # a JSON value that is not an object, indexed by a name
            raise refuse("-", "record is not a JSON object") from None
        except KeyError as err:
            raise refuse(err.args[0], "missing") from None
        if not {str, int}.issuperset(map(type, ids)):
            raise refuse("id", "must be a string or an integer")
        probs = _distributions(weak, "weak_probs", num_classes, refuse)
        given = [record.get("features") for record in records]
        values, lengths = _flat_rows(given)
        features = None
        with suppress(OverflowError):  # an integer beyond float range
            features = np.array(values, dtype=float) if json_numbers(values) and lengths.min() >= 0 else None
        if features is None:
            raise refuse("features", "must be a flat list of numbers")
        if not np.isfinite(features).all():
            raise refuse("features", "must be finite")
        if lengths.min() < min_features:
            short = given[(lengths < min_features).argmax()]
            raise refuse("features", "missing" if short is None else f"expected at least {min_features} entries")
        ids = list(map(str, ids))
        if version is None:
            return ids, probs, features, lengths
        if version == 1:
            labels, sizes = _flat_rows(labels)
            if sizes.min() < 1:
                raise refuse("labels", "must be a nonempty list")
            if list(map(type, labels)).count(int) != len(labels):
                raise refuse("labels", "must be a flat list of integers")
            classes = np.full(1, -1)  # an index beyond intp is out of range too
            with suppress(OverflowError):
                classes = np.fromiter(labels, dtype=np.intp, count=len(labels))
            if classes.min() < 0 or classes.max() >= num_classes:
                raise refuse("labels", f"class index out of range for {num_classes} classes")
            cells = np.repeat(np.arange(len(records)) * num_classes, sizes) + classes
            counts = np.bincount(cells, minlength=len(records) * num_classes).reshape(-1, num_classes)
        else:
            if any("labels" in record for record in records):
                raise refuse("label_counts", "given together with 'labels'")
            values, sizes = _flat_rows(labels)
            if (sizes != num_classes).any() or list(map(type, values)).count(int) != len(values):
                raise refuse("label_counts", f"must be a list of {num_classes} integers")
            counts = np.full((1, num_classes), -1)  # a count beyond int64 is refused too
            with suppress(OverflowError):
                counts = np.fromiter(values, dtype=np.int64, count=len(values)).reshape(-1, num_classes)
            totals = counts.cumsum(axis=1)  # with no count negative, a partial sum past int64 wraps below 0
            if counts.min() < 0 or totals.min() < 0 or not totals[:, -1].all():
                raise refuse("label_counts", "counts must be >= 0 with a total >= 1 that fits in int64")
        p_star = np.full((len(records), num_classes), np.nan)
        present = [i for i, record in enumerate(records) if record.get("p_star") is not None]
        if present:
            p_star[present] = _distributions([records[i]["p_star"] for i in present], "p_star", num_classes, refuse)
        return ids, probs, features, lengths, counts, p_star
    except InvalidInputError:
        if len(lines) > 1:
            for lineno, line in enumerate(lines, first_lineno):
                if line.strip():
                    _read_columns([line], lineno, num_classes, min_features, version)
        raise


def _num_classes(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 2:
        raise InvalidInputError("must be an integer >= 2")
    return value


def _version(record: dict, accepted: tuple[int, ...], source: Path) -> int:
    """``record``'s ``version``, which must be a JSON integer (not a bool or
    a float) in ``accepted``; otherwise ``InvalidInputError`` names ``source``
    and the field."""
    version = record.get("version")
    if type(version) is not int or version not in accepted:
        found = "missing" if "version" not in record else f"unsupported version {json.dumps(version)}"
        readable = ", ".join(map(str, accepted))
        raise InvalidInputError(f"{source}: field 'version': {found} (this reader takes {readable})")
    return version


def read_header(path: str | Path) -> dict:
    """The header sidecar of the dataset at ``path``: format version 1 or 2
    and ``num_classes``, checked."""
    hp = header_path(path)
    if not hp.exists():
        raise InvalidInputError(f"missing dataset header sidecar {hp}")
    try:
        header = json.loads(hp.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # ValueError: bad JSON or not UTF-8
        raise InvalidInputError(f"{hp}: invalid JSON ({err})") from None
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise InvalidInputError(f"{hp}: not a {DATASET_FORMAT} header")
    _version(header, (1, 2), hp)
    if "num_classes" not in header:
        raise InvalidInputError(f"{hp}: header lacks num_classes")
    try:
        _num_classes(header["num_classes"])
    except InvalidInputError as err:
        raise InvalidInputError(f"{hp}: field 'num_classes': {err}") from None
    return header


def ingest(path: str | Path) -> SnapshotBatch:
    """The records of a dataset file of format version 1 or 2, in file order,
    as one batch. Lines are decoded and checked ``INGEST_CHUNK_LINES`` at a
    time; a malformed record fails with its line number and the offending
    field."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"dataset file {path} does not exist")
    header = read_header(path)
    num_classes, version = header["num_classes"], header["version"]
    chunks = []
    try:
        with open(path, encoding="utf-8") as fh:
            lineno = 1
            while lines := list(islice(fh, INGEST_CHUNK_LINES)):
                columns = _read_columns(lines, lineno, num_classes, version=version)
                lineno += len(lines)
                if columns is not None:
                    chunks.append(columns)
    except UnicodeDecodeError as err:
        raise InvalidInputError(f"{path}: not UTF-8 text ({err})") from None
    if not chunks:
        raise InvalidInputError(f"dataset file {path} holds no records")
    ids, probs, features, lengths, counts, p_star = zip(*chunks)
    return SnapshotBatch(
        ids=list(chain.from_iterable(ids)),
        probs=np.concatenate(probs),
        counts=np.concatenate(counts),
        features=nan_padded(np.concatenate(features), np.concatenate(lengths)),
        p_star=np.concatenate(p_star),
    )


@dataclass(frozen=True)
class RouteQuery:
    """A routing-time record: prediction and optional features, no labels."""

    id: str
    weak_pred: LabelDistribution
    features: np.ndarray | None = None


def parse_query(line: str, num_classes: int, lineno: int) -> RouteQuery:
    record = _decode(line, lineno)
    weak, features = _check_fields(record, num_classes, lineno, ("id", "weak_probs"))
    return RouteQuery(id=str(record["id"]), weak_pred=weak, features=features)


@dataclass(frozen=True, eq=False)
class QueryBatch:
    """Routing queries as columns, row for row."""

    ids: list[str]
    probs: np.ndarray  # (n, K) validated predictions
    features: np.ndarray | None  # (n, F), NaN past a row's own features; None when no row has any


def parse_queries(lines: Sequence[str], num_classes: int, first_lineno: int = 1, min_features: int = 0) -> QueryBatch:
    """Routing queries from consecutive JSONL lines, the first numbered
    ``first_lineno``, blank lines skipped: ``parse_query``'s rules, and at least
    ``min_features`` features, checked once over the batch by ``_read_columns``."""
    columns = _read_columns(lines, first_lineno, num_classes, min_features)
    if columns is None:
        return QueryBatch(ids=[], probs=np.empty((0, num_classes)), features=None)
    ids, probs, features, lengths = columns
    return QueryBatch(ids=ids, probs=probs, features=nan_padded(features, lengths))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _row_table(model: CalibratedRouterModel) -> tuple[np.ndarray, list[dict]]:
    """The distinct rows of ``model`` by bit pattern, in order of first
    appearance, and each segment (the bins by id, then the global mixture) as
    its ``preds`` and ``means`` indices into them, its preds first."""
    row_bytes = np.dtype((np.void, model.preds.itemsize * model.num_classes))
    # the model's matrices are C-contiguous, so each row's bytes are one void item
    keys = {name: getattr(model, name).view(row_bytes).ravel().tolist() for name in ("preds", "means")}
    first: dict[bytes, int] = {}  # a row's bytes -> its index in the table
    records = []
    for j in [*sorted(range(len(model.bins)), key=model.bins.__getitem__), len(model.bins)]:
        segment = slice(model.offsets[j], model.offsets[j + 1])
        records.append({name: [first.setdefault(k, len(first)) for k in rows[segment]] for name, rows in keys.items()})
    return np.frombuffer(b"".join(first)).reshape(len(first), -1), records


def _row_matrix(values, name: str, num_classes: int) -> np.ndarray:
    """``values`` (JSON lists of numbers, or a version-3 or 4 table) as a nonempty
    ``(n, num_classes)`` matrix of probability vectors."""
    try:
        rows = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if (
        rows is None
        or rows.ndim != 2
        or rows.shape[0] == 0
        or rows.shape[1] != num_classes
        or (isinstance(values, list) and not json_numbers(chain.from_iterable(values)))
    ):
        raise InvalidInputError(f"{name}must be a nonempty list of rows of {num_classes} numbers")
    ok = simplex_ok(rows)
    if not ok.all():
        raise InvalidInputError(f"{name}row {int(np.argmin(ok))} is not a probability vector")
    return rows


def _base64(text) -> bytes:
    """The bytes ``text`` encodes in padded base64; none when it is not such a string."""
    try:
        return base64.b64decode(text, validate=True) if isinstance(text, str) else b""
    except ValueError:  # not base64, or not ASCII
        return b""


def _packed_rows(text, num_classes: int) -> np.ndarray:
    """A version-3 or 4 row table: base64 text of its bytes, row-major, with
    ``num_classes`` little-endian float64 numbers per row."""
    packed = _base64(text)
    if not packed or len(packed) % (8 * num_classes):
        raise InvalidInputError(f"must be base64 of one or more rows of {num_classes} little-endian float64 numbers")
    return np.frombuffer(packed, "<f8").reshape(-1, num_classes)


def _index_type(size: int) -> np.dtype:
    """The type of a version-4 index into a table of ``size`` rows: a
    little-endian unsigned integer of 1, 2 or 4 bytes, the narrowest that
    holds ``size - 1``."""
    return np.dtype("<u1" if size <= 1 << 8 else "<u2" if size <= 1 << 16 else "<u4")


def _packed_indices(text, index_type: np.dtype, name: str) -> memoryview:
    """A version-4 index list: base64 text of one or more ``index_type`` row
    indices, as its bytes viewed as that many items; ``load_model`` joins
    the lists of a column before numpy reads them."""
    packed, width = _base64(text), index_type.itemsize
    if not packed or len(packed) % width:
        raise InvalidInputError(f"{name} must be base64 of one or more little-endian {width}-byte row indices")
    return memoryview(packed).cast(index_type.char)


def _row_indices(values, name: str) -> np.ndarray:
    """A version-2 or 3 index list: a nonempty flat list of JSON integers, as
    an index column. An integer beyond int64 keeps its value (the column is
    then of Python objects), so that the range check names it."""
    if not isinstance(values, list) or not values or set(map(type, values)) != {int}:
        raise InvalidInputError(f"{name} must be a nonempty flat list of integer row indices")
    try:
        return np.fromiter(values, dtype=np.intp, count=len(values))
    except OverflowError:
        return np.array(values, dtype=object)


def _mixture(record, decode, name: str = "") -> tuple:
    """The mixture's 'preds' and 'means', each read by ``decode(value,
    name)`` as the rows themselves (version 1) or as its indices into the
    table of rows (versions 2 to 4); the two must be of one length."""
    if not isinstance(record, dict) or "preds" not in record or "means" not in record:
        raise InvalidInputError(f"{name}a mixture must be an object with 'preds' and 'means'")
    preds, means = (decode(record[key], f"{name}{key!r}") for key in ("preds", "means"))
    if len(preds) != len(means):
        raise InvalidInputError(f"{name}{len(preds)} 'preds' rows for {len(means)} 'means' rows")
    return preds, means


def save_model(path: str | Path, model: CalibratedRouterModel) -> None:
    """Write ``model`` as a version-4 file: ``rows`` packs the distinct rows
    of all mixtures, and each mixture's ``preds`` and ``means`` pack their
    indices into them at the width ``_index_type`` gives for the table."""
    rows, records = _row_table(model)
    index_type = _index_type(len(rows))
    pack = lambda index: base64.b64encode(np.asarray(index, dtype=index_type).tobytes()).decode("ascii")
    records = [{key: pack(index) for key, index in record.items()} for record in records]
    payload = {
        "format": MODEL_FORMAT,
        "version": 4,
        "num_classes": model.num_classes,
        "recalibrated": model.recalibrated,
        "partition": model.partition.to_record(),
        "rows": base64.b64encode(rows.astype("<f8").tobytes()).decode("ascii"),
        "bins": dict(zip(sorted(model.bins), records)),
        "global": records[-1],
        "centroids": {b: c.probs.tolist() for b, c in sorted(model.centroids.items())},
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False) + "\n", encoding="utf-8")


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise InvalidInputError("must be true or false")
    return value


def _bin_table(table, partition: PartitionSpec, read) -> dict:
    """``read(value, name)`` of every value of an object keyed by bins of
    ``partition``, ``name`` being the bin's prefix for error messages."""
    if not isinstance(table, dict):
        raise InvalidInputError("must be an object keyed by bin id")
    unknown = table.keys() - set(fitted_bins(partition))
    if unknown:
        raise InvalidInputError(f"bin {min(unknown)!r} is not a bin of the partition")
    return {bin_id: read(value, f"bin {bin_id!r}: ") for bin_id, value in table.items()}


def _centroid(value, name: str) -> list:
    if type(value) is not list or not json_numbers(value):
        raise InvalidInputError(f"{name}must be a flat list of numbers")
    return value


def load_model(path: str | Path) -> CalibratedRouterModel:
    """A model written by ``save_model``, in format version 1, 2, 3 or 4;
    they differ only in how ``rows`` and the index lists are encoded. Every
    mixture's shape and type is checked before any index's range, and a bad
    index is named in the first segment with one (bins in file order, then
    ``global``; preds before means). A file that is not valid JSON, or lacks
    a field, or whose rows are not probability vectors over ``num_classes``
    classes, or whose mixtures index rows that do not exist, or that names a
    bin its partition cannot produce, or whose recalibrated segments store
    more than one prediction, or whose ``centroids`` are not each bin's
    stored prediction (``{}`` for a raw model), fails with
    ``InvalidInputError`` naming the file and field."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"model file {path} does not exist")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # ValueError: bad JSON or not UTF-8
        raise InvalidInputError(f"{path}: field '-': invalid JSON ({err})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise InvalidInputError(f"{path}: not a {MODEL_FORMAT} file")
    version = _version(payload, (1, 2, 3, 4), path)

    def field(name: str, read):
        if name not in payload:
            raise InvalidInputError(f"{path}: field {name!r}: missing")
        try:
            return read(payload[name])
        except InvalidInputError as err:
            raise InvalidInputError(f"{path}: field {name!r}: {err}") from None
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as err:
            raise InvalidInputError(f"{path}: field {name!r}: malformed ({type(err).__name__}: {err})") from None

    num_classes = field("num_classes", _num_classes)
    partition = field("partition", PartitionSpec.from_record)
    unpack = (lambda text: _packed_rows(text, num_classes)) if version >= 3 else (lambda values: values)
    rows = field("rows", lambda value: _row_matrix(unpack(value), "", num_classes)) if version != 1 else None
    join = np.concatenate  # the version picks how each mixture's 'preds' and 'means' are decoded and joined
    if version == 1:
        decode = lambda values, name: _row_matrix(values, f"{name} ", num_classes)
    elif version == 4:
        index_type = _index_type(len(rows))
        decode = lambda text, name: _packed_indices(text, index_type, name)
        join = lambda lists: np.frombuffer(b"".join(lists), index_type)
    else:
        decode = _row_indices
    read_mixture = lambda record, name="": _mixture(record, decode, name)
    bins = field("bins", lambda table: _bin_table(table, partition, read_mixture))
    segments = [*bins.values(), field("global", read_mixture)]
    columns = [join(column) for column in zip(*segments)]
    offsets = np.cumsum([0, *(len(p) for p, _ in segments)])
    if rows is not None:  # one range check and one take of each index column
        bad = [
            (int(np.searchsorted(offsets, i, "right")) - 1, j, i)
            for j, index in enumerate(columns)
            if index.min() < 0 or index.max() >= len(rows)  # two reductions clear a valid column
            for i in np.flatnonzero((index < 0) | (index >= len(rows)))[:1]
        ]
        if bad:  # a column's first bad index lies in the first segment with one; preds before means, as read
            segment, j, i = min(bad)
            where = f"field 'bins': bin {tuple(bins)[segment]!r}: " if segment < len(bins) else "field 'global': "
            raise InvalidInputError(f"{path}: {where}{('preds', 'means')[j]!r} index {columns[j][i]} is out of range")
        columns = [rows.take(index, axis=0) for index in columns]
    preds, means = columns
    recalibrated = field("recalibrated", _flag)
    centroids = field("centroids", lambda table: _bin_table(table, partition, _centroid))
    try:
        model = CalibratedRouterModel(partition, tuple(bins), offsets, preds, means, recalibrated)
    except InvalidInputError as err:  # only a recalibrated segment that stores two predictions
        name = "bins" if str(err).startswith("bin ") else "global"
        raise InvalidInputError(f"{path}: field {name!r}: {err}") from None
    stored = {b: c.probs.tolist() for b, c in model.centroids.items()}
    if centroids != stored:  # the served predictions are the stored ones; this field repeats them
        wrong = min(b for b in centroids.keys() | stored.keys() if centroids.get(b) != stored.get(b))
        rule = "the bin's stored prediction; only a bin with rows has one" if recalibrated else "absent in a raw model"
        raise InvalidInputError(f"{path}: field 'centroids': bin {wrong!r}: must be {rule}")
    return model


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def read_scores_csv(path: str | Path) -> dict[str, float]:
    """External priority scores: a CSV of (id, score) rows, header optional.
    A file that is not UTF-8 text, a row without an id and a finite numeric
    score, or an id given twice fails with ``InvalidInputError`` naming the
    file and line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise InvalidInputError(f"{path}: line {lineno}: not UTF-8 text") from None
    table: dict[str, float] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if not row or (row[0] == "id" and not table):
                continue
            if row[0] in table:
                raise InvalidInputError(f"{path}: line {reader.line_num}: id {row[0]!r} given twice")
            table[row[0]] = float(row[1]) if len(row) > 1 else math.nan
            if not math.isfinite(table[row[0]]):
                raise ValueError("score is not finite")
    except InvalidInputError:
        raise
    except (ValueError, csv.Error):  # csv.Error: a field beyond csv.field_size_limit
        raise InvalidInputError(f"{path}: line {reader.line_num}: score rows need (id, finite score)") from None
    if not table:
        raise InvalidInputError(f"{path}: no score rows")
    return table


def write_curves_csv(path: str | Path, curves: Iterable[RoutingCurve]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "loss", "fraction", "mean_loss"])
        for curve in curves:
            for q, value in zip(curve.fractions, curve.mean_losses):
                writer.writerow([curve.policy, curve.loss, repr(float(q)), repr(float(value))])


def write_sweep_csv(path: str | Path, sweep: CostSweep) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "policy", "mean_cost"])
        for j, beta in enumerate(sweep.betas.tolist()):
            for policy, costs in sweep.mean_costs.items():
                writer.writerow([repr(sweep.alpha), repr(beta), policy, repr(float(costs[j]))])


def write_manifest(
    path: str | Path,
    command: str,
    args: dict,
    inputs: Sequence[str | Path] = (),
    outputs: Sequence[str | Path] = (),
    seed: int | None = None,
) -> dict:
    """Record everything needed to reproduce a run: arguments, seed, and
    content hashes of every input file."""
    manifest = {
        "command": command,
        "args": json_value({k: (str(v) if isinstance(v, Path) else v) for k, v in args.items()}),
        "seed": seed,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8")
    return manifest


def json_value(value):
    """``value`` with every float that is not finite written as its text
    (``"inf"``, ``"-inf"``, ``"nan"``), so that strict JSON can hold it."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(float(value))
    if isinstance(value, (list, tuple)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    return value
