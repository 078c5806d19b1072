"""On-disk schemas: model manifests, prediction logs, score logs, weight dumps.

All text formats are JSON Lines (UTF-8, one object per line). Prediction and
score logs carry a single header line with file-level fields; manifests are
headerless. Weight dumps use a small self-describing binary layout. Parsed
values are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Optional

import numpy as np

from .errors import SchemaError

_EPS = 1e-9

WEIGHT_DUMP_MAGIC = b"SGWD0001"

# Decodes one JSON value at the start of a string and returns it with its end;
# skips the per-call wrapping of json.loads on the hot path of JSONL parsing.
_raw_decode = json.JSONDecoder().raw_decode


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and atomic rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class ModelRecord:
    model_id: str
    arch: str
    train_domain: str
    hyperparams: dict
    converged: bool

    def to_json_obj(self) -> dict:
        return {
            "model_id": self.model_id,
            "arch": self.arch,
            "train_domain": self.train_domain,
            "hyperparams": self.hyperparams,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class ExampleEntry:
    """One example of a prediction log, as a row (labels None where absent)."""

    example_id: str
    neighborhood_predictions: tuple[int, ...]
    true_label: Optional[int] = None
    base_prediction: Optional[int] = None


class _ExampleError(SchemaError):
    """An example breaks the prediction-log schema; ``index`` is its position."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


_LOG_ARRAYS = ("predictions", "lengths", "true_labels", "base_predictions")


def _example_fault(k, predictions, true_label, base_prediction):
    """What makes one example (Python values, None for an absent label)
    invalid, or None."""
    if len(predictions) == 0:
        return "empty neighborhood_predictions"
    for p in predictions:
        if type(p) is not int:
            return f"prediction {p!r} is not an integer"
        if not 0 <= p < k:
            return f"prediction {p} out of range [0, {k})"
    for name, v in (("true_label", true_label), ("base_prediction", base_prediction)):
        if v is None:
            continue
        if type(v) is not int:
            return f"{name} {v!r} is not an integer"
        if not 0 <= v < k:
            return f"{name} {v} out of range [0, {k})"
    return None


@dataclass(frozen=True, eq=False)
class NeighborhoodPredictionLog:
    """A neighborhood prediction log held as arrays.

    Example ``i`` is ``example_ids[i]`` with the ``lengths[i]`` predictions
    ``predictions[offsets[i]:offsets[i + 1]]``; neighborhoods may differ in
    length. ``true_labels`` and ``base_predictions`` hold -1 where an example
    has no such field. The arrays are read-only: ``predictions`` of the
    narrowest unsigned type that holds ``num_classes - 1``, the others int64.
    Inputs of another type, or writeable ones, are copied.
    """

    model_id: str
    test_domain: str
    num_classes: int
    example_ids: tuple[str, ...]
    predictions: np.ndarray
    lengths: np.ndarray
    true_labels: np.ndarray
    base_predictions: np.ndarray
    meta: dict = field(default_factory=dict)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.num_classes
        if k < 2:
            raise SchemaError(f"num_classes must be >= 2, got {k}")
        if not set(map(type, self.example_ids)) <= {str}:
            raise SchemaError("example ids must be strings")
        for name in _LOG_ARRAYS:
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
                raise SchemaError(f"{name} must be a 1-D integer array")
            object.__setattr__(self, name, arr)
        m = len(self.example_ids)
        if not len(self.lengths) == len(self.true_labels) == len(self.base_predictions) == m:
            raise SchemaError("every per-example array needs one entry per example id")
        if (self.lengths < 0).any() or self.lengths.sum() != len(self.predictions):
            raise SchemaError("lengths must be non-negative and sum to the number of predictions")
        offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(self.lengths, out=offsets[1:])
        offsets.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)

        bad = self.lengths == 0
        if len(self.predictions) and not 0 <= self.predictions.min() <= self.predictions.max() < k:
            out_of_range = (self.predictions < 0) | (self.predictions >= k)
            bad[self.example_index()[out_of_range]] = True
        for labels in (self.true_labels, self.base_predictions):
            bad |= (labels < -1) | (labels >= k)
        if bad.any():
            i = int(bad.argmax())
            ex = self.examples[i]
            fault = _example_fault(
                k, ex.neighborhood_predictions, ex.true_label, ex.base_prediction
            )
            raise _ExampleError(i, f"example {ex.example_id!r}: {fault}")

        # Predictions are stored in the narrowest type that holds every class
        # (uint8 for up to 256 classes): a sweep keeps all of its logs in
        # memory at once.
        for name in _LOG_ARRAYS:
            arr = getattr(self, name)
            dtype = np.min_scalar_type(k - 1) if name == "predictions" else np.int64
            if arr.dtype != dtype or arr.flags.writeable:
                arr = arr.astype(dtype)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @classmethod
    def from_examples(cls, model_id, test_domain, num_classes, examples, meta=None):
        """A log from ``ExampleEntry`` rows of Python ints."""
        examples = tuple(examples)
        return _log_from_values(
            model_id,
            test_domain,
            num_classes,
            [ex.example_id for ex in examples],
            [ex.neighborhood_predictions for ex in examples],
            [ex.true_label for ex in examples],
            [ex.base_prediction for ex in examples],
            meta or {},
        )

    @property
    def examples(self) -> "_ExampleRows":
        """The examples as a lazy, sized sequence of ``ExampleEntry`` rows."""
        return _ExampleRows(self)

    def example_index(self) -> np.ndarray:
        """The example each prediction belongs to, aligned with ``predictions``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)

    def __eq__(self, other):
        if not isinstance(other, NeighborhoodPredictionLog):
            return NotImplemented
        return (
            (self.model_id, self.test_domain, self.num_classes, self.example_ids, self.meta)
            == (other.model_id, other.test_domain, other.num_classes, other.example_ids,
                other.meta)
            and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in _LOG_ARRAYS)
        )


class _ExampleRows(Sequence):
    """Row view of a prediction log; builds each ``ExampleEntry`` on access."""

    def __init__(self, log: NeighborhoodPredictionLog):
        self._log = log

    def __len__(self):
        return len(self._log.example_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        log = self._log
        i = range(len(self))[i]
        start, end = log.offsets[i], log.offsets[i + 1]
        true, base = int(log.true_labels[i]), int(log.base_predictions[i])
        return ExampleEntry(
            example_id=log.example_ids[i],
            neighborhood_predictions=tuple(log.predictions[start:end].tolist()),
            true_label=None if true == -1 else true,
            base_prediction=None if base == -1 else base,
        )

    def __eq__(self, other):
        if not isinstance(other, (_ExampleRows, tuple, list)):
            return NotImplemented
        return tuple(self) == tuple(other)


def _int64_column(values, absent_ok=False):
    """``values`` as decoded from JSON as an int64 array, None (an absent
    label, allowed when ``absent_ok``) as -1. Returns None if a value is not
    a JSON integer, is negative or does not fit in int64."""
    if not set(map(type, values)) <= ({int, type(None)} if absent_ok else {int}):
        return None
    try:
        arr = np.array(
            [-1 if v is None else v for v in values] if absent_ok else values,
            dtype=np.int64,
        )
    except OverflowError:
        return None
    if np.count_nonzero(arr < 0) != (values.count(None) if absent_ok else 0):
        return None
    arr.flags.writeable = False
    return arr


def _log_from_values(model_id, test_domain, k, ids, rows, true_labels, base_predictions,
                     meta):
    """A log from per-example Python values as JSON decodes them (None for
    an absent label). Raises ``_ExampleError`` for the first example whose
    values are not integers in range."""
    columns = (
        _int64_column(list(chain.from_iterable(rows))),
        _int64_column(true_labels, absent_ok=True),
        _int64_column(base_predictions, absent_ok=True),
    )
    if any(c is None for c in columns):
        for i, row in enumerate(rows):
            fault = _example_fault(k, row, true_labels[i], base_predictions[i])
            if fault is not None:
                raise _ExampleError(i, f"example {ids[i]!r}: {fault}")
    predictions, true_arr, base_arr = columns
    return NeighborhoodPredictionLog(
        model_id=model_id,
        test_domain=test_domain,
        num_classes=k,
        example_ids=tuple(ids),
        predictions=predictions,
        lengths=np.array(list(map(len, rows)), dtype=np.int64),
        true_labels=true_arr,
        base_predictions=base_arr,
        meta=meta,
    )


@dataclass(frozen=True)
class ScoreEntry:
    example_id: str
    predicted_label: int
    max_confidence: float
    neg_entropy: float
    true_label: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj = {
            "example_id": self.example_id,
            "predicted_label": self.predicted_label,
            "max_confidence": self.max_confidence,
            "neg_entropy": self.neg_entropy,
        }
        if self.true_label is not None:
            obj["true_label"] = self.true_label
        return obj


@dataclass(frozen=True)
class ScoreLog:
    model_id: str
    domain: str
    split: str  # "validation" | "test"
    entries: tuple[ScoreEntry, ...]
    num_classes: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.split not in ("validation", "test"):
            raise SchemaError(f"split must be 'validation' or 'test', got {self.split!r}")
        k = self.num_classes
        if k is not None and k < 2:
            raise SchemaError(f"num_classes must be >= 2, got {k}")
        for e in self.entries:
            lo = (1.0 / k - _EPS) if k else 0.0
            if not lo <= e.max_confidence <= 1.0 + _EPS:
                raise SchemaError(
                    f"entry {e.example_id!r}: max_confidence {e.max_confidence} out of range"
                )
            hi_mag = math.log(k) + _EPS if k else math.inf
            if not -hi_mag <= e.neg_entropy <= _EPS:
                raise SchemaError(
                    f"entry {e.example_id!r}: neg_entropy {e.neg_entropy} out of range"
                )
            if k is not None and not 0 <= e.predicted_label < k:
                raise SchemaError(
                    f"entry {e.example_id!r}: predicted_label {e.predicted_label} out of range"
                )


@dataclass(frozen=True)
class WeightDump:
    model_id: str
    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.layers:
            raise SchemaError("weight dump must contain at least one layer")
        for i, w in enumerate(self.layers):
            if w.ndim != 2 or w.size == 0:
                raise SchemaError(f"layer {i}: expected non-empty 2-D matrix")
            if not np.all(np.isfinite(w)):
                raise SchemaError(f"layer {i}: non-finite entries")


def _iter_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as e:
                raise SchemaError(f"malformed JSON: {e.msg}", path=path, line=lineno)
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", path=path, line=lineno)
            yield lineno, obj


def _require(obj, key, path, lineno, types=None):
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}", path=path, line=lineno)
    v = obj[key]
    if types is not None and not isinstance(v, types):
        raise SchemaError(f"field {key!r} has wrong type", path=path, line=lineno)
    return v


def parse_manifest(path) -> list[ModelRecord]:
    """Parse a model manifest (one record per line); rejects duplicate ids."""
    records = []
    seen = set()
    for lineno, obj in _iter_jsonl(path):
        rec = ModelRecord(
            model_id=_require(obj, "model_id", path, lineno, str),
            arch=_require(obj, "arch", path, lineno, str),
            train_domain=_require(obj, "train_domain", path, lineno, str),
            hyperparams=_require(obj, "hyperparams", path, lineno, dict),
            converged=_require(obj, "converged", path, lineno, bool),
        )
        if rec.model_id in seen:
            raise SchemaError(
                f"duplicate model_id {rec.model_id!r}", path=path, line=lineno
            )
        seen.add(rec.model_id)
        records.append(rec)
    return records


def serialize_manifest(records: Iterable[ModelRecord]) -> str:
    return "".join(_dumps(r.to_json_obj()) + "\n" for r in records)


def write_manifest(records: Iterable[ModelRecord], path) -> None:
    atomic_write_text(path, serialize_manifest(records))


def parse_prediction_log(path) -> NeighborhoodPredictionLog:
    """Parse a neighborhood prediction log (header line + one example per line)
    straight into the log's arrays; errors name path:line."""
    numbered = list(_iter_jsonl(path))
    if not numbered:
        raise SchemaError("empty file: missing header line", path=path)
    linenos, objs = zip(*numbered)
    header, body, lines = objs[0], objs[1:], linenos[1:]
    if header.get("type") != "prediction_log":
        raise SchemaError(
            "header must declare type 'prediction_log'", path=path, line=linenos[0]
        )
    model_id = _require(header, "model_id", path, linenos[0], str)
    test_domain = _require(header, "test_domain", path, linenos[0], str)
    k = _require(header, "num_classes", path, linenos[0], int)
    if type(k) is bool:
        raise SchemaError("field 'num_classes' has wrong type", path=path, line=linenos[0])

    columns = {
        key: list(map(dict.get, body, repeat(key)))
        for key in ("example_id", "neighborhood_predictions", "true_label", "base_prediction")
    }
    for key, kind in (("example_id", str), ("neighborhood_predictions", list)):
        if not set(map(type, columns[key])) <= {kind}:
            i = next(i for i, v in enumerate(columns[key]) if type(v) is not kind)
            _require(body[i], key, path, lines[i], kind)  # raises: missing or wrong type
    try:
        return _log_from_values(
            model_id,
            test_domain,
            k,
            columns["example_id"],
            columns["neighborhood_predictions"],
            columns["true_label"],
            columns["base_prediction"],
            header.get("meta", {}),
        )
    except _ExampleError as e:
        raise SchemaError(str(e), path=path, line=lines[e.index]) from None
    except SchemaError as e:
        raise SchemaError(str(e), path=path) from None


def serialize_prediction_log(log: NeighborhoodPredictionLog) -> str:
    """The log as JSON Lines; example lines are rendered from a fixed template
    that gives the same bytes as sorted-key ``json.dumps``."""
    header = {
        "type": "prediction_log",
        "model_id": log.model_id,
        "test_domain": log.test_domain,
        "num_classes": log.num_classes,
    }
    if log.meta:
        header["meta"] = log.meta
    # Indexed by label + 1, so an absent label (-1) renders as nothing.
    base_field = [""] + [f'"base_prediction":{c},' for c in range(log.num_classes)]
    true_field = [""] + [f',"true_label":{c}' for c in range(log.num_classes)]
    flat = log.predictions.tolist()
    offsets = log.offsets.tolist()
    lines = [_dumps(header)]
    lines.extend(
        f'{{{base_field[base]}"example_id":{json.dumps(ex_id)},'
        f'"neighborhood_predictions":{str(flat[start:end]).replace(" ", "")}'
        f"{true_field[true]}}}"
        for ex_id, start, end, base, true in zip(
            log.example_ids,
            offsets,
            offsets[1:],
            (log.base_predictions + 1).tolist(),
            (log.true_labels + 1).tolist(),
        )
    )
    return "\n".join(lines) + "\n"


def write_prediction_log(log: NeighborhoodPredictionLog, path) -> None:
    atomic_write_text(path, serialize_prediction_log(log))


def parse_score_log(path) -> ScoreLog:
    header = None
    entries = []
    for lineno, obj in _iter_jsonl(path):
        if header is None:
            header = obj
            if header.get("type") != "score_log":
                raise SchemaError(
                    "header must declare type 'score_log'", path=path, line=lineno
                )
            continue
        entries.append(
            ScoreEntry(
                example_id=_require(obj, "example_id", path, lineno, str),
                predicted_label=_require(obj, "predicted_label", path, lineno, int),
                max_confidence=float(_require(obj, "max_confidence", path, lineno, (int, float))),
                neg_entropy=float(_require(obj, "neg_entropy", path, lineno, (int, float))),
                true_label=obj.get("true_label"),
            )
        )
    if header is None:
        raise SchemaError("empty file: missing header line", path=path)
    try:
        return ScoreLog(
            model_id=_require(header, "model_id", path, 1, str),
            domain=_require(header, "domain", path, 1, str),
            split=_require(header, "split", path, 1, str),
            entries=tuple(entries),
            num_classes=header.get("num_classes"),
            meta=header.get("meta", {}),
        )
    except SchemaError as e:
        raise SchemaError(str(e), path=path)


def serialize_score_log(log: ScoreLog) -> str:
    header = {
        "type": "score_log",
        "model_id": log.model_id,
        "domain": log.domain,
        "split": log.split,
    }
    if log.num_classes is not None:
        header["num_classes"] = log.num_classes
    if log.meta:
        header["meta"] = log.meta
    lines = [_dumps(header)]
    lines.extend(_dumps(e.to_json_obj()) for e in log.entries)
    return "\n".join(lines) + "\n"


def write_score_log(log: ScoreLog, path) -> None:
    atomic_write_text(path, serialize_score_log(log))


def serialize_weight_dump(dump: WeightDump) -> bytes:
    """Binary layout: magic, u64 id length, utf-8 id, u64 layer count, then
    per layer u64 rows, u64 cols and row-major little-endian float64 values."""
    out = bytearray()
    out += WEIGHT_DUMP_MAGIC
    ident = dump.model_id.encode("utf-8")
    out += struct.pack("<Q", len(ident))
    out += ident
    out += struct.pack("<Q", len(dump.layers))
    for w in dump.layers:
        rows, cols = w.shape
        out += struct.pack("<QQ", rows, cols)
        out += np.ascontiguousarray(w, dtype="<f8").tobytes()
    return bytes(out)


def write_weight_dump(dump: WeightDump, path) -> None:
    atomic_write_bytes(path, serialize_weight_dump(dump))


def read_weight_dump(path) -> WeightDump:
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise SchemaError("truncated weight dump", path=path)
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(len(WEIGHT_DUMP_MAGIC)) != WEIGHT_DUMP_MAGIC:
        raise SchemaError("bad magic bytes in weight dump", path=path)
    (id_len,) = struct.unpack("<Q", take(8))
    model_id = take(id_len).decode("utf-8")
    (n_layers,) = struct.unpack("<Q", take(8))
    layers = []
    for _ in range(n_layers):
        rows, cols = struct.unpack("<QQ", take(16))
        buf = take(rows * cols * 8)
        w = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
        layers.append(w)
    if off != len(data):
        raise SchemaError("trailing bytes in weight dump", path=path)
    return WeightDump(model_id=model_id, layers=tuple(layers))


def compute_accuracy(log) -> float:
    """Top-1 accuracy of the base predictions against true labels.

    Accepts a NeighborhoodPredictionLog (base_prediction vs true_label) or a
    ScoreLog (predicted_label vs true_label).
    """
    if isinstance(log, NeighborhoodPredictionLog):
        m = len(log.example_ids)
        if m == 0:
            raise SchemaError("cannot compute accuracy of an empty log")
        missing = (log.base_predictions < 0) | (log.true_labels < 0)
        if missing.any():
            ex_id = log.example_ids[int(missing.argmax())]
            raise SchemaError(f"example {ex_id!r}: missing label, accuracy unavailable")
        return int(np.count_nonzero(log.base_predictions == log.true_labels)) / m
    if not isinstance(log, ScoreLog):
        raise TypeError(f"unsupported log type {type(log).__name__}")
    if not log.entries:
        raise SchemaError("cannot compute accuracy of an empty log")
    correct = 0
    for e in log.entries:
        if e.true_label is None or e.predicted_label is None:
            raise SchemaError(f"example {e.example_id!r}: missing label, accuracy unavailable")
        correct += int(e.predicted_label == e.true_label)
    return correct / len(log.entries)
