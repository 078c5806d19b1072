"""On-disk schemas: model manifests, prediction logs, score logs, weight dumps.

All text formats are JSON Lines (UTF-8, one object per line). Prediction and
score logs carry a single header line with file-level fields; manifests are
headerless. Weight dumps use a small self-describing binary layout. Parsed
values are immutable and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import sys
import tempfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .errors import SchemaError

_EPS = 1e-9

WEIGHT_DUMP_MAGIC = b"SGWD0001"

# What json.dumps gives for a str (with the default ensure_ascii), without the
# per-call set-up of json.dumps; the log writers call it once per line.
_json_string = json.encoder.encode_basestring_ascii

# Decodes one JSON value at the start of a string and returns it with its end;
# skips the per-call wrapping of json.loads on the hot path of JSONL parsing.
_raw_decode = json.JSONDecoder().raw_decode


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write(path, data: bytes) -> None:
    """Write data to path via a temp file and atomic rename; on any failure
    the target keeps its old bytes and the temp file is removed."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path as UTF-8 via a temp file and atomic rename."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    _atomic_write(path, data)


@dataclass(frozen=True)
class ModelRecord:
    model_id: str
    arch: str
    train_domain: str
    hyperparams: dict
    converged: bool


@dataclass(frozen=True)
class ExampleEntry:
    """One example of a prediction log, as a row (labels None where absent)."""

    example_id: str
    neighborhood_predictions: tuple[int, ...]
    true_label: Optional[int] = None
    base_prediction: Optional[int] = None


class _RowError(SchemaError):
    """A row of a log (an example or an entry) breaks its schema; ``index`` is
    its position."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


def _check_num_classes(k):
    """A class count, if given, is at least 2 and fits in an int64 label."""
    if k is not None and not 2 <= k < 2**63:
        raise SchemaError(f"num_classes must be in [2, 2**63), got {k}")


def _within(values, lo, hi):
    """Whether every value is in [lo, hi] (finite bounds, so no NaN or
    infinity is), from the array's minimum and maximum alone."""
    return not len(values) or bool(lo <= values.min() and values.max() <= hi)


def _range_fault(name, values, lo, hi, suffix=""):
    """(index, message) of the first value outside [lo, hi] (finite bounds,
    so a NaN or an infinity is outside), or None."""
    bad = ~((lo <= values) & (values <= hi))
    if bad.any():
        i = int(bad.argmax())
        return i, f"{name} {values[i].item()} out of range{suffix}"
    return None


def _raise_first(noun, ids, faults):
    """Raise a ``_RowError`` naming the row's id for the lowest row among the
    (row, message) ``faults`` (None where a check found nothing); of faults in
    one row, the first listed."""
    found = [f for f in faults if f is not None]
    if found:
        i, message = min(found, key=itemgetter(0))
        raise _RowError(i, f"{noun} {ids[i]!r}: {message}")


def _log_eq(self, other):
    """Field-wise equality of two logs of one type, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    )


_LOG_ARRAYS = ("predictions", "lengths", "true_labels", "base_predictions")


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

    __eq__ = _log_eq

    def __post_init__(self):
        k = self.num_classes
        _check_num_classes(k)
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

        suffix = f" [0, {k})"
        labels = {"true_label": self.true_labels, "base_prediction": self.base_predictions}
        if not (self.lengths.all() and _within(self.predictions, 0, k - 1)
                and all(_within(a, -1, k - 1) for a in labels.values())):
            empty = self.lengths == 0
            prediction = _range_fault("prediction", self.predictions, 0, k - 1, suffix)
            if prediction is not None:  # the example of the first bad prediction
                j, message = prediction
                prediction = int(np.searchsorted(offsets, j, side="right")) - 1, message
            _raise_first("example", self.example_ids, [
                (int(empty.argmax()), "empty neighborhood_predictions") if empty.any() else None,
                prediction,
                *(_range_fault(name, a, -1, k - 1, suffix) for name, a in labels.items()),
            ])

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

    @property
    def examples(self) -> _Rows:
        """The examples as a lazy, sized sequence of ``ExampleEntry`` rows."""
        return _Rows(len(self.example_ids), self._example)

    def _example(self, i) -> ExampleEntry:
        start, end = self.offsets[i], self.offsets[i + 1]
        true, base = int(self.true_labels[i]), int(self.base_predictions[i])
        return ExampleEntry(
            example_id=self.example_ids[i],
            neighborhood_predictions=tuple(self.predictions[start:end].tolist()),
            true_label=None if true == -1 else true,
            base_prediction=None if base == -1 else base,
        )

    def example_index(self) -> np.ndarray:
        """The example each prediction belongs to, aligned with ``predictions``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


class _Rows(Sequence):
    """Lazy, sized row view of a log held as arrays; ``row(i)`` builds row i."""

    def __init__(self, length, row):
        self._length = length
        self._row = row

    def __len__(self):
        return self._length

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return self._row(range(len(self))[i])

    def __eq__(self, other):
        if not isinstance(other, (_Rows, tuple, list)):
            return NotImplemented
        return tuple(self) == tuple(other)


@dataclass(frozen=True)
class ScoreEntry:
    """One entry of a score log, as a row (true_label None where absent)."""

    example_id: str
    predicted_label: int
    max_confidence: float
    neg_entropy: float
    true_label: Optional[int] = None


_SCORE_ARRAYS = {
    "predicted_labels": np.int64,
    "max_confidence": np.float64,
    "neg_entropy": np.float64,
    "true_labels": np.int64,
}


@dataclass(frozen=True, eq=False)
class ScoreLog:
    """A score log held as arrays.

    Entry ``i`` is ``example_ids[i]`` with ``predicted_labels[i]``,
    ``max_confidence[i]``, ``neg_entropy[i]`` and ``true_labels[i]`` (-1 where
    the entry has no true label). Scores are finite and in range for
    ``num_classes`` classes, when it is known. The arrays are read-only:
    labels int64, scores float64. Inputs of another type, or writeable ones,
    are copied.
    """

    model_id: str
    domain: str
    split: str  # "validation" | "test"
    example_ids: tuple[str, ...]
    predicted_labels: np.ndarray
    max_confidence: np.ndarray
    neg_entropy: np.ndarray
    true_labels: np.ndarray
    num_classes: Optional[int] = None
    meta: dict = field(default_factory=dict)

    __eq__ = _log_eq

    def __post_init__(self):
        if self.split not in ("validation", "test"):
            raise SchemaError(f"split must be 'validation' or 'test', got {self.split!r}")
        k = self.num_classes
        _check_num_classes(k)
        if not set(map(type, self.example_ids)) <= {str}:
            raise SchemaError("example ids must be strings")
        m = len(self.example_ids)
        for name, dtype in _SCORE_ARRAYS.items():
            arr = np.asarray(getattr(self, name))
            kinds = "iu" if dtype is np.int64 else "iuf"
            if arr.shape != (m,) or (arr.size and arr.dtype.kind not in kinds):
                raise SchemaError(f"{name} must be a 1-D array with one entry per example id")
            if arr.dtype != dtype or arr.flags.writeable:
                arr = arr.astype(dtype)
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        # With k classes the softmax maximum is at least 1/k and the entropy at
        # most log k; scores are finite.
        low_conf, top_entropy = (
            (1.0 / k - _EPS, math.log(k) + _EPS) if k else (0.0, sys.float_info.max)
        )
        top, suffix = (k - 1, f" [0, {k})") if k else (2**63 - 1, "")
        columns = [
            ("max_confidence", self.max_confidence, low_conf, 1.0 + _EPS, ""),
            ("neg_entropy", self.neg_entropy, -top_entropy, _EPS, ""),
            ("predicted_label", self.predicted_labels, 0, top, suffix),
            ("true_label", self.true_labels, -1, top, suffix),
        ]
        if not all(_within(values, lo, hi) for _, values, lo, hi, _ in columns):
            _raise_first("entry", self.example_ids, [_range_fault(*c) for c in columns])

    @property
    def entries(self) -> _Rows:
        """The entries as a lazy, sized sequence of ``ScoreEntry`` rows."""
        return _Rows(len(self.example_ids), self._entry)

    def _entry(self, i) -> ScoreEntry:
        true = int(self.true_labels[i])
        return ScoreEntry(
            example_id=self.example_ids[i],
            predicted_label=int(self.predicted_labels[i]),
            max_confidence=float(self.max_confidence[i]),
            neg_entropy=float(self.neg_entropy[i]),
            true_label=None if true == -1 else true,
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


def _iter_jsonl(path, lines=None):
    """(line number, object) of each non-blank line of the JSON Lines file at
    ``path``; ``lines``, if given, are its lines as bytes, else it is read."""
    with open(path, "rb") if lines is None else contextlib.nullcontext(lines) as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise SchemaError(f"invalid UTF-8: {e.reason}", path=path, line=lineno)
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as e:
                raise SchemaError(f"malformed JSON: {e.msg}", path=path, line=lineno)
            except ValueError as e:  # e.g. an integer literal over the digit limit
                raise SchemaError(f"malformed JSON: {e}", path=path, line=lineno)
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", path=path, line=lineno)
            yield lineno, obj


def _field_fault(obj, key, types=None):
    """What makes ``obj[key]`` missing or, if ``types`` is given, not an
    instance of it, or None; a boolean counts as an integer only where
    ``types`` is ``bool``."""
    if key not in obj:
        return f"missing required field {key!r}"
    v = obj[key]
    if types is not None and (
        not isinstance(v, types) or (type(v) is bool and types is not bool)
    ):
        return f"field {key!r} has wrong type"
    return None


def _require(obj, key, path, lineno, types=None):
    """``obj[key]``, which must be present and, if ``types`` is given, an
    instance of it (see ``_field_fault``)."""
    fault = _field_fault(obj, key, types)
    if fault is not None:
        raise SchemaError(fault, path=path, line=lineno)
    return obj[key]


def _read_log(path, lines=None):
    """The header of a JSONL log with its line number, then its entries: the
    entry objects, their line numbers and the error of a malformed line that
    ends them, or None. ``lines`` are as for ``_iter_jsonl``."""
    numbered, malformed = [], None
    try:
        numbered.extend(_iter_jsonl(path, lines))
    except SchemaError as e:
        if not numbered:
            raise
        malformed = e
    if not numbered:
        raise SchemaError("empty file: missing header line", path=path)
    linenos, objs = zip(*numbered)
    return objs[0], linenos[0], (objs[1:], linenos[1:], malformed)


def _check_header(header, path, head_line, log_type):
    """A log's header must declare ``log_type``; its ``meta``, if any, must be
    an object, which is returned ({} if absent)."""
    if header.get("type") != log_type:
        raise SchemaError(f"header must declare type {log_type!r}", path=path, line=head_line)
    meta = header.get("meta", {})
    if type(meta) is not dict:
        raise SchemaError("field 'meta' has wrong type", path=path, line=head_line)
    return meta


def _prediction_header(header, path, head_line):
    """(model_id, test_domain, num_classes, meta) of a prediction log's
    header: two strings, an integer (not a boolean) and an object."""
    meta = _check_header(header, path, head_line, "prediction_log")
    return (
        _require(header, "model_id", path, head_line, str),
        _require(header, "test_domain", path, head_line, str),
        _require(header, "num_classes", path, head_line, int),
        meta,
    )


def _field_values(body, types):
    """The values of each field over the entries (None where absent), one list
    per field in the order of ``types``, up to the first entry that lacks a
    required field or holds a value of another type; with that entry's
    (row, message) fault, or None. ``types`` maps each field to the types its
    values must have exactly, or to None if it is optional."""
    columns = [list(map(dict.get, body, repeat(key))) for key in types]
    faults = []
    for (key, kinds), values in zip(types.items(), columns):
        if kinds is not None and not set(map(type, values)) <= set(kinds):
            i = next(i for i, v in enumerate(values) if type(v) not in kinds)
            faults.append((i, _field_fault(body[i], key, kinds)))
    if not faults:
        return columns, None
    fault = min(faults, key=itemgetter(0))
    return [values[: fault[0]] for values in columns], fault


def _column(values, name, dtype, k=None, lengths=None, absent_ok=False):
    """``values`` of one field as JSON decodes them as a read-only ``dtype``
    array (None, where ``absent_ok``, as -1), with None; or None with
    (row, message) for the first value no such array holds: one of another
    type (a boolean is not a number), a negative integer or one too large for
    ``dtype``. With ``lengths``, ``values`` are the rows' lists flattened, and
    the fault names the row its value is in."""
    integer = dtype is np.int64
    types = {int} if integer else {int, float}
    if set(map(type, values)) <= (types | {type(None)} if absent_ok else types):
        try:
            arr = np.array(
                [-1 if v is None else v for v in values] if absent_ok else values, dtype=dtype
            )
        except OverflowError:
            arr = None
        if arr is not None and (
            not integer
            or np.count_nonzero(arr < 0) == (values.count(None) if absent_ok else 0)
        ):
            arr.flags.writeable = False
            return arr, None
    for i, v in enumerate(values):
        if v is None and absent_ok:
            continue
        if type(v) not in types:
            fault = f"{name} {v!r} is not {'an integer' if integer else 'a number'}"
        else:
            try:
                fits = np.array(v, dtype=dtype) >= 0 or not integer
            except OverflowError:
                fits = False
            if fits:
                continue
            fault = f"{name} {v} out of range" + (f" [0, {k})" if k else "")
        if lengths is not None:
            i = int(np.searchsorted(np.cumsum(lengths), i, side="right"))
        return None, (i, fault)


def _build(path, head_line, entries, decode, make):
    """The log ``make`` builds from the arrays ``decode`` gives for the
    entries; errors name path:line. ``decode`` raises a ``_RowError`` for the
    first entry holding a value no array holds; the entries before it are then
    built first, so that a value out of range on an earlier line is named."""
    body, lines, malformed = entries
    try:
        try:
            arrays = decode(body)
        except _RowError as fault:
            make(*decode(body[: fault.index]))
            raise fault
        log = make(*arrays)
    except _RowError as e:
        raise SchemaError(str(e), path=path, line=lines[e.index]) from None
    except SchemaError as e:
        raise SchemaError(str(e), path=path, line=head_line) from None
    if malformed is not None:
        raise malformed
    return log


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
    return "".join(_dumps(asdict(r)) + "\n" for r in records)


def write_manifest(records: Iterable[ModelRecord], path) -> None:
    atomic_write_text(path, serialize_manifest(records))


def parse_prediction_log(path) -> NeighborhoodPredictionLog:
    """Parse a neighborhood prediction log (header line + one example per line)
    straight into the log's arrays; an error names path:line of the first
    faulty line. A file in the form ``serialize_prediction_log`` writes is
    read by an array scan (``_scan_prediction_log``), any other by a JSON
    decode of each line."""
    with open(path, "rb") as f:
        data = f.read()
    log = _scan_prediction_log(path, data)
    if log is not None:
        return log
    header, head_line, entries = _read_log(path, io.BytesIO(data))
    model_id, test_domain, k, meta = _prediction_header(header, path, head_line)

    def decode(body):
        (ids, rows, true, base), fault = _field_values(body, {
            "example_id": (str,),
            "neighborhood_predictions": (list,),
            "true_label": None,
            "base_prediction": None,
        })
        lengths = np.array(list(map(len, rows)), dtype=np.int64)
        (preds, f1), (true, f2), (base, f3) = (
            _column(list(chain.from_iterable(rows)), "prediction", np.int64, k, lengths),
            _column(true, "true_label", np.int64, k, absent_ok=True),
            _column(base, "base_prediction", np.int64, k, absent_ok=True),
        )
        _raise_first("example", ids, [f1, f2, f3])
        if fault is not None:
            raise _RowError(*fault)
        return tuple(ids), preds, lengths, true, base

    return _build(path, head_line, entries, decode, lambda *arrays: NeighborhoodPredictionLog(
        model_id, test_domain, k, *arrays, meta=meta))


# Lengths of the fixed text of a canonical example line, which is
# {"base_prediction":B,"example_id":"ID","neighborhood_predictions":[P,...],"true_label":T}
# with the base and true label fields each present or not.
_BASE_KEY = len('{"base_prediction":')  # the line start to B
_ID_KEY = len('{"example_id":"')  # the line start, or the comma after B, to ID
_PREDICTIONS_KEY = len('","neighborhood_predictions":')  # the end of ID to "["
_TRUE_KEY = len('],"true_label":')  # "]" to T
_MIN_OPEN = _ID_KEY + _PREDICTIONS_KEY  # the line start to "[" at the least


def _decimal_fields(buf, starts, stops):
    """The unsigned integers written in decimal at ``buf[starts[i]:stops[i]]``
    as uint64, or None when a field is empty or longer than 19 digits, the
    most that uint64 holds of any digits. Bytes are not checked: a field that
    is not all digits gives some value, whose decimal form differs from it."""
    widths = stops - starts
    if len(widths) and (widths.min() < 1 or widths.max() > 19):
        return None
    # Digit by digit from the left: each pass takes the next digit of the
    # fields that have one, then drops the fields that have none left.
    values = (buf[starts] - 48).astype(np.uint64)
    rest = np.flatnonzero(widths > 1)
    pos = starts[rest] + 1
    while len(rest):
        values[rest] = values[rest] * 10 + (buf[pos] - 48)
        pos += 1
        more = pos < stops[rest]
        rest, pos = rest[more], pos[more]
    return values


def _scan_prediction_log(path, data):
    """The prediction log held in the file bytes ``data`` when they are what
    ``serialize_prediction_log`` writes for it, else None; a header the
    strict parse rejects raises its error.

    Soundness: the arrays come from a scan of the structural bytes that checks
    almost nothing, and the log is kept only when rendering it gives ``data``
    back byte for byte. The renderer gives the bytes of sorted-key
    ``json.dumps`` of the log's header and example objects (its oracle tests
    hold it to that), and JSON-decoding those bytes gives back those objects,
    from which the strict parse builds this very log. So equal bytes mean the
    strict parse returns an equal log, and the strict parse stays the only
    decoder of any other file and the only source of its errors. A faulty
    file is declined by the scan, fails the render check or makes the log's
    constructor raise a SchemaError; each sends it to the strict parse.
    """
    nl = data.find(b"\n")
    # The scan takes ids verbatim and the renderer escapes each "\", so a body
    # with a JSON escape never renders back to itself: decline it at once.
    if nl < 0 or not data.isascii() or data[-1:] != b"\n" or data.find(b"\\", nl) >= 0:
        return None
    header = list(_iter_jsonl(path, [data[:nl]]))
    if not header:
        return None
    model_id, test_domain, k, meta = _prediction_header(header[0][1], path, 1)
    # A header that renders back to itself is the sorted-key dump of its object.
    if _dumps(header[0][1]) != data[:nl].decode():
        return None

    # Positions below are in the body, the bytes after the header line.
    body_at = nl + 1
    buf = np.frombuffer(data, dtype=np.uint8)[body_at:]
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([-1], ends))[:-1] + 1
    # Each line must hold one "[" and one "]", in that order, after the
    # shortest text that can precede "[".
    opens, closes = np.flatnonzero(buf == ord("[")), np.flatnonzero(buf == ord("]"))
    m = len(ends)
    if not len(opens) == len(closes) == m:
        return None
    if m and not ((opens - starts >= _MIN_OPEN).all() and (opens < closes).all()
                  and (closes < ends).all()):
        return None

    # The bytes after each "[" up to and with its "]": every prediction ends
    # at a comma or at the "]". When each is one digit, the digits sit at the
    # even places and the ends at the odd ones; reading them so takes about a
    # fifth of the time of the digit runs and builds no index arrays.
    cuts = np.column_stack((opens + 1, closes + 1)).ravel()
    inside = np.arange(2 * m + 1) % 2 == 1  # of the pieces between the cuts
    region = buf[np.repeat(inside, np.diff(cuts, prepend=0, append=len(buf)))]
    spans = closes - opens
    is_end = (region == ord(",")) | (region == ord("]"))
    if not (spans % 2).any() and is_end[1::2].all():
        predictions, lengths = region[::2] - 48, spans // 2
    else:
        stops = np.flatnonzero(is_end)
        predictions = _decimal_fields(
            region, np.concatenate(([-1], stops))[:-1] + 1, stops)
        lengths = np.diff(np.flatnonzero(region[stops] == ord("]")), prepend=-1)
    if predictions is None:
        return None

    # The labels: B up to the comma after it, which the 20 bytes from B (all
    # before the "[") hold if B has at most 19 digits; T up to the "}".
    has_base = buf[starts + 2] == ord("b")
    base_at = starts[has_base] + _BASE_KEY
    base_end = base_at + (buf[base_at[:, None] + np.arange(20)] == ord(",")).argmax(axis=1)
    has_true = ends - closes > len("]}")
    labels = []
    for has, values in (
        (has_true, _decimal_fields(buf, closes[has_true] + _TRUE_KEY, ends[has_true] - 1)),
        (has_base, _decimal_fields(buf, base_at, base_end)),
    ):
        if values is None:
            return None
        column = np.full(m, -1, dtype=np.int64)
        column[has] = values
        labels.append(column)

    id_starts = starts + _ID_KEY
    id_starts[has_base] = base_end + _ID_KEY
    id_stops = opens - _PREDICTIONS_KEY
    text = data.decode("ascii")
    ids = tuple(text[a:b] for a, b in zip((id_starts + body_at).tolist(),
                                          (id_stops + body_at).tolist()))
    try:
        log = NeighborhoodPredictionLog(
            model_id, test_domain, k, ids, predictions, lengths, *labels, meta=meta)
    except SchemaError:
        return None
    return log if _render_prediction_log(log) == text else None


def _render_csv_ints(values: np.ndarray) -> tuple[str, np.ndarray]:
    """Render unsigned ints as one ASCII string ``"<v0>,<v1>,...,"`` and
    return it with ``ends``: value ``i`` and its comma end at ``ends[i]``."""
    # Decimal width of each value: the number of powers of ten at or below it,
    # plus one. The powers stop below the dtype's maximum, so they compare exactly.
    powers = [10**p for p in range(1, len(str(np.iinfo(values.dtype).max)))]
    widths = np.searchsorted(np.array(powers, dtype=values.dtype), values, side="right")
    widths += 2  # the first digit and the comma
    ends = np.cumsum(widths)
    buf = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    buf[ends - 1] = ord(",")
    # Digits from the last: each pass writes one digit of every value that
    # still has one, then drops the values that have none left.
    pos = ends - 2
    rest = values
    while len(rest):
        buf[pos] = rest % 10 + ord("0")
        rest = rest // 10
        more = rest > 0
        pos, rest = pos[more] - 1, rest[more]
    return buf.tobytes().decode("ascii"), ends


def serialize_prediction_log(log: NeighborhoodPredictionLog) -> str:
    """The log as JSON Lines; example lines are rendered from a fixed template
    that gives the same bytes as sorted-key ``json.dumps``. Every prediction
    is rendered once into one buffer, and each example takes a slice of it."""
    header = {
        "type": "prediction_log",
        "model_id": log.model_id,
        "test_domain": log.test_domain,
        "num_classes": log.num_classes,
    }
    if log.meta:
        header["meta"] = log.meta
    # The field of each label the log holds; an absent label (-1) renders as
    # nothing.
    bases = log.base_predictions.tolist()
    trues = log.true_labels.tolist()
    base_field = {c: f'"base_prediction":{c},' for c in set(bases)}
    true_field = {c: f',"true_label":{c}' for c in set(trues)}
    base_field[-1] = true_field[-1] = ""
    text, ends = _render_csv_ints(log.predictions)
    # Character bounds of each example's predictions in ``text``, the comma
    # after its last prediction excluded.
    bounds = np.concatenate(([0], ends))[log.offsets]
    starts = bounds[:-1].tolist()
    stops = (bounds[1:] - 1).tolist()
    lines = [_dumps(header)]
    lines.extend(
        f'{{{base_field[base]}"example_id":{_json_string(ex_id)},'
        f'"neighborhood_predictions":[{text[start:stop]}]'
        f"{true_field[true]}}}"
        for ex_id, start, stop, base, true in zip(log.example_ids, starts, stops, bases, trues)
    )
    return "\n".join(lines) + "\n"


# The renderer under a name of its own, so that wrapping the public name (as a
# tracer does) leaves the parse's check out of the writer's count.
_render_prediction_log = serialize_prediction_log


def write_prediction_log(log: NeighborhoodPredictionLog, path) -> None:
    atomic_write_text(path, serialize_prediction_log(log))


def parse_score_log(path) -> ScoreLog:
    """Parse a score log (header line + one entry per line) straight into the
    log's arrays; an error names path:line of the first faulty line."""
    header, head_line, entries = _read_log(path)
    meta = _check_header(header, path, head_line, "score_log")
    model_id = _require(header, "model_id", path, head_line, str)
    domain = _require(header, "domain", path, head_line, str)
    split = _require(header, "split", path, head_line, str)
    k = header.get("num_classes")
    if k is not None:
        _require(header, "num_classes", path, head_line, int)

    def decode(body):
        (ids, predicted, conf, negent, true), fault = _field_values(body, {
            "example_id": (str,),
            "predicted_label": (int,),
            "max_confidence": (int, float),
            "neg_entropy": (int, float),
            "true_label": None,
        })
        columns = (
            _column(predicted, "predicted_label", np.int64, k),
            _column(conf, "max_confidence", np.float64),
            _column(negent, "neg_entropy", np.float64),
            _column(true, "true_label", np.int64, k, absent_ok=True),
        )
        _raise_first("entry", ids, [f for _, f in columns])
        if fault is not None:
            raise _RowError(*fault)
        return (tuple(ids), *(arr for arr, _ in columns))

    return _build(path, head_line, entries, decode, lambda *arrays: ScoreLog(
        model_id, domain, split, *arrays, num_classes=k, meta=meta))


def serialize_score_log(log: ScoreLog) -> str:
    """The log as JSON Lines; entry lines are rendered from a fixed template
    that gives the same bytes as sorted-key ``json.dumps`` (``repr`` of a
    finite float is its JSON form)."""
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
    true_fields = ["" if t < 0 else f',"true_label":{t}' for t in log.true_labels.tolist()]
    lines = [_dumps(header)]
    lines.extend(
        f'{{"example_id":{_json_string(ex_id)},"max_confidence":{conf!r},'
        f'"neg_entropy":{negent!r},"predicted_label":{pred}{true}}}'
        for ex_id, conf, negent, pred, true in zip(
            log.example_ids,
            log.max_confidence.tolist(),
            log.neg_entropy.tolist(),
            log.predicted_labels.tolist(),
            true_fields,
        )
    )
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
    """Top-1 accuracy of the predicted labels against the true labels.

    Accepts a NeighborhoodPredictionLog (base_prediction vs true_label) or a
    ScoreLog (predicted_label vs true_label).
    """
    if isinstance(log, NeighborhoodPredictionLog):
        predicted = log.base_predictions
    elif isinstance(log, ScoreLog):
        predicted = log.predicted_labels
    else:
        raise TypeError(f"unsupported log type {type(log).__name__}")
    m = len(log.example_ids)
    if m == 0:
        raise SchemaError("cannot compute accuracy of an empty log")
    missing = (predicted < 0) | (log.true_labels < 0)
    if missing.any():
        ex_id = log.example_ids[int(missing.argmax())]
        raise SchemaError(f"example {ex_id!r}: missing label, accuracy unavailable")
    return int(np.count_nonzero(predicted == log.true_labels)) / m
