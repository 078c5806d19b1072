"""On-disk schemas: model manifests, prediction logs, score logs, weight dumps.

All text formats are JSON Lines (UTF-8, one object per line). Prediction and
score logs carry a single header line with file-level fields; manifests are
headerless. Weight dumps use a small self-describing binary layout. Parsed
values are immutable and safe to share across threads.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import glob
import io
import json
import math
import os
import re
import secrets
import stat
import struct
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from .errors import SchemaError

_EPS = 1e-9

WEIGHT_DUMP_MAGIC = b"SGWD0001"

# What json.dumps gives for a str (with the default ensure_ascii), without the
# per-call set-up of json.dumps; the log writers call it once per example id.
_json_string = json.encoder.encode_basestring_ascii

# Decodes one JSON value at the start of a string and returns it with its end;
# skips the per-call wrapping of json.loads on the hot path of JSONL parsing.
_raw_decode = json.JSONDecoder().raw_decode


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write(path, data: bytes) -> None:
    """Write data to path via a temp file and atomic rename; on any failure
    the target keeps its old bytes and the temp file is removed. The file
    gets the mode ``open(path, "w")`` gives: an existing target's permission
    bits, else 0o666 less the umask (``mkstemp`` would give 0o600)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    while True:
        tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        if mode is not None:
            os.fchmod(fd, mode)
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


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; the first byte that is not
    UTF-8 raises a SchemaError naming path:line (a line ends at LF, CR or
    CRLF, as in the CSV reader)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The text before the byte, with "x" standing in for it: its last line
        # is the byte's.
        line = len(io.StringIO(data[:e.start].decode("utf-8") + "x", newline="").readlines())
        raise SchemaError(f"invalid UTF-8: {e.reason}", path=path, line=line) from None


def list_files(directory, pattern="*") -> list:
    """The sorted paths in ``directory`` matching ``pattern``, hidden ones (the
    ``.tmp-*.part`` of a write cut short) left out; ``directory`` is a literal
    path, even where it holds ``[`` or ``*``."""
    return sorted(glob.glob(os.path.join(glob.escape(directory), pattern)))


@dataclass(frozen=True)
class ModelRecord:
    model_id: str
    arch: str
    train_domain: str
    hyperparams: dict
    converged: bool


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


class _CheckedIds(tuple):
    """A tuple of distinct str example ids. Only ``_check_ids``, once both
    checks pass, and ``kept_ids`` build one."""

    __slots__ = ()


def _check_ids(log):
    """(index, message) of the first of the log's ids equal to an earlier
    one, or None. Raises unless every id is a str; when both checks pass,
    the log holds its ids as a ``_CheckedIds``, which is not checked again."""
    ids = log.example_ids
    if type(ids) is _CheckedIds:
        return None
    if not set(map(type, ids)) <= {str}:
        raise SchemaError("example ids must be strings")
    if len(set(ids)) == len(ids):
        object.__setattr__(log, "example_ids", _CheckedIds(ids))
        return None
    seen = set()
    return next(i for i, x in enumerate(ids) if x in seen or seen.add(x)), "duplicate example_id"


def kept_ids(ids, keep):
    """The ids where the mask ``keep`` is true, in order: checked if ``ids``
    are, as a subsequence of distinct strings is distinct strings."""
    kept = compress(ids, keep)
    return _CheckedIds(kept) if type(ids) is _CheckedIds else tuple(kept)


def _raise_first(noun, ids, faults):
    """Raise a SchemaError naming the row's id for the lowest row among the
    (row, message) ``faults`` (None where a check found nothing); of faults in
    one row, the first listed."""
    found = [f for f in faults if f is not None]
    if found:
        i, message = min(found, key=itemgetter(0))
        raise SchemaError(f"{noun} {ids[i]!r}: {message}")


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
    has no such field; no two examples share an id. The arrays are
    read-only: ``predictions`` of the narrowest unsigned type that holds
    ``num_classes - 1``, the others int64. Inputs of another type, or
    writeable ones, are copied.

    ``example_ids`` may be any sequence of str; it is held as a tuple. The
    ids of a built log, or a subsequence of them from ``kept_ids``, skip
    the type and repeat checks: a constructor made them, or their superset,
    and a tuple cannot change. Every other check is made for every log.
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
        duplicate = _check_ids(self)
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
        if duplicate or not (self.lengths.all() and _within(self.predictions, 0, k - 1)
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
                duplicate,
            ])

        # Predictions are stored in the narrowest type that holds every class
        # (uint8 for up to 256 classes), a log's largest array by far.
        for name in _LOG_ARRAYS:
            arr = getattr(self, name)
            dtype = np.min_scalar_type(k - 1) if name == "predictions" else np.int64
            if arr.dtype != dtype or arr.flags.writeable:
                arr = arr.astype(dtype)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)

    @property
    def examples(self) -> tuple[str, ...]:
        """``example_ids``, kept only for ``bench/bench_trace.py``'s counters
        until it counts ``example_ids`` (ROADMAP item 1b)."""
        return self.example_ids

    def example_index(self) -> np.ndarray:
        """The example each prediction belongs to, aligned with ``predictions``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


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
    the entry has no true label); no two entries share an id. Scores are
    finite and in range for ``num_classes`` classes, when it is known. The
    arrays are read-only: labels int64, scores float64. Inputs of another
    type, or writeable ones, are copied. ``example_ids`` are checked, and
    held, as those of ``NeighborhoodPredictionLog``.
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
        duplicate = _check_ids(self)
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
        if duplicate or not all(_within(values, lo, hi) for _, values, lo, hi, _ in columns):
            _raise_first("entry", self.example_ids,
                         [*(_range_fault(*c) for c in columns), duplicate])

    @property
    def entries(self) -> tuple[str, ...]:
        """``example_ids``, kept only for ``bench/bench_trace.py``'s counters
        until it counts ``example_ids`` (ROADMAP item 1b)."""
        return self.example_ids


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
                # Only JSON's whitespace: str.strip() would also take control
                # characters such as \x1f and Unicode spaces such as U+2028.
                line = raw.decode("utf-8").strip(" \t\r\n")
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
            except (ValueError, RecursionError) as e:  # too many digits, too deep
                raise SchemaError(f"malformed JSON: {e}", path=path, line=lineno)
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", path=path, line=lineno)
            yield lineno, obj


def _require(obj, key, types, path=None, lineno=None):
    """``obj[key]``, which must be present and an instance of ``types``; a
    boolean counts as an integer only where ``types`` is ``bool``."""
    if key not in obj:
        raise SchemaError(f"missing required field {key!r}", path=path, line=lineno)
    v = obj[key]
    if not isinstance(v, types) or (type(v) is bool and types is not bool):
        raise SchemaError(f"field {key!r} has wrong type", path=path, line=lineno)
    return v


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
    return _require(header, "meta", dict, path, head_line) if "meta" in header else {}


def _prediction_header(header, path, head_line):
    """(model_id, test_domain, num_classes, meta) of a prediction log's
    header: two strings, an integer (not a boolean) and an object, whose
    ``neighborhood`` tag, when present, is a string."""
    meta = _check_header(header, path, head_line, "prediction_log")
    if not isinstance(meta.get("neighborhood", ""), str):
        raise SchemaError("meta field 'neighborhood' must be a string", path=path,
                          line=head_line)
    return (
        _require(header, "model_id", str, path, head_line),
        _require(header, "test_domain", str, path, head_line),
        _require(header, "num_classes", int, path, head_line),
        meta,
    )


def _field_values(body, types):
    """The values of each field over the entries (None where absent), one list
    per field in the order of ``types``, which maps each field to the types its
    values must have, or to None if it is optional. The first entry that
    lacks a required field or holds a value of another type raises the error
    of ``_require``, for the first such field in ``types``."""
    columns = [list(map(dict.get, body, repeat(key))) for key in types]
    for (key, kinds), values in zip(types.items(), columns):
        if kinds is not None and not set(map(type, values)) <= set(kinds):
            for obj in body:
                _require(obj, key, kinds)
    return columns


def _column(values, name, dtype, noun, ids, k=None, lengths=None, absent_ok=False):
    """``values`` of one field as JSON decodes them as a read-only ``dtype``
    array (None, where ``absent_ok``, as -1). The first value no such array
    holds raises a SchemaError naming the ``noun`` of id ``ids[i]`` it is in:
    a value of another type (a boolean is not a number), a negative integer
    or one too large for ``dtype``. With ``lengths``, ``values`` are the
    entries' lists flattened."""
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
            return arr
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
        raise SchemaError(f"{noun} {ids[i]!r}: {fault}")


def _build(path, head_line, entries, decode, make):
    """The log ``make`` builds from the arrays ``decode`` gives for the
    entries; an error names path:line of the first faulty line.

    A valid log takes one decode and one build. A faulty one is named by
    bisection over the prefixes of its entries: every check of ``decode`` and
    ``make`` belongs to the header or to one entry, so whether a prefix fails
    to build is monotone in its length, and the shortest prefix that fails
    ends at the first faulty entry (or is empty, for a faulty header). Its
    error is raised at that entry's line.
    """
    body, lines, malformed = entries

    def error(n):
        """The SchemaError building the first ``n`` entries raises, or None."""
        try:
            make(*decode(body[:n]))
        except SchemaError as e:
            return e
        return None

    try:
        log = make(*decode(body))
    except SchemaError:
        n = bisect.bisect_left(range(len(body) + 1), True, key=lambda n: error(n) is not None)
        raise SchemaError(str(error(n)), path=path, line=lines[n - 1] if n else head_line) from None
    if malformed is not None:
        raise malformed
    return log


def parse_manifest(path) -> list[ModelRecord]:
    """Parse a model manifest (one record per line); rejects duplicate ids."""
    records = []
    seen = set()
    for lineno, obj in _iter_jsonl(path):
        rec = ModelRecord(
            model_id=_require(obj, "model_id", str, path, lineno),
            arch=_require(obj, "arch", str, path, lineno),
            train_domain=_require(obj, "train_domain", str, path, lineno),
            hyperparams=_require(obj, "hyperparams", dict, path, lineno),
            converged=_require(obj, "converged", bool, path, lineno),
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
    read as one byte matrix when its lines have one length and its values one
    digit, else by one line pattern (``_scan_prediction_log``); any other
    file by a JSON decode of each line."""
    with open(path, "rb") as f:
        data = f.read()
    log = _scan_prediction_log(path, data)
    if log is not None:
        return log
    header, head_line, entries = _read_log(path, io.BytesIO(data))
    model_id, test_domain, k, meta = _prediction_header(header, path, head_line)

    def decode(body):
        ids, rows, true, base = _field_values(body, {
            "example_id": (str,),
            "neighborhood_predictions": (list,),
            "true_label": None,
            "base_prediction": None,
        })
        lengths = np.array(list(map(len, rows)), dtype=np.int64)
        return (
            tuple(ids),
            _column(list(chain.from_iterable(rows)), "prediction", np.int64, "example", ids, k,
                    lengths),
            lengths,
            _column(true, "true_label", np.int64, "example", ids, k, absent_ok=True),
            _column(base, "base_prediction", np.int64, "example", ids, k, absent_ok=True),
        )

    return _build(path, head_line, entries, decode, lambda *arrays: NeighborhoodPredictionLog(
        model_id, test_domain, k, *arrays, meta=meta))


# The values of a canonical log line, each a capture group. An integer as JSON
# writes it, of at most 19 digits (so it fits in a uint64). A string with no
# escape and no control character: its JSON value is its text. A number with
# a fraction or an exponent, which JSON decodes as ``float`` of its text; an
# integer literal decodes as an int (-0 as 0, so as +0.0 in a float column)
# and is left to the strict decode.
_INT = r"(0|[1-9][0-9]{0,18})"
_ID = r'"([^"\\\x00-\x1f]*)"'
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"

# A line of each log as its writer renders it: sorted keys, no spaces, the
# optional labels present or not.
_PREDICTION_LINE = re.compile(
    rf'^\{{(?:"base_prediction":{_INT},)?"example_id":{_ID},'
    rf'"neighborhood_predictions":\[([0-9,]*)\](?:,"true_label":{_INT})?\}}$', re.M)
_SCORE_LINE = re.compile(
    rf'^\{{"example_id":{_ID},"max_confidence":{_FLOAT},"neg_entropy":{_FLOAT},'
    rf'"predicted_label":{_INT}(?:,"true_label":{_INT})?\}}$', re.M)


def _scan(path, data, read_header):
    """What ``read_header`` gives for the header of the log in the file bytes
    ``data``, with the bytes of its body (the lines after the first); None
    unless the file ends in a newline and its body holds no raw \\r. A header
    the strict parse rejects raises its error.

    The body is then read by ``_scan_lines`` or, for a prediction log, by
    ``_stride_columns`` first. Soundness of the line pattern: every line the
    pattern matches is a JSON object the strict decode accepts, and each
    group holds the text of one of its values: a string whose text is its
    value, an integer or a float that JSON decodes exactly as ``int`` or
    ``float`` of the text. The pattern is anchored at both ends of a line and
    no group holds a newline, so each line matches at most once, and a match
    count equal to the body's newline count means every line matched (a
    blank line, which the strict decode skips, does not). The header is read
    by the strict decode itself. So a log built from the groups is the log
    the strict parse builds, and a value the log's constructor rejects sends
    the file to the strict parse, which stays the only source of errors.

    Soundness of the fixed-stride read: its first line is ASCII and matches
    the pattern, the body is a whole number of lines of the first line's
    length, and every other line equals the first at each byte that is not a
    digit and holds a digit wherever the first holds one. That holds when the
    rows of the byte matrix are equal under the map of each digit to 0 and
    each other byte b to b - 48 (mod 256), which is one-to-one on bytes that
    are not digits and sends none of them to 0. The pattern's keys and
    punctuation hold no digit, so every digit of the first line is in its id
    or in one of its integers, and each integer is one digit. A digit in an
    id, or a one-digit integer, may be any digit, so every line is ASCII and
    matches the pattern with its groups at the first line's columns; the
    newline, a byte that is not a digit, ends each line at the same column
    and nowhere before it. So the columns hold the values the pattern pass
    would capture, and the log is the one the pattern pass builds.
    """
    nl = data.find(b"\n")
    if nl < 0 or data[-1:] != b"\n":
        return None
    header = list(_iter_jsonl(path, [data[:nl]]))
    if not header:
        return None
    fields = read_header(header[0][1], path, 1)
    # No canonical body line holds a raw \r (_ID excludes control
    # characters), so a body with CRLF endings anywhere is declined before
    # either read; a failed match on such a line would backtrack.
    if data.find(b"\r", nl + 1) >= 0:
        return None
    return fields, data[nl + 1:]


def _scan_lines(body, line):
    """The groups the pattern ``line`` captures from the lines of ``body``,
    one tuple per group ("" where a group took no part); None unless the body
    is UTF-8 and every line matches ``line``. See ``_scan``."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # A file of another layout throughout (spaces, say) fails on its first
    # line, so it is declined before a pass over its whole body.
    if text and not line.match(text):
        return None
    matches = line.findall(text)
    if len(matches) != body.count(b"\n"):
        return None
    return list(zip(*matches)) or [()] * line.groups


def read_only(arr):
    """``arr``, made read-only: a log keeps such an array of its type uncopied."""
    arr.flags.writeable = False
    return arr


def _labels(texts):
    """The labels written as ``texts`` (decimal, "" where absent) as a
    read-only int64 array, -1 where absent; None when one is beyond int64.
    A column of one-digit labels is read as one byte buffer."""
    if "" not in texts and len(joined := "".join(texts)) == len(texts):
        return read_only((np.frombuffer(joined.encode("ascii"), np.uint8) - 48).astype(np.int64))
    try:
        return read_only(np.array([t or "-1" for t in texts], dtype=np.int64))
    except OverflowError:
        return None


def _decimal_fields(buf, starts, stops):
    """The unsigned integers written in decimal at ``buf[starts[i]:stops[i]]``
    as uint64, or None when a field is empty, has a leading zero or is longer
    than 19 digits, the most that uint64 holds of any digits. The bytes must
    be digits."""
    widths = stops - starts
    if len(widths) and (widths.min() < 1 or widths.max() > 19
                        or (buf[starts[widths > 1]] == ord("0")).any()):
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


def _predictions(rows):
    """The predictions of the examples whose lists hold the texts ``rows``
    (digits and commas), flattened, with the number of each example; None
    unless every comma-separated token is an integer as JSON writes it, of at
    most 19 digits."""
    # The rows joined, each closed by "]": every prediction ends at a comma
    # or at the "]".
    region = np.frombuffer("]".join((*rows, "")).encode("ascii"), dtype=np.uint8)
    stops = np.flatnonzero((region == ord(",")) | (region == ord("]")))
    # Each prediction starts after the end before it (an empty region has none).
    predictions = _decimal_fields(region, np.concatenate(([0], stops + 1))[:-1], stops)
    if predictions is None:
        return None
    return predictions, np.diff(np.flatnonzero(region[stops] == ord("]")), prepend=-1)


_ONE_DIGIT_LIST = re.compile(r"[0-9](?:,[0-9])*")

# The id column's bytes and the ids of the last log the fixed-stride read
# accepted. The logs of one test set have byte-equal id columns, so their ids
# are decoded and checked once; one pair is kept, so at most one tuple of ids
# outlives the logs that hold it. The pair is read and replaced whole, so a
# read in another thread sees the bytes with their own ids.
_stride_ids = (None, None)


def _stride_columns(body, k):
    """The bytes of the id column, then (ids, predictions, lengths, true
    labels, base labels), of a prediction log body of ``k`` classes whose
    lines all have its first line's length, when the first line is ASCII,
    matches ``_PREDICTION_LINE`` and writes each integer in one digit, and
    every other line equals it at each byte that is not a digit and holds a
    digit wherever it holds one; else None. The lines are read as one
    (lines, line length) byte matrix, each value a fixed column of it, and
    the arrays are read-only, of the log's types. Ids whose column equals,
    byte for byte, that of ``_stride_ids`` are the ids kept there. See
    ``_scan``."""
    width = body.find(b"\n") + 1
    if not width or len(body) % width or not body[:width].isascii():
        return None
    first = _PREDICTION_LINE.fullmatch(body[:width - 1].decode("ascii"))
    if (first is None or not _ONE_DIGIT_LIST.fullmatch(first[3])
            or any(len(first[g] or "") > 1 for g in (1, 4))):
        return None
    m = len(body) // width
    lines = np.frombuffer(body, dtype=np.uint8).reshape(m, width)
    # Digits to 0 and any other byte b to b - 48 (mod 256); see _scan.
    template = lines - 48
    template *= template >= 10
    if not (template == template[0]).all():
        return None

    def label(group):  # -1 where the first line, so every line, has none
        col = first.start(group)
        return read_only(lines[:, col].astype(np.int64) - 48 if col >= 0 else np.full(m, -1))

    # Each id with its closing quote, which no id holds: the quotes cut them.
    start, stop = first.span(2)
    id_bytes = lines[:, start:stop + 1].tobytes()
    known, ids = _stride_ids
    if id_bytes != known:
        ids = tuple(id_bytes.decode("ascii").split('"')[:-1])
    start, stop = first.span(3)
    lengths = read_only(np.full(m, (stop - start + 1) // 2, dtype=np.int64))
    predictions = (lines[:, start:stop:2] - 48).astype(np.min_scalar_type(k - 1), copy=False)
    return id_bytes, (ids, read_only(predictions.ravel()), lengths, label(4), label(1))


def _scan_prediction_log(path, data):
    """The prediction log held in the file bytes ``data`` when each line after
    the header is in the form ``serialize_prediction_log`` writes, else None;
    a header the strict parse rejects raises its error. A body of one line
    length with one-digit values is read as a byte matrix
    (``_stride_columns``), any other by the line pattern. See ``_scan``."""
    scanned = _scan(path, data, _prediction_header)
    if scanned is None:
        return None
    (model_id, test_domain, k, meta), body = scanned
    id_bytes, columns = _stride_columns(body, k) or (None, None)
    if columns is None:
        groups = _scan_lines(body, _PREDICTION_LINE)
        if groups is None:
            return None
        bases, ids, rows, trues = groups
        decoded = _predictions(rows), _labels(trues), _labels(bases)
        if any(part is None for part in decoded):
            return None
        (predictions, lengths), true, base = decoded
        columns = ids, predictions, lengths, true, base
    try:
        log = NeighborhoodPredictionLog(model_id, test_domain, k, *columns, meta=meta)
    except SchemaError:
        return None
    if id_bytes is not None:
        global _stride_ids
        _stride_ids = id_bytes, log.example_ids
    return log


def _render_csv_ints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Render unsigned ints as one ASCII buffer ``"<v0>,<v1>,...,"`` and
    return it with ``ends``: value ``i`` and its comma end at ``ends[i]``."""
    if not len(values) or values.max() < 10:  # one digit each, as in most logs
        buf = np.full(2 * len(values), ord(","), dtype=np.uint8)
        buf[0::2] = values + ord("0")
        return buf, np.arange(2, len(buf) + 1, 2)
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
    return buf, ends


# The constant text of each example's line in a log, for one tuple of example
# ids: the line's text from the id up to its first value. A run shares one
# tuple of ids among all logs of one test set, so it holds a few of these.
@functools.lru_cache(maxsize=4)
def _prediction_prefixes(example_ids: tuple) -> tuple:
    return tuple(f'"example_id":{_json_string(i)},"neighborhood_predictions":['
                 for i in example_ids)


@functools.lru_cache(maxsize=4)
def _score_prefixes(example_ids: tuple) -> tuple:
    return tuple(f'{{"example_id":{_json_string(i)},"max_confidence":' for i in example_ids)


def serialize_prediction_log(log: NeighborhoodPredictionLog) -> str:
    """The log as JSON Lines, the same bytes as sorted-key ``json.dumps``.

    Each example line is four parts: the opening with the base prediction,
    the constant text up to the predictions (shared by every log of the same
    example ids), the predictions, and the close with the true label. The
    labels' parts come from one small dict per log, and the predictions are
    all rendered into one buffer, cut at the end of each example's list.
    """
    header = {
        "type": "prediction_log",
        "model_id": log.model_id,
        "test_domain": log.test_domain,
        "num_classes": log.num_classes,
    }
    if log.meta:
        header["meta"] = log.meta
    bases = log.base_predictions.tolist()
    trues = log.true_labels.tolist()
    # An absent label (-1) renders as no field.
    opening = {c: f'{{"base_prediction":{c},' for c in set(bases)}
    closing = {c: f'],"true_label":{c}}}\n' for c in set(trues)}
    opening[-1], closing[-1] = "{", "]}\n"
    buf, ends = _render_csv_ints(log.predictions)
    # The comma after each example's last prediction becomes the cut.
    buf[ends[log.offsets[1:] - 1] - 1] = ord("]")
    parts = [""] * (4 * len(bases))
    parts[0::4] = map(opening.__getitem__, bases)
    parts[1::4] = _prediction_prefixes(log.example_ids)
    parts[2::4] = buf.tobytes().decode("ascii").split("]")[:-1]
    parts[3::4] = map(closing.__getitem__, trues)
    return _dumps(header) + "\n" + "".join(parts)


def write_prediction_log(log: NeighborhoodPredictionLog, path, *copies) -> None:
    """Render the log once and write it to ``path`` and to each of ``copies``."""
    text = serialize_prediction_log(log)
    for target in (path, *copies):
        atomic_write_text(target, text)


def _score_header(header, path, head_line):
    """(model_id, domain, split, num_classes or None, meta) of a score log's
    header: three strings, an integer (not a boolean) if present, and an
    object."""
    meta = _check_header(header, path, head_line, "score_log")
    fields = [_require(header, key, str, path, head_line)
              for key in ("model_id", "domain", "split")]
    k = header.get("num_classes")
    if k is not None:
        _require(header, "num_classes", int, path, head_line)
    return (*fields, k, meta)


def parse_score_log(path) -> ScoreLog:
    """Parse a score log (header line + one entry per line) straight into the
    log's arrays; an error names path:line of the first faulty line. A file
    in the form ``serialize_score_log`` writes is read by one line pattern
    (``_scan_score_log``), any other by a JSON decode of each line."""
    with open(path, "rb") as f:
        data = f.read()
    log = _scan_score_log(path, data)
    if log is not None:
        return log
    header, head_line, entries = _read_log(path, io.BytesIO(data))
    model_id, domain, split, k, meta = _score_header(header, path, head_line)

    def decode(body):
        ids, predicted, conf, negent, true = _field_values(body, {
            "example_id": (str,),
            "predicted_label": (int,),
            "max_confidence": (int, float),
            "neg_entropy": (int, float),
            "true_label": None,
        })
        return (
            tuple(ids),
            _column(predicted, "predicted_label", np.int64, "entry", ids, k),
            _column(conf, "max_confidence", np.float64, "entry", ids),
            _column(negent, "neg_entropy", np.float64, "entry", ids),
            _column(true, "true_label", np.int64, "entry", ids, k, absent_ok=True),
        )

    return _build(path, head_line, entries, decode, lambda *arrays: ScoreLog(
        model_id, domain, split, *arrays, num_classes=k, meta=meta))


def _scan_score_log(path, data):
    """The score log held in the file bytes ``data`` when each line after the
    header is in the form ``serialize_score_log`` writes, else None; a header
    the strict parse rejects raises its error. See ``_scan``."""
    scanned = _scan(path, data, _score_header)
    if scanned is None:
        return None
    (model_id, domain, split, k, meta), body = scanned
    groups = _scan_lines(body, _SCORE_LINE)
    if groups is None:
        return None
    ids, conf, negent, predicted, true = groups
    labels = _labels(predicted), _labels(true)
    if any(part is None for part in labels):
        return None
    scores = [read_only(np.fromiter(map(float, texts), np.float64, len(texts)))
              for texts in (conf, negent)]
    try:
        return ScoreLog(model_id, domain, split, ids, labels[0], *scores, labels[1],
                        num_classes=k, meta=meta)
    except SchemaError:
        return None


def serialize_score_log(log: ScoreLog) -> str:
    """The log as JSON Lines, the same bytes as sorted-key ``json.dumps``
    (``repr`` of a finite float is its JSON form). Each entry line is six
    parts, laid out like those of ``serialize_prediction_log``: the constant
    text up to the confidence, the confidence, the entropy's key, the
    entropy, the predicted label and the close with the true label."""
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
    predicted = log.predicted_labels.tolist()
    trues = log.true_labels.tolist()
    predicted_field = {c: f',"predicted_label":{c}' for c in set(predicted)}
    closing = {c: f',"true_label":{c}}}\n' for c in set(trues)}
    closing[-1] = "}\n"
    parts = [',"neg_entropy":'] * (6 * len(predicted))
    parts[0::6] = _score_prefixes(log.example_ids)
    parts[1::6] = map(repr, log.max_confidence.tolist())
    parts[3::6] = map(repr, log.neg_entropy.tolist())
    parts[4::6] = map(predicted_field.__getitem__, predicted)
    parts[5::6] = map(closing.__getitem__, trues)
    return _dumps(header) + "\n" + "".join(parts)


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
    try:
        model_id = take(id_len).decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"model id is not UTF-8: {e.reason}", path=path) from None
    (n_layers,) = struct.unpack("<Q", take(8))
    layers = []
    for _ in range(n_layers):
        rows, cols = struct.unpack("<QQ", take(16))
        buf = take(rows * cols * 8)
        w = np.frombuffer(buf, dtype="<f8").reshape(rows, cols).copy()
        layers.append(w)
    if off != len(data):
        raise SchemaError("trailing bytes in weight dump", path=path)
    try:
        return WeightDump(model_id=model_id, layers=tuple(layers))
    except SchemaError as e:
        raise SchemaError(str(e), path=path) from None


def compute_accuracy(log: NeighborhoodPredictionLog) -> float:
    """Top-1 accuracy of the base predictions against the true labels."""
    predicted = log.base_predictions
    m = len(log.example_ids)
    if m == 0:
        raise SchemaError("cannot compute accuracy of an empty log")
    missing = (predicted < 0) | (log.true_labels < 0)
    if missing.any():
        ex_id = log.example_ids[int(missing.argmax())]
        raise SchemaError(f"example {ex_id!r}: missing label, accuracy unavailable")
    return int(np.count_nonzero(predicted == log.true_labels)) / m
