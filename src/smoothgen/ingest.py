"""On-disk schemas: model manifests, prediction logs, score logs, weight dumps.

All text formats are JSON Lines (UTF-8, one object per line). Prediction and
score logs carry a single header line with file-level fields, then one row
per line. Each log kind declares its header fields and its columns once, in
tables that its checks, its three reads and its writer all follow.
Manifests are headerless. Weight dumps use a small self-describing binary
layout. Parsed values are immutable and safe to share across threads.
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
from typing import Callable, Iterable, NamedTuple, Optional

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


class _Column(NamedTuple):
    """One column of a log kind: its JSON ``key``; the log's array ``field``
    that holds it; its values' type (``str`` for ids, ``list`` for lists of
    classes, else the array's dtype); whether it is ``optional`` (an integer,
    -1 where absent or null); its values' range for num_classes (by default
    the classes, or int64's range if unknown); the ``noun`` in its faults."""

    key: str
    field: str
    dtype: type = np.int64
    optional: bool = False
    bounds: Callable = lambda k: (0, (k or 2**63) - 1)
    noun: str = ""


class _HeaderField(NamedTuple):
    """One field of a log kind's header: its key, its type, whether it is
    ``optional`` (None where absent or null) and its ``choices``, if any."""

    key: str
    type: type = str
    optional: bool = False
    choices: tuple = ()


# The text of each type of value on a canonical log line, a capture group
# named after its column's array. An integer as JSON writes it, of at most 19
# digits (so it fits in a uint64). A string with no escape and no control
# character: its JSON value is its text. A number with a fraction or an
# exponent, which JSON decodes as ``float`` of its text; an integer literal
# decodes as an int (-0 as 0, so as +0.0 in a float column) and is left to
# the strict decode. A list of integers, its digits and commas.
_VALUE = {
    np.int64: r"(?P<%s>0|[1-9][0-9]{0,18})",
    str: r'"(?P<%s>[^"\\\x00-\x1f]*)"',
    np.float64: r"(?P<%s>-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))",
    list: r"\[(?P<%s>[0-9,]*)\]",
}


def _items(columns):
    """(column, text before its value, text after it) of each column of a
    canonical line, in key order: its key and the comma that joins it to the
    next present value, which an optional column carries itself (after its
    value while no required column has come, else before its key)."""
    required = False
    for c in columns:
        yield c, ("," if required else "") + f'"{c.key}":', (
            "," if c.optional and not required else "")
        required = required or not c.optional


def _line_pattern(columns):
    """The pattern of a line as the writer renders a log of ``columns``:
    sorted keys, no spaces, each optional column present or not."""
    parts = [(before + _VALUE[c.dtype] % c.field + after, c.optional)
             for c, before, after in _items(columns)]
    return re.compile(
        r"^\{" + "".join(f"(?:{p})?" if optional else p for p, optional in parts) + r"\}$", re.M)


def _render_plan(columns):
    """The parts of each line as the writer renders a log of ``columns``: a
    constant text; a column whose values are rendered one by one (a score,
    or a list's); or [column, text before, text after, text where absent]
    of a column whose text is looked up for each label or tuple of ids.
    Constant text joins the looked-up part before it, else the one after
    it, so a line is as few parts as it can be."""
    plan, text = [], "{"

    def put(constant):  # constant text after the last part
        if plan and isinstance(plan[-1], list):
            plan[-1][2] += constant
            plan[-1][3] += constant
        elif constant:
            plan.append(constant)

    for c, before, after in _items(columns):
        if c.dtype in (str, np.int64):
            plan.append([c, text + before, after, text])
            text = ""
            continue
        opening, closing = ("[", "]") if c.dtype is list else ("", "")
        put(text + before + opening)
        plan.append(c)
        text = closing + after
    put(text + "}\n")
    return plan


def _array(log, name, dtype, m=None):
    """The log's array ``name`` as given, which must be 1-D, of integers (of
    numbers, for a float ``dtype``) and of ``m`` entries if given. The log
    holds it read-only, as ``dtype``: copied unless it is already such."""
    arr = np.asarray(getattr(log, name))
    integer = dtype is not np.float64
    if (arr.ndim != 1 or (arr.size and arr.dtype.kind not in ("iu" if integer else "iuf"))
            or m is not None and len(arr) != m):
        raise SchemaError(f"{name} must be a 1-D {'integer ' if integer else ''}array"
                          + (" with one entry per example id" if m is not None else ""))
    held = arr if arr.dtype == dtype and not arr.flags.writeable else read_only(arr.astype(dtype))
    object.__setattr__(log, name, held)
    return arr


class _Log:
    """What the log kinds share, read from each kind's tables: a file is a
    header of ``_type`` with the ``_header`` fields and ``meta`` (its
    ``_meta_strings`` tags strings), then one row of the ``_columns`` per
    line, which faults name by ``_noun``. Each kind also holds, derived from
    its columns, the ``_line`` pattern and ``_plan`` of a written line, and
    its columns in the order of the strict decode's checks (``_by_field``,
    that of its fields) and of the range checks (``_checked``: the scores,
    then the labels, each in field order)."""

    def __init_subclass__(cls):
        names = list(cls.__annotations__)
        cls._by_field = sorted(cls._columns, key=lambda c: names.index(c.field))
        cls._checked = sorted((c for c in cls._by_field if c.dtype is not str),
                              key=lambda c: c.dtype is not np.float64)
        cls._line, cls._plan = _line_pattern(cls._columns), _render_plan(cls._columns)

    @property
    def examples(self) -> tuple[str, ...]:
        """``example_ids``, kept only for ``bench/bench_trace.py``'s counters
        until it counts ``example_ids`` (ROADMAP item 1b)."""
        return self.example_ids

    entries = examples

    def __eq__(self, other):
        """Field-wise equality of two logs of one type, arrays by value."""
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )

    def __post_init__(self):
        """Check each header value among its choices, the class count, the
        ids, then column by column (``_checked``) its arrays (shape and kind,
        and a list's lengths) and its values' range for the class count. Of
        the faults of one row, the first named is an empty list, then a value
        out of range, in that order, then a repeated id. Each array is held
        read-only, of its column's type: a list's values in the narrowest
        unsigned type that holds every class (uint8 for up to 256 classes, a
        log's largest array by far), its lengths and the other labels int64,
        the scores float64 (see ``_array``)."""
        for h in self._header:
            if h.choices and getattr(self, h.key) not in h.choices:
                raise SchemaError(f"{h.key} must be {' or '.join(map(repr, h.choices))}, "
                                  f"got {getattr(self, h.key)!r}")
        k = self.num_classes
        if k is not None and not 2 <= k < 2**63:
            raise SchemaError(f"num_classes must be in [2, 2**63), got {k}")
        faults, duplicate = [], _check_ids(self)
        m = len(self.example_ids)
        for c in self._checked:
            if c.dtype is list:
                values = _array(self, c.field, np.min_scalar_type(k - 1))
                lengths = _array(self, "lengths", np.int64, m)
                if (lengths < 0).any() or lengths.sum() != len(values):
                    raise SchemaError(
                        f"lengths must be non-negative and sum to the number of {c.field}")
                offsets = np.zeros(m + 1, dtype=np.int64)
                np.cumsum(lengths, out=offsets[1:])
                object.__setattr__(self, "offsets", read_only(offsets))
                if not lengths.all():
                    faults.insert(0, (int(lengths.argmin()), f"empty {c.key}"))
            else:
                values = _array(self, c.field, c.dtype, m)
            # Finite bounds, so a NaN or an infinity is out of range; a valid
            # column is told by its minimum and maximum alone.
            lo, hi = c.bounds(k)
            lo = -1 if c.optional else lo
            if len(values) and not (lo <= values.min() and values.max() <= hi):
                j = int((~((lo <= values) & (values <= hi))).argmax())  # the first bad value
                row = int(np.searchsorted(offsets, j, side="right")) - 1 if c.dtype is list else j
                suffix = f" [0, {k})" if k and c.dtype is not np.float64 else ""
                faults.append((row, f"{c.noun or c.key} {values[j].item()} out of range{suffix}"))
        if duplicate is not None:
            faults.append(duplicate)
        if faults:  # the lowest row; of faults in one row, the first listed
            i, message = min(faults, key=itemgetter(0))
            raise SchemaError(f"{self._noun} {self.example_ids[i]!r}: {message}")


@dataclass(frozen=True, eq=False)
class NeighborhoodPredictionLog(_Log):
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

    _type, _noun, _meta_strings = "prediction_log", "example", ("neighborhood",)
    _header = (_HeaderField("model_id"), _HeaderField("test_domain"),
               _HeaderField("num_classes", int))
    _columns = (
        _Column("base_prediction", "base_predictions", optional=True),
        _Column("example_id", "example_ids", str),
        _Column("neighborhood_predictions", "predictions", list, noun="prediction"),
        _Column("true_label", "true_labels", optional=True),
    )

    def example_index(self) -> np.ndarray:
        """The example each prediction belongs to, aligned with ``predictions``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)


@dataclass(frozen=True, eq=False)
class ScoreLog(_Log):
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

    # With k classes the softmax maximum is at least 1/k and the entropy at
    # most log k; scores are finite.
    _type, _noun, _meta_strings = "score_log", "entry", ()
    _header = (_HeaderField("model_id"), _HeaderField("domain"),
               _HeaderField("split", choices=("validation", "test")),
               _HeaderField("num_classes", int, optional=True))
    _columns = (
        _Column("example_id", "example_ids", str),
        _Column("max_confidence", "max_confidence", np.float64,
                bounds=lambda k: (1.0 / k - _EPS if k else 0.0, 1.0 + _EPS)),
        _Column("neg_entropy", "neg_entropy", np.float64,
                bounds=lambda k: (-(math.log(k) + _EPS) if k else -sys.float_info.max, _EPS)),
        _Column("predicted_label", "predicted_labels"),
        _Column("true_label", "true_labels", optional=True),
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


def _read_header(cls, header, path, line):
    """The header fields of a ``cls`` log by keyword, checked in this order:
    its type; its ``meta`` ({} if absent) and the ``_meta_strings`` tags in
    it; each ``_header`` field, of its type (an integer is not a boolean)
    or, where optional, absent or null (None)."""
    if header.get("type") != cls._type:
        raise SchemaError(f"header must declare type {cls._type!r}", path=path, line=line)
    meta = _require(header, "meta", dict, path, line) if "meta" in header else {}
    for key in cls._meta_strings:
        if not isinstance(meta.get(key, ""), str):
            raise SchemaError(f"meta field {key!r} must be a string", path=path, line=line)
    values = {h.key: None if h.optional and header.get(h.key) is None
              else _require(header, h.key, h.type, path, line) for h in cls._header}
    return {**values, "meta": meta}


# The JSON types of a column's values, by the column's type.
_JSON_TYPES = {str: (str,), list: (list,), np.int64: (int,), np.float64: (int, float)}


def _decode(cls, k, body):
    """The arrays, by field, of a ``cls`` log of ``k`` classes that holds the
    entry objects ``body``. Column by column (``_by_field``), every entry
    must hold each required column, of its JSON type (see ``_require``);
    then, column by column, each value must be one its array holds."""
    columns = [list(map(dict.get, body, repeat(c.key))) for c in cls._by_field]
    for c, values in zip(cls._by_field, columns):
        types = _JSON_TYPES[c.dtype]
        if not c.optional and not set(map(type, values)) <= set(types):
            for obj in body:
                _require(obj, c.key, types)
    arrays = {}
    for c, values in zip(cls._by_field, columns):
        if c.dtype is str:  # the first field: the ids
            ids = arrays[c.field] = tuple(values)
            continue
        lengths = None
        if c.dtype is list:
            lengths = arrays["lengths"] = np.array(list(map(len, values)), dtype=np.int64)
            values = list(chain.from_iterable(values))
        arrays[c.field] = _column(values, c, cls._noun, ids, k, lengths)
    return arrays


def _column(values, column, noun, ids, k, lengths=None):
    """``values`` of ``column`` as JSON decodes them, as a read-only array
    (float64 for a score, else int64; None, where optional, as -1). The first
    value no such array holds (of another type, as a boolean is, negative or
    too large) raises a SchemaError naming the ``noun`` of id ``ids[i]`` it
    is in. With ``lengths``, ``values`` are the entries' lists flattened."""
    integer, name = column.dtype is not np.float64, column.noun or column.key
    dtype, types = (np.int64, {int}) if integer else (np.float64, {int, float})
    nones = values.count(None) if column.optional else 0
    if set(map(type, values)) <= (types | {type(None)} if nones else types):
        try:
            arr = np.array([-1 if v is None else v for v in values] if nones else values, dtype)
            if not integer or np.count_nonzero(arr < 0) == nones:
                return read_only(arr)
        except OverflowError:
            pass
    for i, v in enumerate(values):
        if v is None and column.optional:
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
            fault = f"{name} {v} out of range" + (f" [0, {k})" if k and integer else "")
        if lengths is not None:
            i = int(np.searchsorted(np.cumsum(lengths), i, side="right"))
        raise SchemaError(f"{noun} {ids[i]!r}: {fault}")


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


def _parse(cls, path):
    """Parse the ``cls`` log at ``path`` (a header line, then one entry per
    line) straight into the log's arrays; an error names path:line of the
    first faulty line. A file in the form the writer writes is read by
    ``_scan``, any other by a JSON decode of each line (``_decode``).

    A valid log takes one decode and one build. A faulty one is named by
    bisection over the prefixes of its entries: every check of ``_decode``
    and of the constructor belongs to the header or to one entry, so whether
    a prefix fails to build is monotone in its length, and the shortest
    prefix that fails ends at the first faulty entry (or is empty, for a
    faulty header). Its error is raised at that entry's line. The error of a
    malformed line ends the entries, and it is raised if those before it
    are a valid log.
    """
    with open(path, "rb") as f:
        data = f.read()
    log = _scan(cls, path, data)
    if log is not None:
        return log
    numbered, malformed = [], None
    try:
        numbered.extend(_iter_jsonl(path, io.BytesIO(data)))
    except SchemaError as e:
        if not numbered:
            raise
        malformed = e
    if not numbered:
        raise SchemaError("empty file: missing header line", path=path)
    (head_line, *lines), (header, *body) = zip(*numbered)
    head = _read_header(cls, header, path, head_line)

    def build(n):
        """The log of the first ``n`` entries, or the SchemaError building it raises."""
        try:
            return cls(**head, **_decode(cls, head["num_classes"], body[:n]))
        except SchemaError as e:
            return e

    log = build(len(body))
    if isinstance(log, SchemaError):
        n = bisect.bisect_left(range(len(body) + 1), True,
                               key=lambda n: isinstance(build(n), SchemaError))
        raise SchemaError(str(build(n)), path=path, line=lines[n - 1] if n else head_line)
    if malformed is not None:
        raise malformed
    return log


def parse_prediction_log(path) -> NeighborhoodPredictionLog:
    """Parse a neighborhood prediction log (a header, then one example per line)."""
    return _parse(NeighborhoodPredictionLog, path)


def parse_score_log(path) -> ScoreLog:
    """Parse a score log (a header, then one entry per line)."""
    return _parse(ScoreLog, path)


def _scan(cls, path, data):
    """The ``cls`` log held in the file bytes ``data`` when the file ends in a
    newline and each line after the header is in the form the writer writes,
    else None; a header the strict parse rejects raises its error. The body
    (the lines after the first) is read by ``_stride_columns`` where it
    takes a prediction log, else by ``_scan_lines``.

    Soundness of the line pattern that ``_line_pattern`` makes from the
    kind's columns: every line it matches is a JSON object the strict
    decode accepts, and each group holds the text of one of its values, as
    ``_VALUE`` reads it. The pattern is anchored at both ends of a line and
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
    are not digits and sends none of them to 0. No key or punctuation of the
    pattern holds a digit (each key is ASCII with no digit, quote or
    backslash), so every digit of the first line is in its id or in one of
    its integers, and each integer is one digit. A digit in an id, or a
    one-digit integer, may be any digit, so every line is ASCII and matches
    the pattern with its groups at the first line's columns; the newline, a
    byte that is not a digit, ends each line at the same column and nowhere
    before it. So the columns hold the values the pattern pass would
    capture, and the log is the one the pattern pass builds.
    """
    nl = data.find(b"\n")
    if nl < 0 or data[-1:] != b"\n":
        return None
    header = list(_iter_jsonl(path, [data[:nl]]))
    if not header:
        return None
    head = _read_header(cls, header[0][1], path, 1)
    # No canonical body line holds a raw \r (an id holds no control
    # character), so a body with CRLF endings anywhere is declined before
    # either read; a failed match on such a line would backtrack.
    if data.find(b"\r", nl + 1) >= 0:
        return None
    body = data[nl + 1:]
    id_bytes, arrays = (_stride_columns(body, head["num_classes"])
                        if cls is NeighborhoodPredictionLog else None) or (None, None)
    if arrays is None and (arrays := _scan_lines(cls, body)) is None:
        return None
    try:
        log = cls(**head, **arrays)
    except SchemaError:
        return None
    if id_bytes is not None:
        global _stride_ids
        _stride_ids = id_bytes, log.example_ids
    return log


def _scan_lines(cls, body):
    """The arrays, by field, of a ``cls`` log body that is UTF-8 and whose
    every line matches the kind's line pattern, from the texts its groups
    capture; else None, as when a value is beyond what its array holds (see
    ``_labels`` and ``_predictions``). See ``_scan``."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # A file of another layout throughout (spaces, say) fails on its first
    # line, so it is declined before a pass over its whole body.
    if text and not cls._line.match(text):
        return None
    matches = cls._line.findall(text)
    if len(matches) != body.count(b"\n"):
        return None
    arrays = {}
    for c, texts in zip(cls._columns, list(zip(*matches)) or [()] * len(cls._columns)):
        if c.dtype is str:
            arrays[c.field] = texts
        elif c.dtype is np.float64:
            arrays[c.field] = read_only(np.fromiter(map(float, texts), np.float64, len(texts)))
        elif c.dtype is list:
            arrays[c.field], arrays["lengths"] = _predictions(texts) or (None, None)
        else:
            arrays[c.field] = _labels(texts)
        if arrays[c.field] is None:
            return None
    return arrays


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
    """The bytes of the id column, then the arrays by field, of a prediction
    log body of ``k`` classes whose lines all have its first line's length,
    when the first line is ASCII, matches the kind's line pattern and writes
    each integer in one digit, and every other line equals it at each byte
    that is not a digit and holds a digit wherever it holds one; else None.
    The lines are read as one (lines, line length) byte matrix, each value a
    fixed column of it, and the arrays are read-only, of the log's types.
    Ids whose column equals, byte for byte, that of ``_stride_ids`` are the
    ids kept there. See ``_scan``."""
    width = body.find(b"\n") + 1
    if not width or len(body) % width or not body[:width].isascii():
        return None
    first = NeighborhoodPredictionLog._line.fullmatch(body[:width - 1].decode("ascii"))
    if (first is None or not _ONE_DIGIT_LIST.fullmatch(first["predictions"])
            or any(len(first[g] or "") > 1 for g in ("base_predictions", "true_labels"))):
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
    start, stop = first.span("example_ids")
    id_bytes = lines[:, start:stop + 1].tobytes()
    known, ids = _stride_ids
    if id_bytes != known:
        ids = tuple(id_bytes.decode("ascii").split('"')[:-1])
    start, stop = first.span("predictions")
    predictions = (lines[:, start:stop:2] - 48).astype(np.min_scalar_type(k - 1), copy=False)
    return id_bytes, {
        "example_ids": ids, "predictions": read_only(predictions.ravel()),
        "lengths": read_only(np.full(m, (stop - start + 1) // 2, dtype=np.int64)),
        "true_labels": label("true_labels"), "base_predictions": label("base_predictions"),
    }


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


# The text of each example's id in a line of a log with the constant text
# around it, for one tuple of example ids. A run shares one tuple of ids among
# all logs of one test set, so it holds a few of these for each log kind.
@functools.lru_cache(maxsize=8)
def _id_texts(example_ids: tuple, before: str, after: str) -> tuple:
    return tuple(f"{before}{_json_string(i)}{after}" for i in example_ids)


def _serialize(log) -> str:
    """The log as JSON Lines, the same bytes as sorted-key ``json.dumps``
    (``repr`` of a finite float is its JSON form). Each line is the parts of
    ``_render_plan`` (the kind's ``_plan``), and each part's texts for every line are made at once:
    a label's from one small dict per log, the ids' by ``_id_texts`` (shared
    by every log of the same ids), a list's from one buffer of all its
    values, cut at the end of each line's list."""
    header = {"type": log._type, **{h.key: getattr(log, h.key) for h in log._header
                                    if not (h.optional and getattr(log, h.key) is None)}}
    if log.meta:
        header["meta"] = log.meta
    m, n = len(log.example_ids), len(log._plan)
    parts = [""] * (n * m)
    for i, part in enumerate(log._plan):
        if isinstance(part, str):
            parts[i::n] = [part] * m
        elif isinstance(part, list) and part[0].dtype is str:
            parts[i::n] = _id_texts(log.example_ids, *part[1:3])
        elif isinstance(part, list):
            c, before, after, absent = part
            values = getattr(log, c.field).tolist()
            text = {v: f"{before}{v}{after}" for v in set(values)}
            if c.optional:  # an absent label (-1) renders as no field
                text[-1] = absent
            parts[i::n] = map(text.__getitem__, values)
        elif part.dtype is np.float64:
            parts[i::n] = map(repr, getattr(log, part.field).tolist())
        else:
            buf, ends = _render_csv_ints(getattr(log, part.field))
            # The comma after each line's last value becomes the cut.
            buf[ends[log.offsets[1:] - 1] - 1] = ord("]")
            parts[i::n] = buf.tobytes().decode("ascii").split("]")[:-1]
    return _dumps(header) + "\n" + "".join(parts)


# Each log kind's renderer: both read the kind's tables.
serialize_prediction_log = serialize_score_log = _serialize


def write_prediction_log(log: NeighborhoodPredictionLog, path, *copies) -> None:
    """Render the log once and write it to ``path`` and to each of ``copies``."""
    text = serialize_prediction_log(log)
    for target in (path, *copies):
        atomic_write_text(target, text)


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
    for i in range(n_layers):
        rows, cols = struct.unpack("<QQ", take(16))
        if not rows or not cols:  # before reshape, which rejects a dimension >= 2**63
            raise SchemaError(f"layer {i}: expected non-empty 2-D matrix", path=path)
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
