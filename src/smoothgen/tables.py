"""CSV tables exchanged between pipeline stages and the evaluation matrix join.

Scores:     model_id, train_domain, test_domain, measure, value
Accuracies: model_id, test_domain, accuracy

Every file starts with '#'-prefixed header comments recording tool version and
run provenance; readers skip them, except for a scores CSV's ``omitted=``
declaration (see ``write_scores_csv``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import __version__
from .errors import SchemaError, SmoothgenError
from .ingest import ModelRecord, atomic_write_text, read_text
from .protocol import EvaluationMatrix

SCORE_COLUMNS = ("model_id", "train_domain", "test_domain", "measure", "value")
ACCURACY_COLUMNS = ("model_id", "test_domain", "accuracy")


@dataclass(frozen=True)
class ScoreRow:
    model_id: str
    train_domain: str
    test_domain: str
    measure: str
    value: float


@dataclass(frozen=True)
class AccuracyRow:
    model_id: str
    test_domain: str
    accuracy: float


def header_comments(meta: Optional[dict] = None) -> list[str]:
    parts = [f"tool_version={__version__}"]
    for key, value in sorted((meta or {}).items()):
        parts.append(f"{key}={value}")
    return ["# smoothgen " + " ".join(parts)]


def write_csv(path, columns, rows, meta: Optional[dict] = None) -> None:
    """Header comments, then a header row of ``columns`` and ``rows``."""
    buf = io.StringIO()
    for line in header_comments(meta):
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _read_csv(path, columns):
    """The data rows of a table with their line numbers in the file, each row
    one field per column, and the (line number, text) of its comment lines."""
    f = io.StringIO(read_text(path), newline="")
    numbered, comments = [], []
    for n, ln in enumerate(f, start=1):
        (comments if ln.startswith("#") else numbered).append((n, ln))
    if not numbered:
        raise SchemaError("empty CSV", path=path)
    linenos, lines = zip(*numbered)
    reader = csv.reader(lines)
    header = next(reader)
    if tuple(header) != tuple(columns):
        raise SchemaError(
            f"unexpected columns {header!r}, want {list(columns)!r}", path=path,
            line=linenos[0],
        )
    rows = []
    for row in reader:
        lineno = linenos[reader.line_num - 1]
        if not row:
            continue  # a blank line
        if len(row) != len(columns):
            raise SchemaError(
                f"expected {len(columns)} fields, got {len(row)}", path=path, line=lineno
            )
        rows.append((lineno, row))
    return rows, comments


def _finite(text, name, path, lineno) -> float:
    """The finite float a CSV field holds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{name} {text!r} is not a finite number", path=path, line=lineno)
    return value


def write_scores_csv(rows: Iterable[ScoreRow], path, omitted=()) -> None:
    """The rows, and in the header comment the (model_id, measure) pairs of
    ``omitted``, whose rows were left out on purpose, as ``omitted=`` and a
    JSON list; a table with none has no such key."""
    ordered = sorted(rows, key=lambda r: (r.measure, r.model_id, r.test_domain))
    meta = {"omitted": json.dumps(sorted(omitted), separators=(",", ":"))} if omitted else None
    write_csv(
        path,
        SCORE_COLUMNS,
        [
            (r.model_id, r.train_domain, r.test_domain, r.measure, repr(r.value))
            for r in ordered
        ],
        meta,
    )


def _omitted(comments, path) -> frozenset:
    """The (model_id, measure) pairs that the ``omitted=`` key of the
    ``# smoothgen`` header comment, the last key of its line, declares."""
    for lineno, line in comments:
        head, key, text = line.rstrip("\r\n").partition(" omitted=")
        if key and head.startswith("# smoothgen "):
            try:
                pairs = json.loads(text)
            except ValueError:
                pairs = None
            if not (isinstance(pairs, list) and all(
                    isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                    for p in pairs)):
                raise SchemaError("omitted= must be a JSON list of [model_id, measure] pairs",
                                  path=path, line=lineno)
            return frozenset(map(tuple, pairs))
    return frozenset()


def read_scores_csv(path) -> tuple[list[ScoreRow], frozenset]:
    """The rows of a scores CSV, and the (model_id, measure) pairs its header
    comment declares left out."""
    rows, comments = _read_csv(path, SCORE_COLUMNS)
    return [
        ScoreRow(m, td, o, measure, _finite(v, "value", path, lineno))
        for lineno, (m, td, o, measure, v) in rows
    ], _omitted(comments, path)


def write_accuracies_csv(rows: Iterable[AccuracyRow], path) -> None:
    ordered = sorted(rows, key=lambda r: (r.model_id, r.test_domain))
    write_csv(
        path,
        ACCURACY_COLUMNS,
        [(r.model_id, r.test_domain, repr(r.accuracy)) for r in ordered],
    )


def _accuracy(text, path, lineno) -> float:
    """The accuracy a CSV field holds: a number in [0, 1]."""
    value = _finite(text, "accuracy", path, lineno)
    if not 0.0 <= value <= 1.0:
        raise SchemaError(f"accuracy {text!r} is outside [0, 1]", path=path, line=lineno)
    return value


def read_accuracies_csv(path) -> list[AccuracyRow]:
    return [
        AccuracyRow(m, o, _accuracy(a, path, lineno))
        for lineno, (m, o, a) in _read_csv(path, ACCURACY_COLUMNS)[0]
    ]


def require_complete(have: dict, what, path=None) -> None:
    """Raise a SchemaError, naming file ``path`` if given, for the first
    model, by id, that lacks a key another model has: the model "has
    ``what(key)``" of its first missing key. ``have`` maps each model id to
    its keys: a set, or a dict keyed by them."""
    every = set().union(*have.values())
    for model_id in sorted(have):
        missing = every.difference(have[model_id])
        if missing:
            raise SchemaError(f"model {model_id!r} has {what(min(missing))}, "
                              f"where other models have one", path)


def unique_rows(pairs):
    """One row per key from (row, source) pairs, the first of each: an
    accuracy row's key is its model and test domain, a score row's also its
    measure. Rows of one key must hold equal values."""
    uniq = {}
    for row, source in pairs:
        if isinstance(row, AccuracyRow):
            name, value = "accuracy", row.accuracy
        else:
            name, value = f"measure {row.measure!r}", row.value
        _, first_value, first_source = uniq.setdefault(
            (name, row.model_id, row.test_domain), (row, value, source))
        if first_value != value:
            raise SmoothgenError(
                f"{name} of model {row.model_id!r} on {row.test_domain!r} differs: "
                f"{first_value!r} in {first_source}, {value!r} in {source}"
            )
    return [row for row, _, _ in uniq.values()]


def build_matrix(manifest: Sequence[ModelRecord], scores: Sequence[tuple],
                 accuracies: tuple) -> EvaluationMatrix:
    """Join the rows of scores CSVs, each given as (path, rows, omitted) as
    ``read_scores_csv`` reads it, and an accuracies CSV, given as (path,
    rows), into an evaluation matrix over the converged models. The rules,
    in the order they apply; each error names its file:

    1. a scores row has its model's train_domain in the manifest;
    2. rows of one key hold one value, in the scores, then the accuracies;
    3. a scored pair has an accuracy;
    4. a converged model has an accuracy on every test domain that another
       converged model has one on;
    5. a converged model has a row of a measure on every test domain that
       another converged model has one on, unless a scores CSV declares the
       model's rows of that measure omitted.
    """
    train_domains = {m.model_id: m.train_domain for m in manifest}
    converged = [m for m in manifest if m.converged]
    known = {m.model_id for m in converged}  # unconverged and foreign rows stay out
    source = {}  # each measure's first file, for rule 5
    for path, rows, _ in scores:
        for r in rows:
            # A model the manifest lacks stays out of the join, unchecked.
            expected = train_domains.get(r.model_id, r.train_domain)
            if r.train_domain != expected:
                raise SchemaError(f"model {r.model_id!r} has train_domain {r.train_domain!r}, "
                                  f"but the manifest says {expected!r}", path)
            if r.model_id in known:
                source.setdefault(r.measure, path)
    acc_path, acc_rows = accuracies
    score_rows = unique_rows([(r, path) for path, rows, _ in scores for r in rows])
    acc_rows = unique_rows([(r, acc_path) for r in acc_rows])
    measures = {(r.model_id, r.test_domain, r.measure): r.value
                for r in score_rows if r.model_id in known}
    acc = {(r.model_id, r.test_domain): r.accuracy for r in acc_rows if r.model_id in known}
    missing = sorted({(mid, dom) for (mid, dom, _) in measures} - set(acc))
    if missing:
        raise SchemaError("missing accuracies for scored pairs: "
                          + ", ".join(f"{m}/{d}" for m, d in missing), acc_path)
    # A converged model whose logs were lost after the manifest was written
    # has no accuracies, and would leave every pool one model short.
    have = {model_id: set() for model_id in known}
    for model_id, domain in acc:
        have[model_id].add(domain)
    require_complete(have, lambda domain: f"no accuracy on test domain {domain!r}", acc_path)
    # A scores CSV that lost some of a model's rows would leave that
    # measure's pools one model short.
    domains = {}
    for model_id, domain, measure in measures:
        domains.setdefault(measure, {}).setdefault(model_id, set()).add(domain)
    declared = set().union(*(omitted for _, _, omitted in scores))
    for measure in sorted(domains):
        require_complete(
            {model_id: domains[measure].get(model_id, set()) for model_id in known
             if (model_id, measure) not in declared},
            lambda domain: f"no row of measure {measure!r} on test domain {domain!r}",
            source[measure])
    return EvaluationMatrix(measures=measures, accuracies=acc, models=tuple(converged))
