"""CSV tables exchanged between pipeline stages and the evaluation matrix join.

Scores:     model_id, train_domain, test_domain, measure, value
Accuracies: model_id, test_domain, accuracy

Every file starts with '#'-prefixed header comments recording tool version and
run provenance; readers skip them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import __version__
from .errors import SchemaError
from .ingest import ModelRecord, atomic_write_text
from .protocol import DomainInfo, EvaluationMatrix

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
    """The data rows of a table with their line numbers in the file; each row
    has one field per column."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        numbered = [(n, ln) for n, ln in enumerate(f, start=1) if not ln.startswith("#")]
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
    return rows


def _finite(text, name, path, lineno) -> float:
    """The finite float a CSV field holds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{name} {text!r} is not a finite number", path=path, line=lineno)
    return value


def write_scores_csv(rows: Iterable[ScoreRow], path, meta: Optional[dict] = None) -> None:
    ordered = sorted(rows, key=lambda r: (r.measure, r.model_id, r.test_domain))
    write_csv(
        path,
        SCORE_COLUMNS,
        [
            (r.model_id, r.train_domain, r.test_domain, r.measure, repr(r.value))
            for r in ordered
        ],
        meta,
    )


def read_scores_csv(path) -> list[ScoreRow]:
    return [
        ScoreRow(m, td, o, measure, _finite(v, "value", path, lineno))
        for lineno, (m, td, o, measure, v) in _read_csv(path, SCORE_COLUMNS)
    ]


def write_accuracies_csv(
    rows: Iterable[AccuracyRow], path, meta: Optional[dict] = None
) -> None:
    ordered = sorted(rows, key=lambda r: (r.model_id, r.test_domain))
    write_csv(
        path,
        ACCURACY_COLUMNS,
        [(r.model_id, r.test_domain, repr(r.accuracy)) for r in ordered],
        meta,
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
        for lineno, (m, o, a) in _read_csv(path, ACCURACY_COLUMNS)
    ]


def build_matrix(
    manifest: Sequence[ModelRecord],
    scores: Sequence[ScoreRow],
    accuracies: Sequence[AccuracyRow],
) -> EvaluationMatrix:
    """Join CSV rows into an evaluation matrix over converged models only."""
    converged = [m for m in manifest if m.converged]
    known = {m.model_id for m in converged}
    train_domains = {m.train_domain for m in converged}
    measures = {}
    for r in scores:
        if r.model_id not in known:
            continue  # unconverged or foreign model: excluded from pools
        measures[(r.model_id, r.test_domain, r.measure)] = r.value
    acc = {
        (r.model_id, r.test_domain): r.accuracy
        for r in accuracies
        if r.model_id in known
    }
    missing = sorted(
        {(mid, dom) for (mid, dom, _) in measures} - set(acc)
    )
    if missing:
        raise SchemaError(
            "missing accuracies for scored pairs: "
            + ", ".join(f"{m}/{d}" for m, d in missing)
        )
    domain_ids = sorted(
        train_domains | {d for (_, d) in acc} | {d for (_, d, _) in measures}
    )
    domains = tuple(
        DomainInfo(domain_id=d, is_training=d in train_domains) for d in domain_ids
    )
    return EvaluationMatrix(
        measures=measures,
        accuracies=acc,
        models=tuple(converged),
        domains=domains,
    )
