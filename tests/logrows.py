"""Logs as rows for tests: a log built from rows, each field of the rows
becoming an array, and the rows of a log, for tests that compare whole rows."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from smoothgen.ingest import NeighborhoodPredictionLog, ScoreLog


@dataclass(frozen=True)
class ExampleEntry:
    """One example of a prediction log, as a row (labels None where absent)."""

    example_id: str
    neighborhood_predictions: tuple[int, ...]
    true_label: Optional[int] = None
    base_prediction: Optional[int] = None


@dataclass(frozen=True)
class ScoreEntry:
    """One entry of a score log, as a row (true_label None where absent)."""

    example_id: str
    predicted_label: int
    max_confidence: float
    neg_entropy: float
    true_label: Optional[int] = None


def log_from_rows(cls, rows, **fields):
    """A ``cls`` log (a NeighborhoodPredictionLog of ExampleEntry rows, or a
    ScoreLog of ScoreEntry rows) holding ``rows``, absent labels as -1;
    ``fields`` are the log's other fields."""
    rows = tuple(rows)

    def column(name, dtype=np.int64):
        values = (getattr(row, name) for row in rows)
        return np.array([-1 if v is None else v for v in values], dtype=dtype)

    if cls is NeighborhoodPredictionLog:
        neighborhoods = [row.neighborhood_predictions for row in rows]
        arrays = dict(
            predictions=np.array([p for ps in neighborhoods for p in ps], dtype=np.int64),
            lengths=np.array([len(ps) for ps in neighborhoods], dtype=np.int64),
            true_labels=column("true_label"),
            base_predictions=column("base_prediction"),
        )
    else:
        arrays = dict(
            predicted_labels=column("predicted_label"),
            max_confidence=column("max_confidence", np.float64),
            neg_entropy=column("neg_entropy", np.float64),
            true_labels=column("true_label"),
        )
    return cls(example_ids=tuple(row.example_id for row in rows), **arrays, **fields)


def log_rows(log: NeighborhoodPredictionLog | ScoreLog) -> list:
    """The rows of ``log``, the inverse of ``log_from_rows``: ExampleEntry rows
    of a prediction log, ScoreEntry rows of a score log, -1 labels as None."""
    def label(v):
        return None if v == -1 else v

    if isinstance(log, NeighborhoodPredictionLog):
        neighborhoods = np.split(log.predictions, log.offsets[1:-1])
        return [
            ExampleEntry(i, tuple(p.tolist()), label(t), label(b))
            for i, p, t, b in zip(log.example_ids, neighborhoods,
                                  log.true_labels.tolist(), log.base_predictions.tolist())
        ]
    return [
        ScoreEntry(i, p, c, e, label(t))
        for i, p, c, e, t in zip(log.example_ids, log.predicted_labels.tolist(),
                                 log.max_confidence.tolist(), log.neg_entropy.tolist(),
                                 log.true_labels.tolist())
    ]
