"""Logs built from rows for tests: each field of the rows becomes an array."""

import numpy as np

from smoothgen.ingest import NeighborhoodPredictionLog


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
