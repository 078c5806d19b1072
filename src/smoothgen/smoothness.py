"""Neighborhood smoothness scores for black-box classifiers.

For each test example we are given the classes a classifier predicted on n
points sampled near it. The per-example score is the fraction of those
predictions that fall in the most common class (with a negative-entropy
alternative over the full per-class histogram); the dataset score is the
mean over examples.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import SchemaError
from .ingest import NeighborhoodPredictionLog, read_only

VARIANTS = ("majority", "neg_entropy")


def neg_entropy(counts: Sequence[int]) -> float:
    """Sum of p log p over a per-class histogram of predictions, p = c / n with
    n the histogram's total (natural log, 0 log 0 = 0), summed in class order."""
    n = sum(counts)
    return sum((c / n) * math.log(c / n) for c in counts if c > 0)


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-D array and, for each row, its distinct row's index."""
    order = np.lexsort(a.T)
    ordered = a[order]
    starts = np.ones(len(a), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def dataset_smoothness(log: NeighborhoodPredictionLog, variant: str = "majority") -> float:
    """Mean per-example smoothness over all examples in the log.

    One (m, k) histogram counts every example's predictions; when it would be
    large next to the predictions (many classes), only its occupied cells are
    counted, each example's in class order. Each example's score is its
    dominant class's count over its number of predictions (negative entropy
    is computed by ``neg_entropy`` once per distinct histogram row), and the
    scores are summed left to right, so the mean is bit-identical to a loop
    over the per-example oracle in ``tests/test_smoothness.py``.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    m = len(log.example_ids)
    if m == 0:
        raise SchemaError("cannot score a log with no examples")
    k = log.num_classes
    cells = log.example_index()
    if m * k <= 8 * len(log.predictions):
        cells *= k
        # uint64 predictions (over 2**32 classes) add to int64 cells only by an
        # explicit cast; every class is below 2**63.
        np.add(cells, log.predictions, out=cells, casting="unsafe")
        hist = np.bincount(cells, minlength=m * k).reshape(m, k)
        if variant == "majority":
            per_example = hist.max(axis=1) / log.lengths
        else:
            rows, inverse = _distinct_rows(hist)
            per_example = np.array([neg_entropy(r) for r in rows.tolist()])[inverse]
    else:
        # Classes renumbered in order among those that occur, so that no cell
        # index overflows; every example has at least one occupied cell.
        classes, ranks = np.unique(log.predictions, return_inverse=True)
        cells *= len(classes)
        cells += ranks
        occupied, counts = np.unique(cells, return_counts=True)
        starts = np.flatnonzero(np.diff(occupied // len(classes), prepend=-1))
        if variant == "majority":
            per_example = np.maximum.reduceat(counts, starts) / log.lengths
        else:
            per_example = np.array([
                neg_entropy(c.tolist()) for c in np.split(counts, starts[1:])
            ])
    return float(np.cumsum(per_example)[-1] / m)


def check_subsample_size(log: NeighborhoodPredictionLog, size: int) -> None:
    """Raise ValueError unless the log has at least ``size`` >= 1 examples."""
    m = len(log.example_ids)
    if not 1 <= size <= m:
        raise ValueError(f"size must be in [1, {m}], got {size}")


def subsample_examples(
    log: NeighborhoodPredictionLog, size: int, seed: int
) -> NeighborhoodPredictionLog:
    """Uniform subsample of examples without replacement, preserving log order.

    Nested across sizes: for the same seed the size-s subsample is a subset of
    the size-s' subsample whenever s < s'.
    """
    check_subsample_size(log, size)
    m = len(log.example_ids)
    order = np.random.default_rng(seed).permutation(m)
    keep = np.zeros(m, dtype=bool)
    keep[order[:size]] = True
    return replace(
        log,
        example_ids=tuple(compress(log.example_ids, keep)),
        predictions=read_only(log.predictions[np.repeat(keep, log.lengths)]),
        lengths=read_only(log.lengths[keep]),
        true_labels=read_only(log.true_labels[keep]),
        base_predictions=read_only(log.base_predictions[keep]),
    )


def check_neighborhood_length(log: NeighborhoodPredictionLog, n_keep: int) -> None:
    """Raise ValueError unless every example has at least ``n_keep`` >= 1 predictions."""
    if n_keep < 1:
        raise ValueError(f"n_keep must be >= 1, got {n_keep}")
    short = log.lengths < n_keep
    if short.any():
        raise ValueError(
            f"n_keep={n_keep} exceeds neighborhood length of example "
            f"{log.example_ids[int(short.argmax())]!r}"
        )


def truncate_neighborhood(
    log: NeighborhoodPredictionLog, n_keep: int
) -> NeighborhoodPredictionLog:
    """Keep the first n_keep neighborhood predictions of every example."""
    check_neighborhood_length(log, n_keep)
    return replace(
        log,
        predictions=read_only(
            log.predictions[(log.offsets[:-1, None] + np.arange(n_keep)).ravel()]),
        lengths=read_only(np.full(len(log.lengths), n_keep, dtype=np.int64)),
    )
