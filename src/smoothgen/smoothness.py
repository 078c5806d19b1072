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
from typing import Sequence

import numpy as np

from .errors import SchemaError
from .ingest import NeighborhoodPredictionLog, kept_ids, read_only

VARIANTS = ("majority", "neg_entropy")


def neg_entropy(counts: Sequence[int]) -> float:
    """Sum of p log p over a per-class histogram of predictions, p = c / n with
    n the histogram's total (natural log, 0 log 0 = 0), summed in class order."""
    n = sum(counts)
    total = 0.0
    # Left to right: the builtin sum() of floats is compensated from Python 3.12.
    for c in counts:
        if c > 0:
            total += (c / n) * math.log(c / n)
    return total


def _entropy_terms(hist: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``(c / n) * math.log(c / n)`` for each count c of the (m, k) histogram,
    n its row's length (0.0 where c is 0), looked up in a table of the
    (count, length) pairs that occur. Each distinct length n has a block of
    n + 1 cells, one per count, so the table has at most as many cells as
    the predictions and examples together."""
    seen = np.zeros(int(lengths.max()) + 1, dtype=bool)
    seen[lengths] = True
    distinct = np.flatnonzero(seen)
    ends = np.cumsum(distinct + 1)
    block = np.zeros(len(seen), dtype=np.int64)  # each length's first cell
    block[distinct] = ends - distinct - 1
    keys = hist + block[lengths][:, None]
    present = np.zeros(int(ends[-1]), dtype=bool)
    present[keys] = True
    cells = np.flatnonzero(present)
    length = distinct[np.searchsorted(ends, cells, side="right")]
    table = np.zeros(len(present))
    table[cells] = [(c / n) * math.log(c / n) if c else 0.0
                    for c, n in zip((cells - block[length]).tolist(), length.tolist())]
    return table[keys]


def dataset_smoothness(log: NeighborhoodPredictionLog, variant: str = "majority") -> float:
    """Mean per-example smoothness over all examples in the log.

    One (m, k) histogram counts every example's predictions; when it would be
    large next to the predictions (many classes), only its occupied cells are
    counted, each example's in class order. Each example's score is its
    dominant class's count over its number of predictions, or its negative
    entropy, and the scores are summed left to right, so the mean is
    bit-identical to a loop over the per-example oracle in
    ``tests/test_smoothness.py``.

    On the (m, k) histogram, the dominant count is a running ``np.maximum``
    over the k columns, and the entropy adds the k columns of
    ``_entropy_terms`` left to right: the terms ``neg_entropy`` adds, made
    by the same Python arithmetic, added as IEEE adds, with 0.0 for a zero
    count, which changes no sum, as no term is -0.0.
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
            columns = hist.T
            best = columns[0].copy()
            for column in columns[1:]:
                np.maximum(best, column, out=best)
            per_example = best / log.lengths
        else:
            columns = _entropy_terms(hist, log.lengths).T
            per_example = columns[0].copy()
            for column in columns[1:]:
                per_example += column
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
        example_ids=kept_ids(log.example_ids, keep),
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
