import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen.errors import SchemaError
from smoothgen.ingest import NeighborhoodPredictionLog
from smoothgen.smoothness import (
    VARIANTS,
    dataset_smoothness,
    neg_entropy,
    subsample_examples,
    truncate_neighborhood,
)

from logrows import ExampleEntry, log_from_rows


# The per-example oracle: the paper's measure for one test example, from its
# list of neighbourhood predictions. ``dataset_smoothness`` must equal the
# mean of its scores, summed left to right, bit for bit.
@dataclass(frozen=True)
class DecisionDistribution:
    """Per-class histogram of neighborhood predictions."""

    counts: tuple[int, ...]
    n: int

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.counts)


@dataclass(frozen=True)
class SmoothnessScore:
    mu: float
    dominant_label: int
    neg_entropy: float


def decision_distribution(predictions: Sequence[int], k: int) -> DecisionDistribution:
    """Count predicted classes over a neighborhood sample."""
    if len(predictions) == 0:
        raise SchemaError("empty prediction list")
    counts = [0] * k
    for p in predictions:
        if not 0 <= p < k:
            raise SchemaError(f"prediction {p} out of range [0, {k})")
        counts[p] += 1
    return DecisionDistribution(counts=tuple(counts), n=len(predictions))


def dominant_label(dist: DecisionDistribution) -> int:
    """Most frequent class; ties break to the lowest class index."""
    return max(range(len(dist.counts)), key=lambda j: (dist.counts[j], -j))


def smoothness(predictions: Sequence[int], k: int) -> SmoothnessScore:
    """Fraction of neighborhood predictions in the dominant class.

    mu is formed as an exact count ratio before conversion to float, so equal
    fractions compare equal downstream regardless of n.
    """
    dist = decision_distribution(predictions, k)
    y_hat = dominant_label(dist)
    mu = Fraction(dist.counts[y_hat], dist.n)
    return SmoothnessScore(
        mu=float(mu), dominant_label=y_hat, neg_entropy=neg_entropy(dist.counts)
    )


def naive_smoothness(predictions, k):
    """Independent recount oracle: Counter + exact rational arithmetic."""
    counts = Counter(predictions)
    best = max(counts.values())
    y_hat = min(j for j, c in counts.items() if c == best)
    mu = Fraction(best, len(predictions))
    ent = sum(
        Fraction(c, len(predictions)) * math.log(c / len(predictions))
        for c in counts.values()
    )
    return float(mu), y_hat, float(ent)


def make_log(example_preds, k=3, **kwargs):
    examples = tuple(
        ExampleEntry(example_id=f"e{i}", neighborhood_predictions=tuple(p))
        for i, p in enumerate(example_preds)
    )
    defaults = dict(model_id="m0", test_domain="d0", num_classes=k)
    defaults.update(kwargs)
    return log_from_rows(NeighborhoodPredictionLog, examples, **defaults)


class TestDecisionDistribution:
    def test_counts(self):
        dist = decision_distribution([0, 1, 1, 2, 1], k=3)
        assert dist.counts == (1, 3, 1)
        assert dist.n == 5
        assert dist.probs == (0.2, 0.6, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            decision_distribution([], k=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(SchemaError):
            decision_distribution([0, 3], k=3)


class TestSmoothness:
    def test_unanimous(self):
        s = smoothness([1, 1, 1, 1], k=3)
        assert s.mu == 1.0
        assert s.dominant_label == 1
        assert s.neg_entropy == 0.0

    def test_majority_fraction(self):
        s = smoothness([0, 0, 0, 2, 1], k=3)
        assert s.mu == 0.6
        assert s.dominant_label == 0

    def test_tie_breaks_to_lowest_class(self):
        s = smoothness([2, 2, 0, 0], k=3)
        assert s.dominant_label == 0
        assert s.mu == 0.5

    def test_single_sample_is_perfectly_smooth(self):
        # with one neighborhood sample the dominant class trivially covers it
        s = smoothness([2], k=3)
        assert s.mu == 1.0
        assert s.dominant_label == 2

    def test_neg_entropy_uniform(self):
        dist = decision_distribution([0, 1, 2], k=3)
        assert neg_entropy(dist.counts) == pytest.approx(-math.log(3))

    def test_neg_entropy_peaked_is_zero(self):
        dist = decision_distribution([1, 1], k=3)
        assert neg_entropy(dist.counts) == 0.0

    def test_matches_naive_recount(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, k, size=n).tolist()
            s = smoothness(preds, k)
            mu, y_hat, ent = naive_smoothness(preds, k)
            assert s.mu == mu
            assert s.dominant_label == y_hat
            assert s.neg_entropy == pytest.approx(ent, abs=1e-12)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, preds, rnd):
        shuffled = list(preds)
        rnd.shuffle(shuffled)
        a = smoothness(preds, 4)
        b = smoothness(shuffled, 4)
        assert a.mu == b.mu
        assert a.dominant_label == b.dominant_label
        assert a.neg_entropy == b.neg_entropy

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_class_relabel_equivariance(self, preds):
        # reversing the class ids must not change mu or neg_entropy
        relabeled = [3 - p for p in preds]
        a = smoothness(preds, 4)
        b = smoothness(relabeled, 4)
        assert a.mu == b.mu
        # summation order differs, so allow float round-off
        assert a.neg_entropy == pytest.approx(b.neg_entropy, abs=1e-12)


class TestDatasetSmoothness:
    def test_mean_over_examples(self):
        log = make_log([[0, 0, 0, 0], [0, 0, 1, 2], [1, 2, 1, 2]])
        assert dataset_smoothness(log) == pytest.approx((1.0 + 0.5 + 0.5) / 3)

    def test_neg_entropy_variant(self):
        log = make_log([[0, 0], [0, 1]])
        expected = (0.0 + math.log(0.5)) / 2
        assert dataset_smoothness(log, "neg_entropy") == pytest.approx(expected)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            dataset_smoothness(make_log([[0]]), "median")

    @given(
        st.integers(2, 5).flatmap(lambda k: st.tuples(
            st.just(k),
            st.one_of(
                # uniform: every example has the same number of samples
                st.integers(1, 12).flatmap(lambda n: st.lists(
                    st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
                    min_size=1, max_size=30)),
                # ragged
                st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=12),
                         min_size=1, max_size=30),
            ),
        ))
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_loop_over_per_example_scores(self, k_and_preds):
        k, example_preds = k_and_preds
        log = make_log(example_preds, k=k)
        for variant, attr in (("majority", "mu"), ("neg_entropy", "neg_entropy")):
            total = 0.0
            for preds in example_preds:
                total += getattr(smoothness(preds, k), attr)
            assert dataset_smoothness(log, variant) == total / len(example_preds)

    def test_empty_log(self):
        log = log_from_rows(NeighborhoodPredictionLog, (),
                            model_id="m", test_domain="d", num_classes=2)
        with pytest.raises(SchemaError):
            dataset_smoothness(log)


def renumbered(predictions):
    """The predictions with their classes renumbered 0, 1, ... in class order,
    and the number of classes that occur."""
    classes = sorted(set(predictions))
    return [classes.index(p) for p in predictions], len(classes)


class TestManyClasses:
    """Logs whose (example, class) histogram would not fit in memory."""

    @pytest.mark.parametrize("k, m", [(2**40, 3), (70_000, 2_000)])
    def test_equals_loop_over_per_example_scores(self, k, m):
        rng = np.random.default_rng(0)
        # Each example draws its 10 predictions from 3 classes of its own.
        classes = rng.integers(0, k, size=(m, 3))
        classes[0, 0] = k - 1
        preds = np.take_along_axis(classes, rng.integers(0, 3, size=(m, 10)), axis=1)
        log = NeighborhoodPredictionLog(
            model_id="m", test_domain="d", num_classes=k,
            example_ids=tuple(f"e{i}" for i in range(m)), predictions=preds.ravel(),
            lengths=np.full(m, 10), true_labels=np.full(m, -1),
            base_predictions=np.full(m, -1))
        tracemalloc.start()
        try:
            scores = {variant: dataset_smoothness(log, variant) for variant in VARIANTS}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The (m, k) int64 histogram alone would take 1.1 GB for 70,000 classes.
        assert peak < 8 * 2**20
        # smoothness() of renumbered classes gives the same mu and, summing
        # the same counts in the same order, the same negative entropy.
        for variant, attr in (("majority", "mu"), ("neg_entropy", "neg_entropy")):
            total = 0.0
            for p in preds.tolist():
                total += getattr(smoothness(*renumbered(p)), attr)
            assert scores[variant] == total / m


class TestSubsample:
    def test_size_and_order(self):
        log = make_log([[i % 3] for i in range(20)])
        sub = subsample_examples(log, 7, seed=3)
        assert len(sub.example_ids) == 7
        ids = list(sub.example_ids)
        full = list(log.example_ids)
        assert ids == sorted(ids, key=full.index)  # log order preserved

    def test_nested_across_sizes(self):
        log = make_log([[i % 3] for i in range(50)])
        small = set(subsample_examples(log, 10, seed=5).example_ids)
        large = set(subsample_examples(log, 30, seed=5).example_ids)
        assert small <= large

    def test_full_size_is_identity(self):
        log = make_log([[0], [1], [2]])
        assert subsample_examples(log, 3, seed=0) == log

    def test_bad_size(self):
        log = make_log([[0], [1]])
        with pytest.raises(ValueError):
            subsample_examples(log, 0, seed=0)
        with pytest.raises(ValueError):
            subsample_examples(log, 3, seed=0)


class TestTruncate:
    def test_keeps_prefix(self):
        log = make_log([[0, 1, 2, 0], [1, 1, 0, 2]])
        cut = truncate_neighborhood(log, 2)
        assert cut.predictions.tolist() == [0, 1, 1, 1]
        assert cut.lengths.tolist() == [2, 2]

    def test_too_long_rejected(self):
        log = make_log([[0, 1], [1]])
        with pytest.raises(ValueError):
            truncate_neighborhood(log, 2)

    def test_n_keep_positive(self):
        with pytest.raises(ValueError):
            truncate_neighborhood(make_log([[0]]), 0)
