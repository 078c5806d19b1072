"""Evaluation protocol over model pools and domain pairs.

Joins per-(model, domain) measure values with actual accuracies and computes
the transfer-fit R^2 / MAE metrics plus the rank-correlation aggregates
(per-training-domain, per-domain-pair, per-test-domain pooled, cross
architecture, and per-model across test domains). Pairs or domains where a
statistic is undefined are skipped, recorded, and excluded from averages.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import DegenerateSampleError, SchemaError
from .ingest import ModelRecord
from .stats import LinearFit, kendall_tau, mae, ols_fit, r_squared

MeasureKey = tuple[str, str, str]  # (model_id, test_domain, measure)
AccuracyKey = tuple[str, str]  # (model_id, test_domain)

# Measures whose values are already accuracy predictions; they bypass the
# transfer fit and are used directly for R^2 / MAE.
DIRECT_MEASURE_PREFIXES = ("atc_",)


class SkipPair(DegenerateSampleError):
    """A (train, test) pair or domain cannot be evaluated and is excluded."""


@dataclass(frozen=True)
class EvaluationMatrix:
    measures: dict[MeasureKey, float]
    accuracies: dict[AccuracyKey, float]
    models: tuple[ModelRecord, ...]

    def __post_init__(self):
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate model_id in evaluation matrix")
        if any(not m.converged for m in self.models):
            raise SchemaError("unconverged models must be excluded from the matrix")
        known = set(ids)
        for model_id, domain, measure in self.measures:
            if model_id not in known:
                raise SchemaError(f"measure for unknown model {model_id!r}")
            if (model_id, domain) not in self.accuracies:
                raise SchemaError(
                    f"missing accuracy for ({model_id!r}, {domain!r}) "
                    f"required by measure {measure!r}"
                )

    # Derived once per matrix: the report reads them for every group and fit.
    @cached_property
    def training_domains(self) -> list[str]:
        """The models' training domains, sorted."""
        return sorted({m.train_domain for m in self.models})

    @cached_property
    def all_domains(self) -> list[str]:
        """The training domains and every domain with an accuracy, sorted."""
        return sorted({*self.training_domains, *(domain for _, domain in self.accuracies)})

    @property
    def archs(self) -> list[str]:
        return sorted({m.arch for m in self.models})

    def measure_names(self) -> list[str]:
        return sorted({k[2] for k in self.measures})


def is_direct_measure(name: str) -> bool:
    return name.startswith(DIRECT_MEASURE_PREFIXES)


# The report's layout, one row per aggregate, in the column order of
# ``smoothgen report``: its value key in a measure's entry, its group kind in
# ``_groups``, its breakdown table with that table's key columns, and its list
# of skipped groups. The kind ``fit`` marks the values, R^2 and MAE in their
# order here, of one transfer-fit pass over the ``pair`` groups; they share its
# skipped list.
Aggregate = namedtuple("Aggregate", "value kind table keys skipped")
PAIR_KEYS = ("train_domain", "test_domain")
REPORT_LAYOUT = (
    Aggregate("r2", "fit", "r2_pairs", PAIR_KEYS, "r2_mae"),
    Aggregate("mae_pct", "fit", "mae_pairs", PAIR_KEYS, "r2_mae"),
    Aggregate("macro_tau", "pair", "macro_pairs", PAIR_KEYS, "macro"),
    Aggregate("micro_tau", "micro", "micro_groups", ("arch", "test_domain"), "micro"),
    Aggregate("id_tau", "id", "id_domains", ("domain",), "id"),
    Aggregate("arch_tau", "arch", "arch_domains", ("test_domain",), "arch"),
    Aggregate("cross_domain_tau", "cross", "cross_domain_models", ("model_id", "arch"),
              "cross_domain"),
)


def _cells(matrix: EvaluationMatrix, measure: str, domain: str, models) -> list:
    """(model_id, domain) cells, in the models' order, of the models that have
    a value of the measure on the domain."""
    return [(m.model_id, domain) for m in models
            if (m.model_id, domain, measure) in matrix.measures]


def _groups(matrix: EvaluationMatrix, measure: str, kind: str):
    """(key, cells, noun) for every group of one kind: ``id``, each training
    domain's models on it; ``pair``, training domain i's models on a domain
    o != i, for pairs with a cell; ``micro``, per (arch, o), that arch's models
    from training domains other than o; ``arch``, the same pools over all
    archs; ``cross``, each model's out-of-domain cells."""
    training, domains = matrix.training_domains, matrix.all_domains
    trained_on = {i: [m for m in matrix.models if m.train_domain == i] for i in training}

    def pooled(o, arch=None):
        return [m for m in matrix.models if m.train_domain != o
                and m.train_domain in trained_on and arch in (None, m.arch)]

    if kind == "id":
        for i in training:
            yield (i,), _cells(matrix, measure, i, trained_on[i]), "in-domain models"
    elif kind == "pair":
        for i, o in ((i, o) for i in training for o in domains if o != i):
            cells = _cells(matrix, measure, o, trained_on[i])
            if cells:
                yield (i, o), cells, "evaluated models"
    elif kind == "micro":
        for arch in matrix.archs:
            for o in domains:
                yield (arch, o), _cells(matrix, measure, o, pooled(o, arch)), "pooled models"
    elif kind == "arch":
        for o in domains:
            yield (o,), _cells(matrix, measure, o, pooled(o)), "pooled models"
    elif kind == "cross":
        for m in matrix.models:
            cells = [(m.model_id, o) for o in domains
                     if o != m.train_domain and (m.model_id, o, measure) in matrix.measures]
            yield (m.model_id,), cells, "OOD evaluations"
    else:
        raise ValueError(f"unknown group kind {kind!r}")


def _sample(matrix: EvaluationMatrix, measure: str, cells) -> tuple[list, list]:
    return ([matrix.measures[(model_id, domain, measure)] for model_id, domain in cells],
            [matrix.accuracies[cell] for cell in cells])


def _aggregate(matrix: EvaluationMatrix, measure: str, kind: str, stat):
    """Rows of (key..., stat(key, xs, ys)) and skipped rows of (key..., reason).

    A group with fewer than two cells, or one on which ``stat`` raises a
    ``DegenerateSampleError``, is skipped with the reason; any other error
    (a length mismatch, a non-finite value) raises.
    """
    rows, skipped = [], []
    for key, cells, noun in _groups(matrix, measure, kind):
        if len(cells) < 2:
            skipped.append((*key, f"only {len(cells)} {noun}"))
            continue
        try:
            rows.append((*key, stat(key, *_sample(matrix, measure, cells))))
        except DegenerateSampleError as e:
            skipped.append((*key, str(e)))
    return rows, skipped


def fit_transfer_model(
    matrix: EvaluationMatrix, measure: str, train_domain: str, test_domain: str
) -> LinearFit:
    """OLS fit of accuracy against measure over models from other domains.

    The pool excludes models trained on either the training domain under
    evaluation or the test domain itself.
    """
    others = set(matrix.training_domains) - {train_domain, test_domain}
    pool = _cells(matrix, measure, test_domain,
                  [m for m in matrix.models if m.train_domain in others])
    if len(pool) < 2:
        raise SkipPair(f"pool too small for ({train_domain}, {test_domain}): "
                       f"{len(pool)} models")
    try:
        return ols_fit(*_sample(matrix, measure, pool))
    except DegenerateSampleError as e:
        raise SkipPair(f"degenerate pool for ({train_domain}, {test_domain}): {e}")


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def build_report(matrix: EvaluationMatrix, tau_variant: str = "b") -> dict:
    """Full metric table for every measure, JSON-serializable, stable order.

    Each measure's entry holds, for every row of ``REPORT_LAYOUT``, the mean
    of its groups' values, its breakdown rows and its skipped groups. R^2 and
    MAE (in accuracy percentage points) compare each pair's accuracies with
    the transfer fit's predictions, or with a direct measure's values as
    they are. ``arch_tau`` is absent (None, no groups) for a matrix of one
    architecture. The cross-domain rows carry each model's architecture, and
    ``cross_domain_tau_per_arch`` averages them per architecture.
    """
    arch_of = {m.model_id: m.arch for m in matrix.models}
    fit_rows = [agg for agg in REPORT_LAYOUT if agg.kind == "fit"]

    def tau(key, xs, ys):
        # kendall_tau is looked up at call time, so a wrapper set on this module applies
        return kendall_tau(xs, ys, variant=tau_variant)

    report = {"tau_variant": tau_variant, "measures": {}}
    for measure in matrix.measure_names():
        direct = is_direct_measure(measure)

        def r2_and_mae(key, xs, ys):
            if not direct:
                fit = fit_transfer_model(matrix, measure, *key)
                xs = [fit.predict(x) for x in xs]
            return r_squared(xs, ys), 100.0 * mae(xs, ys)

        fits, fit_skipped = _aggregate(matrix, measure, "pair", r2_and_mae)
        entry = {"breakdown": {}, "skipped": {}}
        for agg in REPORT_LAYOUT:
            if agg.kind == "fit":
                column = fit_rows.index(agg)
                rows, skipped = [(i, o, fit[column]) for i, o, fit in fits], fit_skipped
            elif agg.kind == "arch" and len(matrix.archs) < 2:
                rows, skipped = [], [("*", "single architecture")]
            else:
                rows, skipped = _aggregate(matrix, measure, agg.kind, tau)
            if agg.kind == "cross":
                rows = [(model_id, arch_of[model_id], t) for model_id, t in rows]
                entry["cross_domain_tau_per_arch"] = {
                    arch: _mean([t for _, a, t in rows if a == arch])
                    for arch in sorted({arch for _, arch, _ in rows})}
            entry[agg.value] = _mean([r[-1] for r in rows])
            entry["breakdown"][agg.table] = [list(r) for r in rows]
            entry["skipped"][agg.skipped] = [list(r) for r in skipped]
        report["measures"][measure] = entry
    return report
