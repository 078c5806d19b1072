"""Evaluation protocol over model pools and domain pairs.

Joins per-(model, domain) measure values with actual accuracies and computes
the transfer-fit R^2 / MAE metrics plus the rank-correlation aggregates
(per-training-domain, per-domain-pair, per-test-domain pooled, cross
architecture, and per-model across test domains). Pairs or domains where a
statistic is undefined are skipped, recorded, and excluded from averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
class DomainInfo:
    domain_id: str
    is_training: bool


@dataclass(frozen=True)
class EvaluationMatrix:
    measures: dict[MeasureKey, float]
    accuracies: dict[AccuracyKey, float]
    models: tuple[ModelRecord, ...]
    domains: tuple[DomainInfo, ...]

    def __post_init__(self):
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate model_id in evaluation matrix")
        if any(not m.converged for m in self.models):
            raise SchemaError("unconverged models must be excluded from the matrix")
        domain_ids = {d.domain_id for d in self.domains}
        for m in self.models:
            if m.train_domain not in domain_ids:
                raise SchemaError(
                    f"model {m.model_id!r}: train_domain {m.train_domain!r} "
                    "not in domain list"
                )
        known = set(ids)
        for model_id, domain, measure in self.measures:
            if model_id not in known:
                raise SchemaError(f"measure for unknown model {model_id!r}")
            if domain not in domain_ids:
                raise SchemaError(f"measure for unknown domain {domain!r}")
            if (model_id, domain) not in self.accuracies:
                raise SchemaError(
                    f"missing accuracy for ({model_id!r}, {domain!r}) "
                    f"required by measure {measure!r}"
                )

    @property
    def training_domains(self) -> list[str]:
        return [d.domain_id for d in self.domains if d.is_training]

    @property
    def all_domains(self) -> list[str]:
        return [d.domain_id for d in self.domains]

    @property
    def archs(self) -> list[str]:
        return sorted({m.arch for m in self.models})

    def measure_names(self) -> list[str]:
        return sorted({k[2] for k in self.measures})

    def scored_models(self, measure: str, domain: str, train_domains=None, archs=None):
        """Models with both a measure value and an accuracy on the domain."""
        out = []
        for m in self.models:
            if train_domains is not None and m.train_domain not in train_domains:
                continue
            if archs is not None and m.arch not in archs:
                continue
            key = (m.model_id, domain, measure)
            if key in self.measures:
                out.append(m)
        return out

    def pairs(self, measure: str):
        """Ordered (train, test) pairs i != o with at least one scored model."""
        out = []
        for i in self.training_domains:
            for o in self.all_domains:
                if o == i:
                    continue
                if self.scored_models(measure, o, train_domains={i}):
                    out.append((i, o))
        return out


def is_direct_measure(name: str) -> bool:
    return name.startswith(DIRECT_MEASURE_PREFIXES)


def _sample(matrix: EvaluationMatrix, measure: str, domain: str, models) -> tuple[list, list]:
    xs = [matrix.measures[(m.model_id, domain, measure)] for m in models]
    ys = [matrix.accuracies[(m.model_id, domain)] for m in models]
    return xs, ys


def fit_transfer_model(
    matrix: EvaluationMatrix, measure: str, train_domain: str, test_domain: str
) -> LinearFit:
    """OLS fit of accuracy against measure over models from other domains.

    The pool excludes models trained on either the training domain under
    evaluation or the test domain itself.
    """
    pool = matrix.scored_models(
        measure,
        test_domain,
        train_domains=set(matrix.training_domains) - {train_domain, test_domain},
    )
    if len(pool) < 2:
        raise SkipPair(
            f"pool too small for ({train_domain}, {test_domain}): {len(pool)} models"
        )
    xs, ys = _sample(matrix, measure, test_domain, pool)
    try:
        return ols_fit(xs, ys)
    except DegenerateSampleError as e:
        raise SkipPair(f"degenerate pool for ({train_domain}, {test_domain}): {e}")


@dataclass
class AggregateResult:
    value: Optional[float]
    breakdown: list  # rows of (group..., value)
    skipped: list = field(default_factory=list)  # rows of (group..., reason)


def _mean(values: Sequence[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def evaluate_r2_mae(
    matrix: EvaluationMatrix, measure: str, direct: Optional[bool] = None
) -> tuple[AggregateResult, AggregateResult]:
    """Average out-of-sample R^2 and MAE over all (train, test) pairs.

    MAE is reported in accuracy percentage points. Direct measures (accuracy
    predictors) skip the transfer fit and are compared to accuracy as-is.
    """
    if direct is None:
        direct = is_direct_measure(measure)
    r2_rows, mae_rows, skipped = [], [], []
    for i, o in matrix.pairs(measure):
        targets = matrix.scored_models(measure, o, train_domains={i})
        if len(targets) < 2:
            skipped.append((i, o, f"only {len(targets)} evaluated models"))
            continue
        xs, ys = _sample(matrix, measure, o, targets)
        if direct:
            preds = xs
        else:
            try:
                fit = fit_transfer_model(matrix, measure, i, o)
            except SkipPair as e:
                skipped.append((i, o, str(e)))
                continue
            preds = [fit.predict(x) for x in xs]
        try:
            r2 = r_squared(preds, ys)
        except DegenerateSampleError as e:
            skipped.append((i, o, str(e)))
            continue
        err = 100.0 * mae(preds, ys)
        r2_rows.append((i, o, r2))
        mae_rows.append((i, o, err))
    return (
        AggregateResult(_mean([r[2] for r in r2_rows]), r2_rows, skipped),
        AggregateResult(_mean([r[2] for r in mae_rows]), mae_rows, list(skipped)),
    )


def _tau_or_skip(xs, ys, variant):
    """Tau, or a skip reason when it is undefined for the sample; any other
    fault (a length mismatch, a non-finite value) raises."""
    try:
        return kendall_tau(xs, ys, variant=variant), None
    except DegenerateSampleError as e:
        return None, str(e)


def id_tau(matrix: EvaluationMatrix, measure: str, variant: str = "b") -> AggregateResult:
    """Correlation with in-domain accuracy, averaged over training domains."""
    rows, skipped = [], []
    for i in matrix.training_domains:
        models = matrix.scored_models(measure, i, train_domains={i})
        if len(models) < 2:
            skipped.append((i, f"only {len(models)} in-domain models"))
            continue
        xs, ys = _sample(matrix, measure, i, models)
        tau, reason = _tau_or_skip(xs, ys, variant)
        if tau is None:
            skipped.append((i, reason))
        else:
            rows.append((i, tau))
    return AggregateResult(_mean([r[1] for r in rows]), rows, skipped)


def macro_tau(matrix: EvaluationMatrix, measure: str, variant: str = "b") -> AggregateResult:
    """Per-(train, test)-pair correlation, averaged over all pairs."""
    rows, skipped = [], []
    for i, o in matrix.pairs(measure):
        models = matrix.scored_models(measure, o, train_domains={i})
        if len(models) < 2:
            skipped.append((i, o, f"only {len(models)} evaluated models"))
            continue
        xs, ys = _sample(matrix, measure, o, models)
        tau, reason = _tau_or_skip(xs, ys, variant)
        if tau is None:
            skipped.append((i, o, reason))
        else:
            rows.append((i, o, tau))
    return AggregateResult(_mean([r[2] for r in rows]), rows, skipped)


def micro_tau(matrix: EvaluationMatrix, measure: str, variant: str = "b") -> AggregateResult:
    """Per-test-domain correlation pooling models from all other training
    domains, one architecture at a time; averaged over (arch, domain) groups."""
    rows, skipped = [], []
    for arch in matrix.archs:
        for o in matrix.all_domains:
            pool = matrix.scored_models(
                measure,
                o,
                train_domains=set(matrix.training_domains) - {o},
                archs={arch},
            )
            if len(pool) < 2:
                skipped.append((arch, o, f"only {len(pool)} pooled models"))
                continue
            xs, ys = _sample(matrix, measure, o, pool)
            tau, reason = _tau_or_skip(xs, ys, variant)
            if tau is None:
                skipped.append((arch, o, reason))
            else:
                rows.append((arch, o, tau))
    return AggregateResult(_mean([r[2] for r in rows]), rows, skipped)


def arch_tau(matrix: EvaluationMatrix, measure: str, variant: str = "b") -> AggregateResult:
    """Micro-style correlation with pools spanning all architectures.

    Absent (value None, empty breakdown) for single-architecture matrices.
    """
    if len(matrix.archs) < 2:
        return AggregateResult(None, [], [("*", "single architecture")])
    rows, skipped = [], []
    for o in matrix.all_domains:
        pool = matrix.scored_models(
            measure, o, train_domains=set(matrix.training_domains) - {o}
        )
        if len(pool) < 2:
            skipped.append((o, f"only {len(pool)} pooled models"))
            continue
        xs, ys = _sample(matrix, measure, o, pool)
        tau, reason = _tau_or_skip(xs, ys, variant)
        if tau is None:
            skipped.append((o, reason))
        else:
            rows.append((o, tau))
    return AggregateResult(_mean([r[1] for r in rows]), rows, skipped)


def cross_domain_tau(
    matrix: EvaluationMatrix, measure: str, variant: str = "b"
) -> tuple[dict[str, float], AggregateResult]:
    """Per-model correlation across its OOD test domains, averaged per arch."""
    rows, skipped = [], []
    per_arch: dict[str, list[float]] = {}
    for m in matrix.models:
        points = [
            (matrix.measures[(m.model_id, o, measure)], matrix.accuracies[(m.model_id, o)])
            for o in matrix.all_domains
            if o != m.train_domain and (m.model_id, o, measure) in matrix.measures
        ]
        if len(points) < 2:
            skipped.append((m.model_id, f"only {len(points)} OOD evaluations"))
            continue
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        tau, reason = _tau_or_skip(xs, ys, variant)
        if tau is None:
            skipped.append((m.model_id, reason))
        else:
            rows.append((m.model_id, m.arch, tau))
            per_arch.setdefault(m.arch, []).append(tau)
    means = {arch: _mean(vals) for arch, vals in sorted(per_arch.items())}
    overall = _mean([r[2] for r in rows])
    return means, AggregateResult(overall, rows, skipped)


def build_report(
    matrix: EvaluationMatrix,
    measures: Optional[Sequence[str]] = None,
    tau_variant: str = "b",
) -> dict:
    """Full metric table for every measure, JSON-serializable, stable order."""
    if measures is None:
        measures = matrix.measure_names()
    report = {"tau_variant": tau_variant, "measures": {}}
    for measure in sorted(measures):
        r2_res, mae_res = evaluate_r2_mae(matrix, measure)
        id_res = id_tau(matrix, measure, tau_variant)
        macro_res = macro_tau(matrix, measure, tau_variant)
        micro_res = micro_tau(matrix, measure, tau_variant)
        arch_res = arch_tau(matrix, measure, tau_variant)
        cross_means, cross_res = cross_domain_tau(matrix, measure, tau_variant)
        report["measures"][measure] = {
            "r2": r2_res.value,
            "mae_pct": mae_res.value,
            "macro_tau": macro_res.value,
            "micro_tau": micro_res.value,
            "id_tau": id_res.value,
            "arch_tau": arch_res.value,
            "cross_domain_tau": cross_res.value,
            "cross_domain_tau_per_arch": cross_means,
            "breakdown": {
                "r2_pairs": [list(r) for r in r2_res.breakdown],
                "mae_pairs": [list(r) for r in mae_res.breakdown],
                "id_domains": [list(r) for r in id_res.breakdown],
                "macro_pairs": [list(r) for r in macro_res.breakdown],
                "micro_groups": [list(r) for r in micro_res.breakdown],
                "arch_domains": [list(r) for r in arch_res.breakdown],
                "cross_domain_models": [list(r) for r in cross_res.breakdown],
            },
            "skipped": {
                "r2_mae": [list(r) for r in r2_res.skipped],
                "id": [list(r) for r in id_res.skipped],
                "macro": [list(r) for r in macro_res.skipped],
                "micro": [list(r) for r in micro_res.skipped],
                "arch": [list(r) for r in arch_res.skipped],
                "cross_domain": [list(r) for r in cross_res.skipped],
            },
        }
    return report
