"""Comparison measures: thresholded-confidence accuracy predictors and
weight-norm complexity scores.

The ATC predictors fit a score threshold on labeled validation data so that
the predicted validation accuracy equals the actual one, then report the
fraction of test scores at or above the threshold. The norm measures are the
products of squared per-layer spectral / Frobenius norms, accumulated in log
space for stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SchemaError
from .ingest import ScoreLog, WeightDump

SCORE_KINDS = ("max_confidence", "neg_entropy")  # the ScoreLog arrays thresholded

POWER_ITERATION_TOL = 1e-10
POWER_ITERATION_MAX_ITERS = 10_000
_POWER_ITERATION_SEED = 20240613


@dataclass(frozen=True)
class AtcThreshold:
    score_kind: str
    threshold: float
    model_id: str


@dataclass(frozen=True)
class NormMeasure:
    spectral: float
    frobenius: float
    log_spectral: float
    log_frobenius: float


def atc_fit(validation: ScoreLog, kind: str) -> AtcThreshold:
    """Pick the threshold whose below-count equals the validation error count."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    if not validation.example_ids:
        raise SchemaError("cannot fit a threshold on an empty score log")
    missing = validation.true_labels < 0
    if missing.any():
        ex_id = validation.example_ids[int(missing.argmax())]
        raise SchemaError(f"entry {ex_id!r}: missing true_label")
    errors = int(np.count_nonzero(validation.predicted_labels != validation.true_labels))
    # Stable, as a sort of the entries would be: of scores that compare equal
    # (0.0 and -0.0) the earlier entry comes first.
    scores = np.sort(getattr(validation, kind), kind="stable")
    # With err errors, t = the err-th smallest score puts exactly err scores
    # strictly below it (up to score ties); all-wrong degenerates to +inf.
    t = math.inf if errors == len(scores) else float(scores[errors])
    return AtcThreshold(
        score_kind=kind,
        threshold=t,
        model_id=validation.model_id,
    )


def atc_predict(test: ScoreLog, threshold: AtcThreshold) -> float:
    """Predicted accuracy: fraction of test scores at or above the threshold."""
    if threshold.score_kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {threshold.score_kind!r}")
    if test.model_id != threshold.model_id:
        raise ValueError(
            f"threshold was fit for model {threshold.model_id!r}, "
            f"log belongs to {test.model_id!r}"
        )
    if not test.example_ids:
        raise SchemaError("cannot predict accuracy on an empty score log")
    scores = getattr(test, threshold.score_kind)
    return int(np.count_nonzero(scores >= threshold.threshold)) / len(scores)


def spectral_norm(
    matrix: np.ndarray,
    tol: float = POWER_ITERATION_TOL,
    max_iters: int = POWER_ITERATION_MAX_ITERS,
) -> float:
    """Largest singular value via power iteration on W^T W.

    Deterministic: the start vector comes from a fixed seeded generator.
    Raises ConvergenceError if the relative change in the estimate does not
    fall below tol within max_iters iterations.
    """
    w = np.asarray(matrix, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("expected a non-empty 2-D matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix contains non-finite entries")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = np.max(np.abs(w))
    if scale == 0.0:
        return 0.0
    ws = w / scale  # guards w^T w against overflow for large entries
    ws_t = ws.T
    # math.sqrt(x.dot(x)) is np.linalg.norm(x) of a 1-D float64 x, bit for bit.
    rng = np.random.default_rng(_POWER_ITERATION_SEED)
    v = rng.standard_normal(ws.shape[1])
    v /= math.sqrt(v.dot(v))
    sigma = 0.0
    for _ in range(max_iters):
        u = ws.dot(v)
        sigma_new = math.sqrt(u.dot(u))
        if sigma_new == 0.0:
            # v landed in the null space; restart from a fresh direction
            v = rng.standard_normal(ws.shape[1])
            v /= math.sqrt(v.dot(v))
            continue
        v = ws_t.dot(u)
        v /= math.sqrt(v.dot(v))
        gap = abs(sigma_new - sigma)
        if gap <= tol * max(sigma_new, 1e-300):
            return sigma_new * scale
        sigma = sigma_new
    raise ConvergenceError(
        f"power iteration did not converge in {max_iters} iterations",
        gap=gap,
    )


def norm_measures(weights: WeightDump) -> NormMeasure:
    """Products of squared spectral and Frobenius norms over all layers."""
    log_spec = 0.0
    log_frob = 0.0
    for w in weights.layers:
        s = spectral_norm(w)
        with np.errstate(over="ignore"):
            f = float(np.linalg.norm(w))
        if math.isfinite(f):
            log_f = math.log(f) if f > 0 else -math.inf
        else:
            # The sum of squares overflowed: pre-scale as spectral_norm does.
            scale = float(np.max(np.abs(w)))
            log_f = math.log(scale) + math.log(float(np.linalg.norm(w / scale)))
        log_spec += 2.0 * (math.log(s) if s > 0 else -math.inf)
        log_frob += 2.0 * log_f
    def safe_exp(x: float) -> float:
        if x == -math.inf:
            return 0.0
        return math.inf if x > 709.0 else math.exp(x)

    return NormMeasure(
        spectral=safe_exp(log_spec),
        frobenius=safe_exp(log_frob),
        log_spectral=log_spec,
        log_frobenius=log_frob,
    )
