import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen import baselines
from smoothgen.baselines import (
    atc_fit,
    atc_predict,
    norm_measures,
    spectral_norm,
)
from smoothgen.errors import ConvergenceError, SchemaError
from smoothgen.ingest import ScoreLog, WeightDump
from smoothgen.synthbench.mlp import init_model
from smoothgen.synthbench.pool import default_grid

from logrows import ScoreEntry, log_from_rows


def score_log(scores, correct, model_id="m0", domain="d0", split="validation"):
    entries = tuple(
        ScoreEntry(
            example_id=f"e{i}",
            predicted_label=1 if ok else 0,
            max_confidence=s,
            neg_entropy=s - 1.0,
            true_label=1,
        )
        for i, (s, ok) in enumerate(zip(scores, correct))
    )
    return log_from_rows(ScoreLog, entries, model_id=model_id, domain=domain, split=split)


class TestAtc:
    def test_threshold_is_error_count_quantile(self):
        # 2 of 5 wrong -> threshold leaving exactly 2 scores strictly below
        log = score_log([0.9, 0.2, 0.5, 0.3, 0.7], [True, False, True, False, True])
        t = atc_fit(log, "max_confidence")
        assert t.threshold == 0.5
        assert atc_predict(log, t) == 0.6  # matches the validation accuracy

    def test_self_consistency_on_fitting_set(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            scores = rng.uniform(0.0, 1.0, size=n).round(2).tolist()
            correct = (rng.random(n) < 0.7).tolist()
            log = score_log(scores, correct)
            t = atc_fit(log, "max_confidence")
            actual = sum(correct) / n
            # ties between scores can break exactness; regenerate distinct
            if len(set(scores)) == n:
                assert atc_predict(log, t) == actual

    def test_all_wrong_gives_zero_prediction(self):
        log = score_log([0.5, 0.9], [False, False])
        t = atc_fit(log, "max_confidence")
        assert t.threshold == math.inf
        assert atc_predict(log, t) == 0.0

    def test_all_right_gives_one(self):
        log = score_log([0.5, 0.9], [True, True])
        t = atc_fit(log, "max_confidence")
        assert atc_predict(log, t) == 1.0

    def test_neg_entropy_kind_uses_other_score(self):
        log = score_log([0.9, 0.2, 0.5], [True, False, True])
        t = atc_fit(log, "neg_entropy")
        assert t.threshold == pytest.approx(0.5 - 1.0)

    def test_model_mismatch_rejected(self):
        t = atc_fit(score_log([0.5], [True]), "max_confidence")
        other = score_log([0.5], [True], model_id="m1")
        with pytest.raises(ValueError):
            atc_predict(other, t)

    def test_missing_labels_rejected(self):
        entries = (ScoreEntry("e0", 0, 0.5, -0.5),)
        log = log_from_rows(ScoreLog, entries, model_id="m", domain="d", split="validation")
        with pytest.raises(SchemaError):
            atc_fit(log, "max_confidence")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            atc_fit(score_log([0.5], [True]), "margin")

    def test_empty_log(self):
        log = log_from_rows(ScoreLog, (), model_id="m0", domain="d", split="test")
        with pytest.raises(SchemaError):
            atc_predict(log, atc_fit(score_log([0.5], [True]), "max_confidence"))


class TestSpectralNorm:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            shape = rng.integers(1, 9, size=2)
            w = rng.normal(size=tuple(shape))
            got = spectral_norm(w)
            want = float(np.linalg.svd(w, compute_uv=False)[0])
            assert got == pytest.approx(want, rel=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(43)
        w = rng.normal(size=(5, 3))
        base = spectral_norm(w)
        for c in (-3.0, 0.5, 1e6, 1e-6):
            assert spectral_norm(c * w) == pytest.approx(abs(c) * base, rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_rank_one(self):
        u = np.array([[3.0], [4.0]])
        assert spectral_norm(u @ u.T) == pytest.approx(25.0, rel=1e-10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones(3))
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 1.0]]))
        with pytest.raises(ValueError):
            spectral_norm(np.ones((2, 2)), tol=0.0)


def reference_spectral_norm(matrix, tol=baselines.POWER_ITERATION_TOL,
                            max_iters=baselines.POWER_ITERATION_MAX_ITERS):
    """The power iteration as first written, with ``np.linalg.norm`` and ``@``:
    the oracle that ``spectral_norm`` must equal bit for bit."""
    w = np.asarray(matrix, dtype=float)
    scale = np.max(np.abs(w))
    if scale == 0.0:
        return 0.0
    ws = w / scale
    rng = np.random.default_rng(baselines._POWER_ITERATION_SEED)
    v = rng.standard_normal(ws.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iters):
        u = ws @ v
        sigma_new = float(np.linalg.norm(u))
        if sigma_new == 0.0:
            v = rng.standard_normal(ws.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = ws.T @ u
        v /= np.linalg.norm(v)
        gap = abs(sigma_new - sigma)
        if gap <= tol * max(sigma_new, 1e-300):
            return sigma_new * scale
        sigma = sigma_new
    raise ConvergenceError(f"power iteration did not converge in {max_iters} iterations",
                           gap=gap)


_default_rng = np.random.default_rng


class _FirstDrawIsBasisVector:
    """A generator whose first ``standard_normal`` draw is the unit vector on
    axis ``axis``, and every later one that of a generator of the same seed."""

    def __init__(self, seed, axis):
        self.rng = _default_rng(seed)
        self.axis = axis
        self.draws = 0

    def standard_normal(self, n):
        self.draws += 1
        return np.eye(n)[self.axis] if self.draws == 1 else self.rng.standard_normal(n)


class TestSpectralNormOracle:
    """``spectral_norm`` equals the first power iteration bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 40), cols=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_random_matrices(self, rows, cols, seed, scale):
        w = np.random.default_rng(seed).normal(0.0, scale, size=(rows, cols))
        assert spectral_norm(w) == reference_spectral_norm(w)

    @pytest.mark.parametrize("rows, cols, axis", [(1, 2, 0), (3, 4, 2), (5, 3, 1), (7, 7, 6)])
    def test_null_space_restart(self, monkeypatch, rows, cols, axis):
        # The start vector is a unit vector on a column of zeros, so the
        # first product is exactly zero and both restart from a fresh draw.
        w = np.random.default_rng(rows * cols).normal(size=(rows, cols))
        w[:, axis] = 0.0
        generators = []

        def default_rng(seed):
            generators.append(_FirstDrawIsBasisVector(seed, axis))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        values = [norm(w) for norm in (spectral_norm, reference_spectral_norm)]
        assert values[0] == values[1]
        assert [g.draws for g in generators] == [2, 2]

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_every_layer_shape_of_the_default_grid(self, scale):
        shapes = set()
        for config in default_grid():
            for w in init_model(3, config).weights:
                shapes.add(w.shape)
                assert spectral_norm(w * scale) == reference_spectral_norm(w * scale)
        assert {(2, 8), (32, 32), (32, 3)} <= shapes

    def test_non_convergence_reports_the_same_gap(self):
        w = np.random.default_rng(5).normal(size=(6, 4))
        gaps = []
        for norm in (spectral_norm, reference_spectral_norm):
            with pytest.raises(ConvergenceError) as e:
                norm(w, max_iters=3)
            gaps.append(e.value.gap)
        assert gaps[0] == gaps[1]


class TestNormMeasures:
    def test_products_of_squared_norms(self):
        rng = np.random.default_rng(1)
        layers = tuple(rng.normal(size=(4, 4)) for _ in range(3))
        m = norm_measures(WeightDump(model_id="m", layers=layers))
        spec = 1.0
        frob = 1.0
        for w in layers:
            spec *= float(np.linalg.svd(w, compute_uv=False)[0]) ** 2
            frob *= float(np.linalg.norm(w)) ** 2
        assert m.spectral == pytest.approx(spec, rel=1e-7)
        assert m.frobenius == pytest.approx(frob, rel=1e-10)
        assert m.log_spectral == pytest.approx(math.log(spec), rel=1e-7)
        assert m.log_frobenius == pytest.approx(math.log(frob), rel=1e-10)

    def test_spectral_never_exceeds_frobenius(self):
        rng = np.random.default_rng(2)
        layers = tuple(rng.normal(size=(6, 3)) for _ in range(2))
        m = norm_measures(WeightDump(model_id="m", layers=layers))
        assert m.spectral <= m.frobenius + 1e-12

    def test_huge_weights_saturate_instead_of_overflowing(self):
        layers = (np.full((2, 2), 1e200),)
        m = norm_measures(WeightDump(model_id="m", layers=layers))
        assert m.spectral == math.inf
        assert math.isfinite(m.log_spectral)

    def test_huge_weights_keep_a_finite_log_frobenius_without_warning(self):
        layers = (np.full((2, 2), 1e200), np.full((3, 2), -1e250))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = norm_measures(WeightDump(model_id="m", layers=layers))
        # ||W||_F of a constant (r, c) matrix of c0 is sqrt(r * c) * |c0|.
        expected = 2.0 * (math.log(2.0 * 1e200) + math.log(math.sqrt(6.0) * 1e250))
        assert math.isfinite(m.log_frobenius)
        assert m.log_frobenius == pytest.approx(expected, rel=1e-12)
        assert m.frobenius == math.inf
