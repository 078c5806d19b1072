import math
import warnings

import numpy as np
import pytest

from smoothgen.baselines import (
    atc_fit,
    atc_predict,
    norm_measures,
    spectral_norm,
)
from smoothgen.errors import SchemaError
from smoothgen.ingest import ScoreLog, WeightDump

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
