import math

import numpy as np
import pytest

from smoothgen.errors import SchemaError
from smoothgen.ingest import ModelRecord
from smoothgen.protocol import (
    DomainInfo,
    EvaluationMatrix,
    SkipPair,
    arch_tau,
    build_report,
    cross_domain_tau,
    evaluate_r2_mae,
    fit_transfer_model,
    id_tau,
    is_direct_measure,
    macro_tau,
    micro_tau,
)

MEASURE = "ms_test"


def linear_matrix(a=0.4, b=0.5, n_domains=4, per_domain=5, arch="mlp",
                  jitter=None, seed=0):
    """Matrix where accuracy = a * measure + b holds exactly everywhere."""
    rng = np.random.default_rng(seed)
    domain_ids = [f"d{i}" for i in range(n_domains)]
    models = []
    measures = {}
    accuracies = {}
    for di, dom in enumerate(domain_ids):
        for j in range(per_domain):
            mid = f"{dom}-m{j}"
            models.append(ModelRecord(mid, arch, dom, {}, True))
            for od in domain_ids:
                mu = float(rng.uniform(0.2, 1.0))
                acc = a * mu + b
                if jitter is not None:
                    acc = float(np.clip(acc + rng.normal(0, jitter), 0, 1))
                measures[(mid, od, MEASURE)] = mu
                accuracies[(mid, od)] = acc
    domains = tuple(DomainInfo(d, True) for d in domain_ids)
    return EvaluationMatrix(measures, accuracies, tuple(models), domains)


def null_matrix(seed=0, per_domain=40):
    """Measures and accuracies drawn independently: no real association."""
    rng = np.random.default_rng(seed)
    domain_ids = ["d0", "d1", "d2", "d3"]
    models, measures, accuracies = [], {}, {}
    for dom in domain_ids:
        for j in range(per_domain):
            mid = f"{dom}-m{j}"
            models.append(ModelRecord(mid, "mlp", dom, {}, True))
            for od in domain_ids:
                measures[(mid, od, MEASURE)] = float(rng.uniform(0, 1))
                accuracies[(mid, od)] = float(rng.uniform(0, 1))
    domains = tuple(DomainInfo(d, True) for d in domain_ids)
    return EvaluationMatrix(measures, accuracies, tuple(models), domains)


class TestMatrixValidation:
    def test_unconverged_models_rejected(self):
        with pytest.raises(SchemaError, match="unconverged"):
            EvaluationMatrix(
                {}, {}, (ModelRecord("m", "mlp", "d0", {}, False),),
                (DomainInfo("d0", True),))

    def test_duplicate_model_rejected(self):
        rec = ModelRecord("m", "mlp", "d0", {}, True)
        with pytest.raises(SchemaError, match="duplicate"):
            EvaluationMatrix({}, {}, (rec, rec), (DomainInfo("d0", True),))

    def test_measure_requires_accuracy(self):
        rec = ModelRecord("m", "mlp", "d0", {}, True)
        with pytest.raises(SchemaError, match="missing accuracy"):
            EvaluationMatrix(
                {("m", "d0", MEASURE): 0.5}, {}, (rec,), (DomainInfo("d0", True),))

    def test_unknown_train_domain_rejected(self):
        rec = ModelRecord("m", "mlp", "dX", {}, True)
        with pytest.raises(SchemaError, match="train_domain"):
            EvaluationMatrix({}, {}, (rec,), (DomainInfo("d0", True),))


class TestTransferFit:
    def test_pool_excludes_both_domains(self):
        matrix = linear_matrix()
        fit = fit_transfer_model(matrix, MEASURE, "d0", "d1")
        assert fit.a == pytest.approx(0.4, abs=1e-12)
        assert fit.b == pytest.approx(0.5, abs=1e-12)

    def test_pool_exclusion_invariance(self):
        """Perturbing excluded models' scores leaves the fit bit-identical."""
        matrix = linear_matrix(jitter=0.02)
        fit = fit_transfer_model(matrix, MEASURE, "d0", "d1")
        tampered = dict(matrix.measures)
        for (mid, dom, meas) in matrix.measures:
            if mid.startswith(("d0-", "d1-")):
                tampered[(mid, dom, meas)] = 123.456
        matrix2 = EvaluationMatrix(
            tampered, matrix.accuracies, matrix.models, matrix.domains)
        fit2 = fit_transfer_model(matrix2, MEASURE, "d0", "d1")
        assert fit.a == fit2.a and fit.b == fit2.b

    def test_small_pool_skipped(self):
        matrix = linear_matrix(n_domains=2)
        with pytest.raises(SkipPair):
            fit_transfer_model(matrix, MEASURE, "d0", "d1")


class TestAggregates:
    def test_exact_linear_relation_gives_perfect_report(self):
        matrix = linear_matrix()
        report = build_report(matrix)["measures"][MEASURE]
        assert report["r2"] == pytest.approx(1.0, abs=1e-9)
        assert report["mae_pct"] == pytest.approx(0.0, abs=1e-6)
        for key in ("macro_tau", "micro_tau", "id_tau", "cross_domain_tau"):
            assert report[key] == pytest.approx(1.0)

    def test_null_matrix_has_no_signal(self):
        matrix = null_matrix(seed=5)
        r2_res, _ = evaluate_r2_mae(matrix, MEASURE)
        assert abs(micro_tau(matrix, MEASURE).value) < 0.1
        assert abs(macro_tau(matrix, MEASURE).value) < 0.15
        assert r2_res.value < 0.1

    def test_id_tau_uses_own_domain_only(self):
        matrix = linear_matrix()
        res = id_tau(matrix, MEASURE)
        assert res.value == pytest.approx(1.0)
        assert len(res.breakdown) == 4

    def test_micro_tau_groups_by_arch_and_domain(self):
        matrix = linear_matrix()
        res = micro_tau(matrix, MEASURE)
        assert {(arch, dom) for arch, dom, _ in res.breakdown} == {
            ("mlp", f"d{i}") for i in range(4)}

    def test_arch_tau_absent_for_single_arch(self):
        res = arch_tau(linear_matrix(), MEASURE)
        assert res.value is None
        assert res.breakdown == []

    def test_arch_tau_pools_across_archs(self):
        m1 = linear_matrix(arch="mlp")
        m2 = linear_matrix(arch="cnn")
        models = m1.models + tuple(
            ModelRecord(r.model_id + "x", r.arch, r.train_domain, {}, True)
            for r in m2.models)
        measures = dict(m1.measures)
        accuracies = dict(m1.accuracies)
        for (mid, dom, meas), v in m2.measures.items():
            measures[(mid + "x", dom, meas)] = v
        for (mid, dom), v in m2.accuracies.items():
            accuracies[(mid + "x", dom)] = v
        matrix = EvaluationMatrix(measures, accuracies, models, m1.domains)
        res = arch_tau(matrix, MEASURE)
        assert res.value == pytest.approx(1.0)

    def test_cross_domain_tau_per_model(self):
        matrix = linear_matrix()
        per_arch, res = cross_domain_tau(matrix, MEASURE)
        assert res.value == pytest.approx(1.0)
        assert per_arch == {"mlp": pytest.approx(1.0)}
        assert len(res.breakdown) == 20

    def test_degenerate_groups_are_recorded_not_fatal(self):
        matrix = linear_matrix()
        tied = {k: 0.5 for k in matrix.measures}
        matrix2 = EvaluationMatrix(
            tied, matrix.accuracies, matrix.models, matrix.domains)
        res = micro_tau(matrix2, MEASURE)
        assert res.value is None
        assert res.breakdown == []
        assert all("tied" in reason for _, _, reason in res.skipped)

    @pytest.mark.parametrize("aggregate", [id_tau, macro_tau, micro_tau, cross_domain_tau])
    def test_non_finite_measure_raises_instead_of_skipping(self, aggregate):
        matrix = linear_matrix()
        measures = dict(matrix.measures)
        # One in-domain and one out-of-domain NaN: a group of every aggregate
        # holds one of them.
        measures[("d0-m0", "d0", MEASURE)] = math.nan
        measures[("d0-m0", "d1", MEASURE)] = math.nan
        matrix = EvaluationMatrix(measures, matrix.accuracies, matrix.models,
                                  matrix.domains)
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(matrix, MEASURE)


class TestDirectMeasures:
    def test_prefix_detection(self):
        assert is_direct_measure("atc_mc")
        assert is_direct_measure("atc_ne")
        assert not is_direct_measure("ms_manifold")
        assert not is_direct_measure("norm_spectral")

    def test_direct_measure_bypasses_fit(self):
        # a perfect accuracy predictor must get R^2 = 1 without any fitting
        matrix = linear_matrix()
        direct = {
            (mid, dom, "atc_mc"): matrix.accuracies[(mid, dom)]
            for (mid, dom, _) in matrix.measures
        }
        matrix2 = EvaluationMatrix(
            direct, matrix.accuracies, matrix.models, matrix.domains)
        r2_res, mae_res = evaluate_r2_mae(matrix2, "atc_mc")
        assert r2_res.value == pytest.approx(1.0)
        assert mae_res.value == pytest.approx(0.0, abs=1e-9)

    def test_direct_measure_off_by_constant_has_nonzero_mae(self):
        matrix = linear_matrix()
        direct = {
            (mid, dom, "atc_mc"): matrix.accuracies[(mid, dom)] - 0.05
            for (mid, dom, _) in matrix.measures
        }
        matrix2 = EvaluationMatrix(
            direct, matrix.accuracies, matrix.models, matrix.domains)
        _, mae_res = evaluate_r2_mae(matrix2, "atc_mc")
        # MAE is reported in percentage points
        assert mae_res.value == pytest.approx(5.0, abs=1e-9)


class TestReport:
    def test_report_is_json_serializable(self):
        import json

        report = build_report(linear_matrix())
        json.dumps(report)

    def test_report_lists_all_measures(self):
        matrix = linear_matrix()
        report = build_report(matrix, measures=[MEASURE])
        assert set(report["measures"]) == {MEASURE}
