import json
import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen import protocol
from smoothgen.errors import DegenerateSampleError, SchemaError
from smoothgen.ingest import ModelRecord
from smoothgen.protocol import (
    REPORT_LAYOUT,
    EvaluationMatrix,
    SkipPair,
    build_report,
    fit_transfer_model,
    is_direct_measure,
)
from smoothgen.stats import kendall_tau, mae, ols_fit, r_squared

MEASURE = "ms_test"

# One aggregate of a measure's report entry: its value, its breakdown rows of
# (group..., value) and its skipped rows of (group..., reason).
AggregateResult = namedtuple("AggregateResult", "value breakdown skipped")


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
    return EvaluationMatrix(measures, accuracies, tuple(models))


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
    return EvaluationMatrix(measures, accuracies, tuple(models))



def two_arch_matrix():
    """Two linear matrices, one per architecture, as one pool."""
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
    return EvaluationMatrix(measures, accuracies, models)


def aggregate(matrix, value_key, measure=MEASURE):
    """The aggregate of ``REPORT_LAYOUT`` row ``value_key`` in the report of
    ``matrix``: its value, its breakdown rows and its skipped rows."""
    (agg,) = (a for a in REPORT_LAYOUT if a.value == value_key)
    entry = build_report(matrix)["measures"][measure]
    return AggregateResult(entry[agg.value], entry["breakdown"][agg.table],
                           entry["skipped"][agg.skipped])


class TestMatrixValidation:
    def test_unconverged_models_rejected(self):
        with pytest.raises(SchemaError, match="unconverged"):
            EvaluationMatrix({}, {}, (ModelRecord("m", "mlp", "d0", {}, False),))

    def test_duplicate_model_rejected(self):
        rec = ModelRecord("m", "mlp", "d0", {}, True)
        with pytest.raises(SchemaError, match="duplicate"):
            EvaluationMatrix({}, {}, (rec, rec))

    def test_measure_requires_accuracy(self):
        rec = ModelRecord("m", "mlp", "d0", {}, True)
        with pytest.raises(SchemaError, match="missing accuracy"):
            EvaluationMatrix({("m", "d0", MEASURE): 0.5}, {}, (rec,))


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
            tampered, matrix.accuracies, matrix.models)
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
        assert abs(aggregate(matrix, "micro_tau").value) < 0.1
        assert abs(aggregate(matrix, "macro_tau").value) < 0.15
        assert aggregate(matrix, "r2").value < 0.1

    def test_id_tau_uses_own_domain_only(self):
        matrix = linear_matrix()
        res = aggregate(matrix, "id_tau")
        assert res.value == pytest.approx(1.0)
        assert len(res.breakdown) == 4

    def test_micro_tau_groups_by_arch_and_domain(self):
        matrix = linear_matrix()
        res = aggregate(matrix, "micro_tau")
        assert {(arch, dom) for arch, dom, _ in res.breakdown} == {
            ("mlp", f"d{i}") for i in range(4)}

    def test_arch_tau_absent_for_single_arch(self):
        res = aggregate(linear_matrix(), "arch_tau")
        assert res.value is None
        assert res.breakdown == []
        assert res.skipped == [["*", "single architecture"]]

    def test_arch_tau_pools_across_archs(self):
        res = aggregate(two_arch_matrix(), "arch_tau")
        assert res.value == pytest.approx(1.0)

    def test_cross_domain_tau_per_model(self):
        matrix = linear_matrix()
        res = aggregate(matrix, "cross_domain_tau")
        per_arch = build_report(matrix)["measures"][MEASURE]["cross_domain_tau_per_arch"]
        assert res.value == pytest.approx(1.0)
        assert per_arch == {"mlp": pytest.approx(1.0)}
        assert len(res.breakdown) == 20

    def test_degenerate_groups_are_recorded_not_fatal(self):
        matrix = linear_matrix()
        tied = {k: 0.5 for k in matrix.measures}
        matrix2 = EvaluationMatrix(
            tied, matrix.accuracies, matrix.models)
        res = aggregate(matrix2, "micro_tau")
        assert res.value is None
        assert res.breakdown == []
        assert all("tied" in reason for _, _, reason in res.skipped)

    @pytest.mark.parametrize("value_key", ["id_tau", "macro_tau", "micro_tau",
                                           "cross_domain_tau"])
    def test_non_finite_measure_raises_instead_of_skipping(self, value_key):
        matrix = linear_matrix()
        measures = dict(matrix.measures)
        # One in-domain and one out-of-domain NaN: a group of every aggregate
        # holds one of them.
        measures[("d0-m0", "d0", MEASURE)] = math.nan
        measures[("d0-m0", "d1", MEASURE)] = math.nan
        matrix = EvaluationMatrix(measures, matrix.accuracies, matrix.models)
        with pytest.raises(ValueError, match="non-finite"):
            aggregate(matrix, value_key)
        # build_report raises at the first row that reaches a NaN, so the named
        # row's groups also go through the engine on their own.
        (agg,) = (a for a in REPORT_LAYOUT if a.value == value_key)
        with pytest.raises(ValueError, match="non-finite"):
            protocol._aggregate(matrix, MEASURE, agg.kind,
                                lambda key, xs, ys: kendall_tau(xs, ys))


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
            direct, matrix.accuracies, matrix.models)
        r2_res, mae_res = (aggregate(matrix2, key, "atc_mc") for key in ("r2", "mae_pct"))
        assert r2_res.value == pytest.approx(1.0)
        assert mae_res.value == pytest.approx(0.0, abs=1e-9)

    def test_direct_measure_off_by_constant_has_nonzero_mae(self):
        matrix = linear_matrix()
        direct = {
            (mid, dom, "atc_mc"): matrix.accuracies[(mid, dom)] - 0.05
            for (mid, dom, _) in matrix.measures
        }
        matrix2 = EvaluationMatrix(
            direct, matrix.accuracies, matrix.models)
        mae_res = aggregate(matrix2, "mae_pct", "atc_mc")
        # MAE is reported in percentage points
        assert mae_res.value == pytest.approx(5.0, abs=1e-9)


class TestReport:
    def test_report_is_json_serializable(self):
        import json

        report = build_report(linear_matrix())
        json.dumps(report)

    def test_report_lists_all_measures(self):
        matrix = linear_matrix()
        report = build_report(matrix)
        assert set(report["measures"]) == {MEASURE}


# ------------------------------------------------------------ engine oracle
# The six aggregates as they were written before the grouping engine, one
# hand-written loop each, kept as the reference the engine must reproduce.


def sparse_matrix(seed=3):
    """Two archs, a domain no model trains on, cells dropped at random and
    values drawn from a few levels, so that some pairs have no or one scored
    model, some models have fewer than two OOD cells and some groups tie."""
    rng = np.random.default_rng(seed)
    training = ["d0", "d1", "d2"]
    domains = training + ["far"]
    sizes = {"d0": 4, "d1": 3, "d2": 1}
    models, measures, accuracies = [], {}, {}
    for dom in training:
        for j in range(sizes[dom]):
            mid = f"{dom}-m{j}"
            models.append(ModelRecord(mid, ("mlp", "cnn")[j % 2], dom, {}, True))
            for d in domains:
                if rng.uniform() < 0.35 or (dom, d) == ("d2", "far"):
                    continue  # pair (d2, far) has no scored model
                accuracies[(mid, d)] = float(rng.choice([0.5, 0.6, 0.7, 0.9]))
                for measure in (MEASURE, "atc_mc"):
                    if rng.uniform() < 0.85:
                        value = float(rng.choice([0.2, 0.4, 0.6, 0.8]))
                        measures[(mid, d, measure)] = value
    return EvaluationMatrix(measures, accuracies, tuple(models))


def ref_scored_models(matrix, measure, domain, train_domains=None, archs=None):
    out = []
    for m in matrix.models:
        if train_domains is not None and m.train_domain not in train_domains:
            continue
        if archs is not None and m.arch not in archs:
            continue
        if (m.model_id, domain, measure) in matrix.measures:
            out.append(m)
    return out


def ref_pairs(matrix, measure):
    out = []
    for i in matrix.training_domains:
        for o in matrix.all_domains:
            if o == i:
                continue
            if ref_scored_models(matrix, measure, o, train_domains={i}):
                out.append((i, o))
    return out


def ref_sample(matrix, measure, domain, models):
    xs = [matrix.measures[(m.model_id, domain, measure)] for m in models]
    ys = [matrix.accuracies[(m.model_id, domain)] for m in models]
    return xs, ys


def ref_mean(values):
    return sum(values) / len(values) if values else None


def ref_fit(matrix, measure, i, o):
    pool = ref_scored_models(
        matrix, measure, o, train_domains=set(matrix.training_domains) - {i, o})
    if len(pool) < 2:
        raise SkipPair(f"pool too small for ({i}, {o}): {len(pool)} models")
    xs, ys = ref_sample(matrix, measure, o, pool)
    try:
        return ols_fit(xs, ys)
    except DegenerateSampleError as e:
        raise SkipPair(f"degenerate pool for ({i}, {o}): {e}")


def ref_r2_mae(matrix, measure):
    direct = is_direct_measure(measure)
    r2_rows, mae_rows, skipped = [], [], []
    for i, o in ref_pairs(matrix, measure):
        targets = ref_scored_models(matrix, measure, o, train_domains={i})
        if len(targets) < 2:
            skipped.append((i, o, f"only {len(targets)} evaluated models"))
            continue
        xs, ys = ref_sample(matrix, measure, o, targets)
        if direct:
            preds = xs
        else:
            try:
                fit = ref_fit(matrix, measure, i, o)
            except SkipPair as e:
                skipped.append((i, o, str(e)))
                continue
            preds = [fit.predict(x) for x in xs]
        try:
            r2 = r_squared(preds, ys)
        except DegenerateSampleError as e:
            skipped.append((i, o, str(e)))
            continue
        r2_rows.append((i, o, r2))
        mae_rows.append((i, o, 100.0 * mae(preds, ys)))
    return (AggregateResult(ref_mean([r[2] for r in r2_rows]), r2_rows, skipped),
            AggregateResult(ref_mean([r[2] for r in mae_rows]), mae_rows, list(skipped)))


def ref_tau(xs, ys, variant):
    try:
        return kendall_tau(xs, ys, variant=variant), None
    except DegenerateSampleError as e:
        return None, str(e)


def ref_id(matrix, measure, variant):
    rows, skipped = [], []
    for i in matrix.training_domains:
        models = ref_scored_models(matrix, measure, i, train_domains={i})
        if len(models) < 2:
            skipped.append((i, f"only {len(models)} in-domain models"))
            continue
        tau, reason = ref_tau(*ref_sample(matrix, measure, i, models), variant)
        if tau is None:
            skipped.append((i, reason))
        else:
            rows.append((i, tau))
    return AggregateResult(ref_mean([r[1] for r in rows]), rows, skipped)


def ref_macro(matrix, measure, variant):
    rows, skipped = [], []
    for i, o in ref_pairs(matrix, measure):
        models = ref_scored_models(matrix, measure, o, train_domains={i})
        if len(models) < 2:
            skipped.append((i, o, f"only {len(models)} evaluated models"))
            continue
        tau, reason = ref_tau(*ref_sample(matrix, measure, o, models), variant)
        if tau is None:
            skipped.append((i, o, reason))
        else:
            rows.append((i, o, tau))
    return AggregateResult(ref_mean([r[2] for r in rows]), rows, skipped)


def ref_micro(matrix, measure, variant):
    rows, skipped = [], []
    for arch in matrix.archs:
        for o in matrix.all_domains:
            pool = ref_scored_models(
                matrix, measure, o,
                train_domains=set(matrix.training_domains) - {o}, archs={arch})
            if len(pool) < 2:
                skipped.append((arch, o, f"only {len(pool)} pooled models"))
                continue
            tau, reason = ref_tau(*ref_sample(matrix, measure, o, pool), variant)
            if tau is None:
                skipped.append((arch, o, reason))
            else:
                rows.append((arch, o, tau))
    return AggregateResult(ref_mean([r[2] for r in rows]), rows, skipped)


def ref_arch(matrix, measure, variant):
    if len(matrix.archs) < 2:
        return AggregateResult(None, [], [("*", "single architecture")])
    rows, skipped = [], []
    for o in matrix.all_domains:
        pool = ref_scored_models(
            matrix, measure, o, train_domains=set(matrix.training_domains) - {o})
        if len(pool) < 2:
            skipped.append((o, f"only {len(pool)} pooled models"))
            continue
        tau, reason = ref_tau(*ref_sample(matrix, measure, o, pool), variant)
        if tau is None:
            skipped.append((o, reason))
        else:
            rows.append((o, tau))
    return AggregateResult(ref_mean([r[1] for r in rows]), rows, skipped)


def ref_cross(matrix, measure, variant):
    rows, skipped = [], []
    per_arch = {}
    for m in matrix.models:
        points = [
            (matrix.measures[(m.model_id, o, measure)], matrix.accuracies[(m.model_id, o)])
            for o in matrix.all_domains
            if o != m.train_domain and (m.model_id, o, measure) in matrix.measures
        ]
        if len(points) < 2:
            skipped.append((m.model_id, f"only {len(points)} OOD evaluations"))
            continue
        tau, reason = ref_tau([p[0] for p in points], [p[1] for p in points], variant)
        if tau is None:
            skipped.append((m.model_id, reason))
        else:
            rows.append((m.model_id, m.arch, tau))
            per_arch.setdefault(m.arch, []).append(tau)
    means = {arch: ref_mean(vals) for arch, vals in sorted(per_arch.items())}
    return means, AggregateResult(ref_mean([r[2] for r in rows]), rows, skipped)


def ref_report(matrix, tau_variant="b"):
    report = {"tau_variant": tau_variant, "measures": {}}
    for measure in matrix.measure_names():
        r2_res, mae_res = ref_r2_mae(matrix, measure)
        id_res = ref_id(matrix, measure, tau_variant)
        macro_res = ref_macro(matrix, measure, tau_variant)
        micro_res = ref_micro(matrix, measure, tau_variant)
        arch_res = ref_arch(matrix, measure, tau_variant)
        cross_means, cross_res = ref_cross(matrix, measure, tau_variant)
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


def tied_matrix():
    matrix = linear_matrix()
    return EvaluationMatrix({k: 0.5 for k in matrix.measures}, matrix.accuracies,
                            matrix.models)


@st.composite
def small_matrices(draw):
    """1 to 3 archs, 2 to 4 training domains and a far-shift domain no model
    trains on, cells missing at random, and values from a few levels, so
    that groups tie and some have fewer than two cells; a smoothness
    measure next to a direct (atc_) one."""
    archs = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    training = [f"d{i}" for i in range(draw(st.integers(2, 4)))]
    level = st.sampled_from([0.2, 0.4, 0.6, 0.8])
    models, measures, accuracies = [], {}, {}
    for dom in training:
        for j in range(draw(st.integers(1, 4))):
            mid = f"{dom}-m{j}"
            models.append(ModelRecord(mid, draw(st.sampled_from(archs)), dom, {}, True))
            for d in training + ["far"]:
                if draw(st.integers(0, 4)) == 0:
                    continue
                accuracies[(mid, d)] = draw(st.sampled_from([0.5, 0.6, 0.7, 0.9]))
                for measure in (MEASURE, "atc_mc"):
                    if draw(st.integers(0, 5)):
                        measures[(mid, d, measure)] = draw(level)
    return EvaluationMatrix(measures, accuracies, tuple(models))


class TestEngineOracle:
    @settings(max_examples=150, deadline=None)
    @given(matrix=small_matrices())
    def test_any_small_matrix_reports_as_the_hand_written_loops(self, matrix):
        for tau_variant in ("b", "a"):
            assert (json.dumps(build_report(matrix, tau_variant), sort_keys=True, indent=2)
                    == json.dumps(ref_report(matrix, tau_variant), sort_keys=True, indent=2))

    @pytest.mark.parametrize("make", [linear_matrix, null_matrix, tied_matrix,
                                      two_arch_matrix, sparse_matrix])
    @pytest.mark.parametrize("tau_variant", ["b", "a"])
    def test_report_equals_the_hand_written_loops(self, make, tau_variant):
        matrix = make()
        expected = ref_report(matrix, tau_variant)
        report = build_report(matrix, tau_variant=tau_variant)
        assert report == expected
        # the bytes report.json is written with
        assert (json.dumps(report, sort_keys=True, indent=2)
                == json.dumps(expected, sort_keys=True, indent=2))

    def test_sparse_matrix_reaches_every_skip(self):
        matrix = sparse_matrix()
        assert matrix.all_domains == ["d0", "d1", "d2", "far"]
        assert matrix.training_domains == ["d0", "d1", "d2"]
        assert len(matrix.archs) == 2
        entry = ref_report(matrix)["measures"][MEASURE]
        listed = {(i, o) for i, o, _ in entry["skipped"]["r2_mae"]}
        listed |= {(i, o) for i, o, _ in entry["breakdown"]["r2_pairs"]}
        every_pair = {(i, o) for i in matrix.training_domains
                      for o in matrix.all_domains if o != i}
        assert listed < every_pair  # pairs with no scored model are not listed
        reasons = [r[-1] for rows in entry["skipped"].values() for r in rows]
        assert "only 1 evaluated models" in reasons
        assert any(r in reasons for r in ("only 0 OOD evaluations", "only 1 OOD evaluations"))
        assert any("tied" in r for r in reasons)
        assert entry["breakdown"]["macro_pairs"] and entry["breakdown"]["cross_domain_models"]
