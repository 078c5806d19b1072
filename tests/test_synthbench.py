import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgen.errors import DivergenceError, SchemaError
from smoothgen.ingest import parse_manifest
from smoothgen.synthbench import domains, mlp, pool
from smoothgen.synthbench.domains import (
    ArcSpec,
    DomainSpec,
    NeighborhoodSpec,
    apply_label_noise,
    generate_domain,
    nearest_arc,
    sample_neighborhood,
)
from smoothgen.synthbench.mlp import (
    _CLASS_GAP,
    MlpModel,
    TrainConfig,
    _softmax,
    _zeros_like,
    cross_entropy,
    forward,
    init_model,
    loss_and_grads,
    model_predict,
    predict_classes,
    sgd_step,
    train_model,
)
from smoothgen.synthbench.pool import (
    AblationSpec,
    ExperimentConfig,
    _noise_floor_ce,
    default_arcs,
    default_experiment,
    default_grid,
    derive_seed,
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
    run_pool,
)


def make_domain(rotation=0.0, noise_std=0.05, **kwargs):
    return DomainSpec(
        domain_id="d0",
        rotation=rotation,
        translation=(0.0, 0.0),
        noise_std=noise_std,
        class_arcs=default_arcs(),
        **kwargs,
    )


def tiny_config(seed=0):
    from smoothgen.synthbench.pool import ExperimentConfig

    domains = [
        DomainSpec("rotA", 0.0, (0.0, 0.0), 0.05, default_arcs()),
        DomainSpec("rotB", math.radians(40), (0.0, 0.0), 0.05, default_arcs()),
    ]
    grid = [
        TrainConfig(depth=1, width=8, weight_decay=0.0, label_noise=0.0,
                    batch_size=16, learning_rate=0.1, ce_stop=0.3,
                    max_epochs=80, seed=seed),
        TrainConfig(depth=2, width=8, weight_decay=1e-4, label_noise=0.0,
                    batch_size=16, learning_rate=0.1, ce_stop=0.3,
                    max_epochs=80, seed=seed),
    ]
    return ExperimentConfig(
        domains=domains,
        grid=grid,
        neighborhoods=[NeighborhoodSpec("manifold", 0.5, n_samples=4, seed=seed)],
        m_train=80,
        m_val=20,
        m_test=25,
        seed=seed,
    )


class TestDomains:
    def test_generation_is_deterministic(self):
        d = make_domain()
        a = generate_domain(d, 50, seed=3)
        b = generate_domain(d, 50, seed=3)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_in_range(self):
        ds = generate_domain(make_domain(), 200, seed=0)
        assert ds.labels.min() >= 0 and ds.labels.max() < 3
        assert ds.points.shape == (200, 2)

    def test_noiseless_points_sit_on_unit_circle(self):
        ds = generate_domain(make_domain(noise_std=0.0), 100, seed=1)
        radii = np.linalg.norm(ds.points, axis=1)
        assert np.allclose(radii, 1.0)

    def test_rotation_moves_the_whole_configuration(self):
        plain = generate_domain(make_domain(noise_std=0.0), 50, seed=2)
        quarter = DomainSpec("d1", math.pi / 2, (0.0, 0.0), 0.0, default_arcs())
        rotated = generate_domain(quarter, 50, seed=2)
        c, s = 0.0, 1.0
        rot = np.array([[c, -s], [s, c]])
        assert np.allclose(rotated.points, plain.points @ rot.T)

    def test_arcs_too_close_for_noise_rejected(self):
        with pytest.raises(SchemaError, match="too close"):
            make_domain(noise_std=0.5)

    def test_default_experiment_computes_the_arc_margin_once(self):
        domains._arc_margin.cache_clear()
        config = default_experiment()
        assert len({d.class_arcs for d in config.domains}) == 1 < len(config.domains)
        assert domains._arc_margin.cache_info().misses == 1
        assert domains._arc_margin(config.domains[0].class_arcs) == (
            domains._arc_margin.__wrapped__(default_arcs()))

    def test_arc_margin_of_the_default_arcs_is_pinned(self):
        # The value of one 256 x 256 distance array's minimum, which the
        # blocked computation must give bit for bit.
        assert domains._arc_margin.__wrapped__(default_arcs()) == 0.3472963553338605

    def test_loading_a_run_record_takes_no_large_transient(self, tmp_path):
        # ablate loads the run's record; the arc margin, computed afresh,
        # once held its 256 x 256 x 2 difference arrays at once (2.7 MB).
        config = default_experiment(0)
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"meta": {"config_hash": config.config_hash()},
                                    "experiment": experiment_to_dict(config)},
                                   sort_keys=True, indent=2))
        load_experiment(path)  # imports and caches of the decoder
        domains._arc_margin.cache_clear()
        tracemalloc.start()
        try:
            load_experiment(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert domains._arc_margin.cache_info().misses == 1
        assert peak < 1e6

    def test_no_process_pool_is_imported_for_a_serial_run(self):
        code = ("import sys, smoothgen.cli, smoothgen.synthbench.pool; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        src = str(Path(pool.__file__).parents[2])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"

    def test_arc_validation(self):
        with pytest.raises(SchemaError):
            ArcSpec((0.0, 0.0), -1.0, 0.0, 1.0)
        with pytest.raises(SchemaError):
            ArcSpec((0.0, 0.0), 1.0, 0.0, 7.0)


class TestLabelNoise:
    def test_zero_fraction_is_identity(self):
        ds = generate_domain(make_domain(), 100, seed=0)
        assert apply_label_noise(ds, 0.0, seed=1) is ds

    def test_resampled_count_is_rounded_fraction(self):
        ds = generate_domain(make_domain(), 200, seed=0)
        noisy = apply_label_noise(ds, 0.25, seed=1)
        changed = int((noisy.labels != ds.labels).sum())
        assert changed <= round(0.25 * 200)
        assert changed > 0

    def test_flip_probability_matches_uniform_resampling(self):
        # a resampled label keeps its old value with probability 1/k, so the
        # expected changed fraction is f * (k - 1) / k
        ds = generate_domain(make_domain(), 3000, seed=0)
        flips = []
        for seed in range(40):
            noisy = apply_label_noise(ds, 0.4, seed=seed)
            flips.append((noisy.labels != ds.labels).mean())
        assert np.mean(flips) == pytest.approx(0.4 * 2 / 3, abs=0.01)

    def test_points_untouched(self):
        ds = generate_domain(make_domain(), 50, seed=0)
        noisy = apply_label_noise(ds, 0.5, seed=2)
        assert noisy.points is ds.points

    def test_fraction_validated(self):
        ds = generate_domain(make_domain(), 10, seed=0)
        with pytest.raises(ValueError):
            apply_label_noise(ds, 1.0, seed=0)


class TestNeighborhoodSampling:
    def test_nearest_arc_recovers_generating_class(self):
        d = make_domain(noise_std=0.0)
        ds = generate_domain(d, 150, seed=4)
        got = [nearest_arc(d, p) for p in ds.points]
        assert got == ds.labels.tolist()

    def test_manifold_samples_keep_radial_offset(self):
        d = make_domain()
        spec = NeighborhoodSpec("manifold", 0.3, n_samples=50, seed=0)
        point = np.array([1.07, 0.4])  # offset 0.07-ish from the unit circle
        samples = sample_neighborhood(point, d, spec)
        radii = np.linalg.norm(samples, axis=1)
        assert np.allclose(radii, np.linalg.norm(point))

    def test_manifold_small_jitter_stays_in_class_sector(self):
        d = make_domain(noise_std=0.0)
        ds = generate_domain(d, 50, seed=5)
        spec = NeighborhoodSpec("manifold", 0.05, n_samples=20, seed=0)
        for p, label in zip(ds.points, ds.labels):
            samples = sample_neighborhood(p, d, spec)
            assert all(nearest_arc(d, s) == label for s in samples)

    def test_manifold_large_jitter_can_leave_the_sector(self):
        d = make_domain(noise_std=0.0)
        spec = NeighborhoodSpec("manifold", 2.0, n_samples=200, seed=0)
        point = generate_domain(d, 1, seed=6).points[0]
        samples = sample_neighborhood(point, d, spec)
        classes = {nearest_arc(d, s) for s in samples}
        assert len(classes) > 1

    def test_isotropic_spread(self):
        d = make_domain()
        spec = NeighborhoodSpec("isotropic", 0.2, n_samples=4000, seed=0)
        samples = sample_neighborhood(np.zeros(2), d, spec)
        assert samples.std(axis=0) == pytest.approx([0.2, 0.2], rel=0.1)

    def test_sampling_respects_domain_rotation(self):
        base = make_domain(noise_std=0.0)
        rotated = DomainSpec("dr", math.radians(90), (0.0, 0.0), 0.0, default_arcs())
        spec = NeighborhoodSpec("manifold", 0.3, n_samples=25, seed=0)
        p = generate_domain(base, 1, seed=7).points[0]
        rot = rotated.rotation_matrix()
        a = sample_neighborhood(p, base, spec, rng=np.random.default_rng(9))
        b = sample_neighborhood(rot @ p, rotated, spec, rng=np.random.default_rng(9))
        assert np.allclose(b, a @ rot.T)

    def test_spec_validation(self):
        with pytest.raises(SchemaError):
            NeighborhoodSpec("spiral", 0.1)
        with pytest.raises(SchemaError):
            NeighborhoodSpec("manifold", 0.0)
        with pytest.raises(SchemaError):
            NeighborhoodSpec("manifold", 0.1, n_samples=0)

    def test_tag(self):
        assert NeighborhoodSpec("manifold", 0.5, 10).tag == "manifold-r0.5-n10"


def reference_nearest_arc(spec, base_point):
    """Nearest arc of one base-coordinate point, one arc at a time."""
    dists = []
    for arc in spec.class_arcs:
        rel = base_point - np.asarray(arc.center)
        norm = float(np.linalg.norm(rel))
        theta = math.atan2(rel[1], rel[0]) if norm > 0 else (
            arc.theta_start + arc.theta_extent / 2.0
        )
        nearest = arc.point_at(float(arc.clamp_angle(theta)))
        dists.append(float(np.linalg.norm(base_point - nearest)))
    return int(np.argmin(dists))


def reference_sample_neighborhood(point, domain, spec, rng):
    """The neighborhood of one world-coordinate point, as the sampler made it
    one point at a time."""
    point = np.asarray(point, dtype=float)
    n = spec.n_samples
    if spec.kind == "isotropic":
        return point + rng.normal(0.0, spec.size_r, size=(n, 2))
    base = domain.to_base(point)
    arc = domain.class_arcs[reference_nearest_arc(domain, base)]
    rel = base - np.asarray(arc.center)
    norm = float(np.linalg.norm(rel))
    theta = math.atan2(rel[1], rel[0]) if norm > 0 else (
        arc.theta_start + arc.theta_extent / 2.0
    )
    theta = float(arc.clamp_angle(theta))
    jitter = rng.uniform(-spec.size_r, spec.size_r, size=n)
    samples = arc.point_at(theta + jitter, radial_offset=norm - arc.radius)
    return domain.to_world(samples)


# Two arcs mirrored in the x-axis: a point on the positive x-axis is exactly
# as far from one as from the other.
MIRRORED_ARCS = (ArcSpec((0.0, 0.0), 1.0, 0.5, 1.0), ArcSpec((0.0, 0.0), 1.0, -1.5, 1.0))
TIE_POINT = np.array([2.0, 0.0])
CENTER_SHIFT = (0.5, -0.25)  # the world position of the default arcs' center


class TestBatchedSamplerOracle:
    @pytest.mark.parametrize("arcs", [MIRRORED_ARCS, MIRRORED_ARCS[::-1]])
    def test_tie_goes_to_the_lower_class(self, arcs):
        d = DomainSpec("tie", 0.0, (0.0, 0.0), 0.0, arcs)
        assert reference_nearest_arc(d, TIE_POINT) == 0
        assert nearest_arc(d, TIE_POINT) == 0
        assert nearest_arc(d, TIE_POINT[None]).tolist() == [0]

    @pytest.mark.parametrize("domain", [
        DomainSpec("shifted", 0.0, CENTER_SHIFT, 0.05, default_arcs()),
        DomainSpec("rotated", 0.7, (0.3, -1.1), 0.05, default_arcs()),
        DomainSpec("far", math.radians(140), (-2.0, 0.5), 0.0, default_arcs()),
        DomainSpec("tie", 0.0, (0.0, 0.0), 0.0, MIRRORED_ARCS),
    ], ids=lambda d: d.domain_id)
    @pytest.mark.parametrize("spec", [
        NeighborhoodSpec("manifold", 0.5, n_samples=10),
        NeighborhoodSpec("manifold", 2.6, n_samples=3),
        NeighborhoodSpec("isotropic", 0.3, n_samples=10),
    ], ids=lambda s: s.tag)
    def test_batch_equals_per_point_reference(self, domain, spec):
        special = [TIE_POINT, np.array(CENTER_SHIFT)]
        points = np.vstack([generate_domain(domain, 200, seed=11).points, *special])
        if domain.domain_id == "shifted":  # the norm == 0 branch is taken
            assert np.array_equal(domain.to_base(points[-1]), [0.0, 0.0])
        rng = np.random.default_rng(3)
        want = np.stack([reference_sample_neighborhood(p, domain, spec, rng) for p in points])
        got = sample_neighborhood(points, domain, spec, rng=np.random.default_rng(3))
        assert got.shape == (len(points), spec.n_samples, 2)
        assert np.array_equal(got, want)
        base = domain.to_base(points)
        assert nearest_arc(domain, base).tolist() == [
            reference_nearest_arc(domain, b) for b in base]

    def test_single_point_is_the_first_row_of_a_batch(self):
        d = make_domain()
        spec = NeighborhoodSpec("manifold", 0.5, n_samples=10)
        points = generate_domain(d, 5, seed=2).points
        batch = sample_neighborhood(points, d, spec, rng=np.random.default_rng(1))
        one = sample_neighborhood(points[0], d, spec, rng=np.random.default_rng(1))
        assert one.shape == (10, 2)
        assert np.array_equal(one, batch[0])


def reference_forward(model, x):
    """Logits as forward made them before it computed layers in place."""
    h = np.asarray(x, dtype=float)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
    return h @ model.weights[-1] + model.biases[-1]


def reference_softmax(logits):
    """Softmax as _softmax made it before, with row reduces."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def random_model(config, k, scale):
    """An initialised model with random biases, every parameter times scale
    (x100 saturates tanh)."""
    model = init_model(k, config)
    rng = np.random.default_rng([config.depth, config.width, k])
    model.weights = [w * scale for w in model.weights]
    model.biases = [rng.standard_normal(b.shape) * scale for b in model.biases]
    return model


ARCHITECTURES = sorted({(c.depth, c.width): c for c in default_grid()}.items())


class TestInferenceOracle:
    @pytest.mark.parametrize("arch, config", ARCHITECTURES,
                             ids=[f"depth{d}-width{w}" for (d, w), _ in ARCHITECTURES])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("k", [3, 10])
    def test_in_place_inference_equals_reference(self, arch, config, scale, k):
        model = random_model(config, k, scale)
        x = np.random.default_rng(5).normal(0.0, 1.5, size=(3000, 2))
        logits = forward(model, x)
        assert np.array_equal(logits, reference_forward(model, x))
        kept = logits.copy()
        assert np.array_equal(_softmax(logits), reference_softmax(logits))
        assert np.array_equal(logits, kept)  # the input is left alone
        classes = predict_classes(model, x)
        assert np.array_equal(classes, model_predict(model, x)[0])
        assert np.array_equal(classes, reference_softmax(reference_forward(model, x)).argmax(1))

    def test_single_point_and_empty_batch(self):
        model = random_model(default_grid()[0], 3, 1.0)
        point = np.array([0.3, -0.2])
        assert predict_classes(model, point).tolist() == [model_predict(model, point)[0][0]]
        assert predict_classes(model, np.empty((0, 2))).shape == (0,)


def constructed_logit_rows(k):
    """Logit rows whose top two are 0, 1 ulp, just below, at and just above
    _CLASS_GAP apart, and rows holding NaN, +inf and -inf, each with its top
    two in several places among k columns."""
    top = 0.1
    seconds = [top, np.nextafter(top, -np.inf), top - 0.999e-9, top - 1.001e-9, top - 1e-6]
    pairs = [(top, s) for s in seconds] + [(0.0, -_CLASS_GAP)]  # a gap of exactly the bound
    specials = [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (np.inf, np.inf),
                (-np.inf, -np.inf), (1.0, -np.inf), (np.nan, np.inf)]
    rows = []
    for first, second in pairs + specials:
        for i, j in [(0, 1), (1, 0), (k - 1, 0), (k - 2, k - 1)]:
            row = np.full(k, -2.0)
            row[i], row[j] = first, second
            rows.append(row)
    rows.append(np.full(k, -np.inf))
    rows.append(np.full(k, np.nan))
    return np.array(rows)


class TestClassesFromLogits:
    @pytest.mark.parametrize("k", [3, 10])
    def test_constructed_rows_one_model_each(self, k):
        # A model of one zero weight matrix gives its bias as the logits of
        # every point.
        x = np.random.default_rng(k).normal(size=(4, 2))
        for row in constructed_logit_rows(k):
            model = MlpModel(weights=[np.zeros((2, k))], biases=[row], num_classes=k)
            with np.errstate(all="ignore"):
                classes = predict_classes(model, x)
                assert np.array_equal(classes, model_predict(model, x)[0]), row
                want = reference_softmax(reference_forward(model, x)).argmax(1)
            assert np.array_equal(classes, want), row

    @pytest.mark.parametrize("k", [3, 10])
    def test_constructed_rows_in_one_batch(self, monkeypatch, k):
        # The constructed rows among ordinary ones, so that a few rows of a
        # batch take the softmax.
        rng = np.random.default_rng(k)
        logits = rng.normal(size=(500, k))
        special = constructed_logit_rows(k)
        at = rng.choice(len(logits), size=len(special), replace=False)
        logits[at] = special
        monkeypatch.setattr(mlp, "forward", lambda model, x: logits.copy())
        model = init_model(k, default_grid()[0])
        x = np.zeros((len(logits), 2))
        with np.errstate(all="ignore"):
            classes = predict_classes(model, x)
            assert np.array_equal(classes, model_predict(model, x)[0])
            assert np.array_equal(classes, reference_softmax(logits).argmax(1))

    @pytest.mark.parametrize("k", [3, 10])
    def test_softmax_of_a_row_subset_is_that_of_the_full_batch(self, k):
        model = random_model(default_grid()[-1], k, 1.0)
        logits = forward(model, np.random.default_rng(7).normal(0.0, 1.5, size=(3000, 2)))
        full = _softmax(logits)
        rng = np.random.default_rng(k)
        subsets = [[0], [2999], [5, 6, 7], rng.choice(3000, size=40, replace=False),
                   np.flatnonzero(rng.random(3000) < 0.5), np.arange(3000)]
        for rows in subsets:
            assert _softmax(logits[rows]).tobytes() == full[rows].tobytes()


def forward_row_counts(monkeypatch, model, x):
    """predict_classes of x, and the row count of each float64 forward it ran."""
    counts = []

    def counted(model, x):
        counts.append(len(x))
        return forward(model, x)

    with monkeypatch.context() as patch:
        patch.setattr(mlp, "forward", counted)
        classes = predict_classes(model, x)
    return classes, counts


def assert_oracle_classes(model, x, classes):
    assert np.array_equal(classes, model_predict(model, x)[0])
    assert np.array_equal(classes, reference_softmax(reference_forward(model, x)).argmax(1))


class TestClassTiers:
    """Rows are decided in float32 when the error bound allows, then in float64
    on the rows left, then on the full batch."""

    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("gap, rest, tiers", [
        (1e-3, -2.0, 1),  # far above both bounds
        (1e-7, -2.0, 2),  # below the float32 bound, far above the float64 one
        (1e-8, -1e7, 3),  # above _CLASS_GAP, below the float64 bound of a bias of 1e7
        (0.0, -2.0, 3),
        ("ulp", -2.0, 3),
    ])
    def test_zero_weight_models_by_tier(self, monkeypatch, k, gap, rest, tiers):
        # One zero weight matrix: every point's logits are the bias row.
        x = np.random.default_rng(k).normal(size=(6, 2))
        top = 0.1
        second = np.nextafter(top, -np.inf) if gap == "ulp" else top - gap
        for i, j in [(0, 1), (1, 0), (k - 1, 0), (k - 2, k - 1)]:
            row = np.full(k, rest)
            row[i], row[j] = top, second
            model = MlpModel(weights=[np.zeros((2, k))], biases=[row], num_classes=k)
            classes, counts = forward_row_counts(monkeypatch, model, x)
            assert counts == [len(x)] * (tiers - 1), (i, j)
            assert_oracle_classes(model, x, classes)

    @pytest.mark.parametrize("k", [3, 10])
    def test_float32_overflow_goes_to_float64(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        model = MlpModel(weights=[rng.uniform(0.5, 1.5, size=(2, k)) * 1e30],
                         biases=[np.zeros(k)], num_classes=k)
        x = rng.normal(size=(6, 2)) * 1e9
        e32, e64 = mlp._logit_error_bounds(model, float(np.abs(x).max()))
        assert e32 == math.inf and e64 < 1e30
        with np.errstate(over="ignore"):
            assert np.isinf(mlp._layers([w.astype(np.float32) for w in model.weights],
                                        model.biases, x.astype(np.float32))).any()
        classes, counts = forward_row_counts(monkeypatch, model, x)
        assert counts == [len(x)]
        assert_oracle_classes(model, x, classes)

    @pytest.mark.parametrize("arch, config", ARCHITECTURES,
                             ids=[f"depth{d}-width{w}" for (d, w), _ in ARCHITECTURES])
    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_bounds_hold_on_random_models(self, arch, config, scale):
        model = random_model(config, 10, scale)
        x = np.random.default_rng(5).normal(0.0, 1.5, size=(3000, 2))
        e32, e64 = mlp._logit_error_bounds(model, float(np.abs(x).max()))
        z32 = mlp._layers([w.astype(np.float32) for w in model.weights],
                          [b.astype(np.float32) for b in model.biases], x.astype(np.float32))
        assert np.abs(z32 - forward(model, x)).max() <= e32 + e64
        assert 0 < e64 < e32 < math.inf

    def test_a_trained_model_decides_almost_every_row_in_float32(self, monkeypatch):
        # Keeps the float32 tier from silently deciding nothing.
        domain = make_domain()
        config = dataclasses.replace(default_grid()[0], max_epochs=60)
        model = train_model(generate_domain(domain, 300, seed=1), config)
        points = generate_domain(domain, 500, seed=2).points
        spec = NeighborhoodSpec("manifold", 0.5, n_samples=10)
        x = sample_neighborhood(points, domain, spec, rng=np.random.default_rng(3))
        x = x.reshape(-1, 2)
        assert len(x) == 5000
        classes, counts = forward_row_counts(monkeypatch, model, x)
        assert sum(counts) < 0.01 * len(x)
        assert np.array_equal(classes, model_predict(model, x)[0])

    def test_tanh_error_is_carried_through_the_next_layer(self):
        # Exact logits of 0 everywhere; only tanh's allowance, times the
        # output layer's column sum, keeps the bounds above 0.
        width = 8
        model = MlpModel(weights=[np.zeros((2, width)), np.ones((width, 3))],
                         biases=[np.zeros(width), np.zeros(3)], num_classes=3)
        e32, e64 = mlp._logit_error_bounds(model, 0.0)
        assert e32 >= width * mlp._FLOAT32[1] and e64 >= width * mlp._FLOAT64[1]

    def test_tanh_allowances(self):
        # Each tanh may be off by tau; np.tanh must be well inside it, in
        # float32 against float64, and in float64 against math.tanh.
        f32 = np.finfo(np.float32)
        edges = [0.0, -0.0, 1e-45, -1e-45, float(f32.tiny), 1e-30, 0.5, 1.0, 9.0, 9.1, 20.0,
                 40.0, 1e4, float(f32.max), np.inf]
        x = np.concatenate([np.linspace(-20.0, 20.0, 400_001), edges, np.negative(edges)])
        tau32, tau64 = mlp._FLOAT32[1], mlp._FLOAT64[1]
        x32 = x.astype(np.float32)
        assert np.abs(np.tanh(x32).astype(float) - np.tanh(x32.astype(float))).max() <= tau32 / 4
        exact = np.array([math.tanh(v) for v in x.tolist()])
        assert np.abs(np.tanh(x) - exact).max() <= tau64 / 4

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["1", "block-1", "block", "block+1", "3block+7"])
    @pytest.mark.parametrize("tier", [2, 3])
    def test_rows_of_every_tier_at_block_edges(self, monkeypatch, blocks, extra, tier):
        # Logits (x0, x1, 0): ordinary rows have a gap of 0.5 (tier 1). A row
        # whose top two are 1e-8 apart ties in float32 (0.5 - 1e-8 rounds to
        # 0.5), so tier 2 decides it; an exact tie or a gap of one float64
        # ulp needs tier 3. Such rows sit on both sides of every block edge.
        block = mlp._BLOCK
        n = blocks * block + extra
        model = MlpModel(weights=[np.eye(2, 3)], biases=[np.zeros(3)], num_classes=3)
        rng = np.random.default_rng(n)
        x = np.array([(0.5, -0.5), (-0.5, 0.5), (-0.5, -0.5)])[rng.integers(0, 3, size=n)]
        near = 0.5 - 1e-8 if tier == 2 else np.nextafter(0.5, 0.0)
        special = [(0.5, near), (near, 0.5)] + ([(0.5, 0.5)] if tier == 3 else [])
        at = sorted({0, n - 1} | {e + d for e in range(block, n, block) for d in (-1, 0)})
        x[at] = [special[i % len(special)] for i in range(len(at))]
        classes, counts = forward_row_counts(monkeypatch, model, x)
        assert counts == [len(at)] + [n] * (tier == 3)
        assert np.array_equal(classes, model_predict(model, x)[0])

    def test_a_trained_model_keeps_the_constants_of_its_final_parameters(self):
        domain = make_domain()
        model = train_model(generate_domain(domain, 100, seed=1), default_grid()[0])
        kept = model.tier1
        fresh = mlp._tier1(dataclasses.replace(model))  # a copy has none kept
        assert kept is not None and kept.layers == fresh.layers
        for got, want in zip(kept.weights + kept.biases, fresh.weights + fresh.biases):
            assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_memory_does_not_grow_with_the_batch(self):
        # Tier 1 holds one block of activations at a time; over the whole
        # batch of 200,000 rows a depth-3, width-32 model would take 51 MB.
        config = dataclasses.replace(default_grid()[0], depth=3, width=32)
        model = random_model(config, 3, 1.0)
        x = np.random.default_rng(0).normal(0.0, 1.5, size=(200_000, 2))
        tracemalloc.start()
        try:
            predict_classes(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


def reference_init_model(num_classes, config):
    """A fresh model as init_model made it, one array per layer."""
    rng = np.random.default_rng(config.seed)
    dims = [2] + [config.width] * config.depth + [num_classes]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / math.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, num_classes=num_classes)


def reference_cross_entropy(model, x, y):
    """cross_entropy as it was before it gathered the labels' rows first."""
    logits = reference_forward(model, x)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(y)), y].mean())


def reference_loss_and_grads(model, x, y):
    """Loss and per-layer gradients as loss_and_grads made them before it
    wrote into one buffer."""
    x = np.asarray(x, dtype=float)
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    logits = h @ model.weights[-1] + model.biases[-1]
    z = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(z)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(y)
    loss = float(-np.log(probs[np.arange(n), y]).mean())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (1.0 - acts[layer] ** 2)
    return loss, grads_w, grads_b


def reference_sgd_step(model, grads_w, grads_b, lr, weight_decay):
    decay = 1.0 - lr * weight_decay
    for w, gw in zip(model.weights, grads_w):
        w *= decay
        w -= lr * gw
    for b, gb in zip(model.biases, grads_b):
        b -= lr * gb


def reference_train_model(dataset, config):
    """train_model as it was before one buffer and one gather per epoch."""
    model = reference_init_model(dataset.num_classes, config)
    x, y = dataset.points, dataset.labels
    m = len(y)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    epoch, ce = 0, None
    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_rng.permutation(m)
        for start in range(0, m, config.batch_size):
            batch = perm[start : start + config.batch_size]
            loss, gw, gb = reference_loss_and_grads(model, x[batch], y[batch])
            if not math.isfinite(loss):
                raise DivergenceError("step", epoch=epoch)
            reference_sgd_step(model, gw, gb, config.learning_rate, config.weight_decay)
        ce = reference_cross_entropy(model, x, y)
        if not math.isfinite(ce):
            raise DivergenceError("epoch", epoch=epoch)
        if ce <= config.ce_stop:
            model.converged = True
            break
    model.final_ce = reference_cross_entropy(model, x, y) if ce is None else ce
    model.epochs_run = epoch
    return model


# Every default_grid() config (label noise and weight decay included) and the
# bench's synth_train grid; each gets its own seed.
TRAIN_GRID = [dataclasses.replace(c, seed=i) for i, c in enumerate(
    default_grid() + default_grid(ce_margin=0.02, label_noises=(0.0,)))]


# Shapes where ndarray.dot and @ could take different BLAS paths (a product
# with one row or one column may be a matrix-vector call), each as (config,
# training points, classes): a last batch of one row, batches of one row, a
# width of one, and 2 and 10 classes.
_EDGE = TrainConfig(depth=2, width=8, weight_decay=1e-4, label_noise=0.0, batch_size=32,
                    learning_rate=0.1, ce_stop=0.05, max_epochs=40, seed=7)
EDGE_SHAPES = [
    pytest.param(dataclasses.replace(_EDGE, depth=3, width=32), 33, 3, id="last_batch_of_1"),
    pytest.param(dataclasses.replace(_EDGE, batch_size=1, max_epochs=5), 20, 3,
                 id="batch_size_1"),
    pytest.param(dataclasses.replace(_EDGE, width=1), 50, 3, id="width_1"),
    pytest.param(dataclasses.replace(_EDGE, depth=1, width=1), 50, 2, id="depth_1_width_1_k2"),
    pytest.param(_EDGE, 50, 2, id="k2"),
    pytest.param(_EDGE, 50, 10, id="k10"),
]


def oracle_dataset(config, m=50, k=3):
    """A small training set of ``k`` classes (whose last batch of 32 is short
    for the default ``m``), with the config's label noise applied."""
    domain = make_domain()
    if k != 3:
        sector = 2 * math.pi / k
        domain = DomainSpec("d0", 0.0, (0.0, 0.0), 0.03, tuple(
            ArcSpec((0.0, 0.0), 1.0, (j + 1 / 6) * sector, sector * 2 / 3) for j in range(k)))
    ds = generate_domain(domain, m, seed=config.seed)
    return apply_label_noise(ds, config.label_noise, seed=config.seed)


def assert_same_training(model, want):
    for got_arrays, want_arrays in ((model.weights, want.weights), (model.biases, want.biases)):
        assert len(got_arrays) == len(want_arrays)
        for got, ref in zip(got_arrays, want_arrays):
            assert np.array_equal(got, ref)
    assert (model.epochs_run, model.converged) == (want.epochs_run, want.converged)
    assert model.final_ce.hex() == want.final_ce.hex()


class TestTrainingOracle:
    @pytest.mark.parametrize("arch, config", ARCHITECTURES,
                             ids=[f"depth{d}-width{w}" for (d, w), _ in ARCHITECTURES])
    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("rows", [32, 18])
    def test_one_step_equals_reference(self, arch, config, k, rows):
        x = np.random.default_rng(k).normal(0.0, 1.5, size=(rows, 2))
        y = np.random.default_rng(rows).integers(0, k, size=rows)
        model = init_model(k, config)
        want = reference_init_model(k, config)
        assert_same_training(model, want)
        loss, grads = loss_and_grads(model, x, y)
        want_loss, want_w, want_b = reference_loss_and_grads(want, x, y)
        assert loss.hex() == want_loss.hex()
        for got, ref in zip(grads.weights + grads.biases, want_w + want_b):
            assert np.array_equal(got, ref)
        sgd_step(model, grads, 0.1, 1e-4)
        reference_sgd_step(want, want_w, want_b, 0.1, 1e-4)
        assert_same_training(model, want)
        assert cross_entropy(model, x, y).hex() == reference_cross_entropy(want, x, y).hex()

    @pytest.mark.parametrize("config, m, k", [pytest.param(c, 50, 3, id=(
        f"d{c.depth}w{c.width}-wd{c.weight_decay}-noise{c.label_noise}-stop{c.ce_stop:.3f}"))
        for c in TRAIN_GRID] + EDGE_SHAPES)
    def test_training_equals_reference(self, config, m, k):
        ds = oracle_dataset(config, m, k)
        assert ds.num_classes == k
        # Every batch size but 1 leaves a short last batch.
        assert config.batch_size == 1 or len(ds.labels) % config.batch_size
        assert_same_training(train_model(ds, config), reference_train_model(ds, config))

    @pytest.mark.parametrize("learning_rate, epoch, check", [
        (1e10, 2, "step"), (1e308, 1, "epoch"),
    ], ids=["step_loss", "epoch_cross_entropy"])
    def test_divergence_raises_at_the_reference_epoch(self, learning_rate, epoch, check):
        # One batch per epoch. With lr 1e10 the epoch-1 cross entropy (a stable
        # log-sum-exp) is finite and the epoch-2 step loss takes the log of an
        # underflowed probability; with lr 1e308 the first step is finite and
        # the update overflows the logits that the epoch's cross entropy sums.
        config = TrainConfig(depth=1, width=8, weight_decay=0.0, label_noise=0.0,
                             batch_size=64, learning_rate=learning_rate, ce_stop=0.01,
                             max_epochs=50, seed=0)
        ds = oracle_dataset(config, m=40)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as want:
                reference_train_model(ds, config)
            with pytest.raises(DivergenceError) as got:
                train_model(ds, config)
        assert (str(want.value), want.value.epoch) == (check, epoch)
        assert got.value.epoch == epoch
        assert str(got.value) == f"non-finite training loss at epoch {epoch}"


class TestMlp:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_a_label_out_of_range_is_rejected(self, label):
        config = default_grid()[0]
        x, y = np.zeros((4, 2)), np.array([0, 1, label, 2])
        with pytest.raises(ValueError, match=r"labels must be in \[0, 3\)"):
            loss_and_grads(init_model(3, config), x, y)
        with pytest.raises(ValueError, match=r"labels must be in \[0, 3\)"):
            train_model(domains.Dataset(x, y, 3), config)

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(depth=2, width=5, weight_decay=0.0, label_noise=0.0,
                          batch_size=8, learning_rate=0.1, ce_stop=0.1,
                          max_epochs=1, seed=0)
        model = init_model(3, cfg)
        x = rng.normal(size=(12, 2))
        y = rng.integers(0, 3, size=12)
        _, grad = loss_and_grads(model, x, y)
        eps = 1e-6

        def loss_at():
            return loss_and_grads(model, x, y)[0]

        for params, grads in ((model.weights, grad.weights), (model.biases, grad.biases)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + eps
                    up = loss_at()
                    p[idx] = orig - eps
                    down = loss_at()
                    p[idx] = orig
                    fd = (up - down) / (2 * eps)
                    denom = max(abs(fd), abs(g[idx]), 1e-8)
                    assert abs(fd - g[idx]) / denom < 1e-5

    def test_weight_decay_only_shrinks_geometrically(self):
        cfg = TrainConfig(depth=1, width=4, weight_decay=0.5, label_noise=0.0,
                          batch_size=4, learning_rate=0.1, ce_stop=0.1,
                          max_epochs=1, seed=1)
        model = init_model(2, cfg)
        zero = _zeros_like(model)
        norms = [[np.linalg.norm(w) for w in model.weights]]
        for _ in range(5):
            sgd_step(model, zero, cfg.learning_rate, cfg.weight_decay)
            norms.append([np.linalg.norm(w) for w in model.weights])
        decay = 1.0 - cfg.learning_rate * cfg.weight_decay
        for step in range(1, 6):
            for before, after in zip(norms[step - 1], norms[step]):
                assert after == pytest.approx(decay * before, rel=1e-12)

    def test_training_reaches_ce_stop_on_separable_data(self):
        ds = generate_domain(make_domain(noise_std=0.0), 120, seed=3)
        cfg = TrainConfig(depth=1, width=16, weight_decay=0.0, label_noise=0.0,
                          batch_size=16, learning_rate=0.1, ce_stop=0.2,
                          max_epochs=200, seed=2)
        model = train_model(ds, cfg)
        assert model.converged
        assert model.final_ce <= 0.2
        assert cross_entropy(model, ds.points, ds.labels) == model.final_ce

    def test_zero_epoch_budget_does_not_converge(self):
        ds = generate_domain(make_domain(), 30, seed=0)
        cfg = TrainConfig(depth=1, width=4, weight_decay=0.0, label_noise=0.0,
                          batch_size=8, learning_rate=0.1, ce_stop=0.01,
                          max_epochs=0, seed=0)
        model = train_model(ds, cfg)
        assert not model.converged
        assert model.epochs_run == 0

    @pytest.mark.parametrize("ce_stop, max_epochs, converged", [
        (0.2, 200, True), (0.01, 3, False), (0.2, 0, False),
    ], ids=["converged", "epoch_budget", "no_epochs"])
    def test_final_ce_is_that_of_the_final_weights(self, ce_stop, max_epochs, converged):
        ds = generate_domain(make_domain(noise_std=0.0), 120, seed=3)
        cfg = TrainConfig(depth=1, width=16, weight_decay=0.0, label_noise=0.0,
                          batch_size=16, learning_rate=0.1, ce_stop=ce_stop,
                          max_epochs=max_epochs, seed=2)
        model = train_model(ds, cfg)
        assert model.converged == converged
        if not converged:
            assert model.epochs_run == max_epochs
        assert model.final_ce == cross_entropy(model, ds.points, ds.labels)

    def test_a_pickled_model_leaves_its_training_buffer_behind(self):
        ds = generate_domain(make_domain(), 30, seed=0)
        cfg = TrainConfig(depth=2, width=4, weight_decay=0.0, label_noise=0.0,
                          batch_size=8, learning_rate=0.1, ce_stop=0.01,
                          max_epochs=2, seed=0)
        model = train_model(ds, cfg)
        assert np.shares_memory(model.params, model.weights[0])
        copy = pickle.loads(pickle.dumps(model))
        assert copy.params is None and model.params is not None
        for got, want in zip(copy.weights + copy.biases, model.weights + model.biases):
            assert np.array_equal(got, want)
        assert (copy.final_ce, copy.epochs_run) == (model.final_ce, model.epochs_run)

    def test_training_is_deterministic(self):
        ds = generate_domain(make_domain(), 60, seed=1)
        cfg = TrainConfig(depth=2, width=8, weight_decay=1e-4, label_noise=0.0,
                          batch_size=16, learning_rate=0.1, ce_stop=0.15,
                          max_epochs=50, seed=5)
        a = train_model(ds, cfg)
        b = train_model(ds, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(depth=0, width=4, weight_decay=0.0, label_noise=0.0,
                        batch_size=4, learning_rate=0.1, ce_stop=0.1,
                        max_epochs=1, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(depth=1, width=4, weight_decay=0.0, label_noise=1.0,
                        batch_size=4, learning_rate=0.1, ce_stop=0.1,
                        max_epochs=1, seed=0)


class TestNoiseFloor:
    def test_clean_labels_have_zero_floor(self):
        assert _noise_floor_ce(0.0, 3) == 0.0

    def test_matches_direct_entropy_computation(self):
        # observed label = true with prob 1 - f(k-1)/k, each other with f/k
        f, k = 0.4, 3
        q = 1 - f * (k - 1) / k
        other = f / k
        direct = -(q * math.log(q) + (k - 1) * other * math.log(other))
        assert _noise_floor_ce(f, k) == pytest.approx(direct)
        assert q + (k - 1) * other == pytest.approx(1.0)

    def test_monotone_in_noise(self):
        floors = [_noise_floor_ce(f, 3) for f in (0.0, 0.1, 0.2, 0.4)]
        assert floors == sorted(floors)


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_distinct_for_distinct_parts(self):
        seeds = {derive_seed("x", i) for i in range(100)}
        assert len(seeds) == 100

    def test_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= derive_seed("s", i) < 2**63


class TestExperimentConfig:
    def test_dict_round_trip(self):
        config = default_experiment(seed=3)
        back = experiment_from_dict(experiment_to_dict(config))
        assert experiment_to_dict(back) == experiment_to_dict(config)
        assert back.config_hash() == config.config_hash()

    def test_load_json(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(experiment_to_dict(config)))
        loaded = load_experiment(path)
        assert experiment_to_dict(loaded) == experiment_to_dict(config)

    def test_training_domains_exclude_far_shift(self):
        config = default_experiment()
        ids = [d.domain_id for d in config.training_domains()]
        assert "far140" not in ids
        assert len(ids) == 5

    def test_default_grid_size(self):
        config = default_experiment()
        assert len(config.grid) == 36

    def test_hash_changes_with_seed(self):
        assert (default_experiment(seed=0).config_hash()
                != default_experiment(seed=1).config_hash())

    @pytest.mark.parametrize("case, message", [
        ("domains", "two domains named 'rotA'"),
        ("neighborhoods", "two neighborhoods named 'manifold-r0.5-n4'"),
        ("size_r_values", "two ablation size_r_values named '0.5'"),
        pytest.param("a/b", "domains: 'a/b' is not a plain file name", id="slash"),
        pytest.param("..", "domains: '..' is not a plain file name", id="dotdot"),
        pytest.param(".", "domains: '.' is not a plain file name", id="dot"),
        pytest.param("", "domains: '' is not a plain file name", id="empty"),
        pytest.param("a\0b", "domains: 'a\\x00b' is not a plain file name", id="nul"),
    ])
    def test_names_that_share_a_file_name_are_rejected(self, tmp_path, capsys, case,
                                                       message):
        """Domain ids, neighborhood tags and size_r values name the run's
        files; two of one name would overwrite each other's logs, and a
        domain id that is not one plain file-name component would put them
        elsewhere, or nowhere, after every model is trained."""
        from smoothgen.cli import main

        obj = experiment_to_dict(tiny_config())
        if case == "domains":
            obj["domains"][1]["domain_id"] = "rotA"
        elif case == "neighborhoods":  # the seed is not part of the tag
            obj["neighborhoods"].append(dict(obj["neighborhoods"][0], seed=1))
        elif case == "size_r_values":
            obj["ablation"] = {"domain_id": "rotB", "base_size_r": 0.5,
                               "size_r_values": [0.2, 0.5, 0.5000001]}
        else:  # the domain id itself
            obj["domains"][1]["domain_id"] = case
        with pytest.raises(SchemaError, match=re.escape(message)):
            experiment_from_dict(obj)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(obj))
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}: invalid experiment: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_with_seed_sets_every_seed(self):
        assert (experiment_to_dict(tiny_config().with_seed(5))
                == experiment_to_dict(tiny_config(5)))
        assert (experiment_to_dict(default_experiment(0).with_seed(3))
                == experiment_to_dict(default_experiment(3)))

    def test_default_experiment_is_pinned(self):
        # The grid and arcs are built from module constants; their hashes
        # pin every value those constants hold.
        assert default_experiment(0).config_hash() == "d828281c0076"
        assert default_experiment(0, with_ablation=False).config_hash() == "fd15126362e5"
        assert len(default_grid()) == 36


def tree_digest(root):
    """SHA-256 over the relative paths and contents of every file in a tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class TestRunPool:
    def test_two_runs_are_byte_identical(self, tmp_path):
        config = tiny_config()
        a, b = tmp_path / "a", tmp_path / "b"
        run_pool(config, a)
        run_pool(tiny_config(), b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_parallel_training_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_pool(tiny_config(), serial, threads=1)
        run_pool(tiny_config(), parallel, threads=2)
        assert tree_digest(parallel) == tree_digest(serial)

    def test_a_diverging_model_is_written_unconverged(self, tmp_path, capsys):
        config = tiny_config()
        config.grid = [config.grid[0], dataclasses.replace(config.grid[0], learning_rate=1e10)]
        result = run_pool(config, tmp_path / "out")
        records = parse_manifest(tmp_path / "out" / "manifest.jsonl")
        assert [r.converged for r in records] == [True, False, True, False]
        assert [r.converged for r in result.manifest] == [True, False, True, False]
        assert sorted(p.stem for p in (tmp_path / "out" / "weights").iterdir()) == [
            records[0].model_id, records[2].model_id]
        # One line per diverged model, in job order, and no numpy warning.
        warnings = [f"warning: model {records[i].model_id!r}: training diverged at epoch 1; "
                    f"recorded as not converged" for i in (1, 3)]
        assert capsys.readouterr().err.splitlines() == warnings
        run_pool(config, tmp_path / "parallel", threads=2)
        assert tree_digest(tmp_path / "parallel") == tree_digest(tmp_path / "out")
        assert capsys.readouterr().err.splitlines() == warnings

    def test_a_run_replays_from_its_own_record(self, tmp_path):
        from smoothgen.cli import main

        run_pool(tiny_config(), tmp_path / "run")
        record = tmp_path / "run" / "experiment.json"
        assert main(["synth", "--config", str(record), "--out", str(tmp_path / "replay")]) == 0
        assert tree_digest(tmp_path / "replay") == tree_digest(tmp_path / "run")

    def test_a_record_replayed_with_a_seed_is_the_run_of_that_seed(self, tmp_path):
        from smoothgen.cli import main

        run_pool(tiny_config(), tmp_path / "run")
        run_pool(tiny_config(5), tmp_path / "seed5")
        record = tmp_path / "run" / "experiment.json"
        assert main(["synth", "--config", str(record), "--seed", "5",
                     "--out", str(tmp_path / "replay")]) == 0
        assert tree_digest(tmp_path / "replay") == tree_digest(tmp_path / "seed5")

    def test_a_record_whose_hash_does_not_match_is_rejected(self, tmp_path, capsys):
        from smoothgen.cli import main

        config = tiny_config()
        record = {"meta": {"config_hash": config.config_hash()},
                  "experiment": dict(experiment_to_dict(config), m_test=26)}
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(record))
        edited = dataclasses.replace(config, m_test=26).config_hash()
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: invalid experiment: meta.config_hash "
            f"{config.config_hash()!r} is not the experiment's hash {edited!r}\n")
        assert not (tmp_path / "run").exists()

    def test_artifact_layout(self, tmp_path):
        config = tiny_config()
        result = run_pool(config, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "manifest.jsonl").exists()
        assert (out / "experiment.json").exists()
        assert len(result.manifest) == 4  # 2 domains x 2 configs
        n_pred = len(list((out / "predictions").glob("*.jsonl")))
        # one log per converged model, domain and neighborhood spec
        assert n_pred == result.num_converged * len(config.domains)

    def test_ablation_set_with_a_main_spec_repeats_its_log(self, tmp_path, monkeypatch):
        config = tiny_config()
        config.neighborhoods = [NeighborhoodSpec("manifold", 0.5, n_samples=10, seed=0)]
        config.ablation = AblationSpec("rotB", base_size_r=0.5, m_test=30,
                                       n_samples_max=12, size_r_values=(0.2, 0.5))
        calls = collections.Counter()

        def counted(name):
            original = getattr(pool, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        for name in ("sample_neighborhood", "predict_classes"):
            monkeypatch.setattr(pool, name, counted(name))
        out = tmp_path / "out"
        result = run_pool(config, out)
        assert result.num_converged > 0
        # Six logs a model from five sets: size_r 0.5 on rotB is a main log.
        assert calls["sample_neighborhood"] == 5
        assert calls["predict_classes"] == result.num_converged * (1 + 5)
        assert len(list((out / "ablation").iterdir())) == 4 * result.num_converged
        for rec in result.manifest:
            if rec.converged:
                main_log = out / "predictions" / f"{rec.model_id}__rotB__manifold-r0.5-n10.jsonl"
                shared = out / "ablation" / f"{rec.model_id}__size_r__0.5.jsonl"
                other = out / "ablation" / f"{rec.model_id}__size_r__0.2.jsonl"
                assert shared.read_bytes() == main_log.read_bytes()
                assert other.read_bytes() != main_log.read_bytes()

    def test_needs_two_training_domains(self, tmp_path):
        config = tiny_config()
        config.domains = config.domains[:1]
        with pytest.raises(SchemaError):
            run_pool(config, tmp_path / "out")


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


STRAY = ("not a file of this experiment's run, and synth deletes nothing; "
         "give it an --out without such files")


class TestRunPlan:
    """``run_files`` is the plan of a run's tree: ``run_pool`` writes exactly
    its files, and a second run into one ``--out`` stops on any other."""

    def test_a_second_experiment_into_one_out_stops_before_training(self, tmp_path, capsys,
                                                                    monkeypatch):
        from smoothgen.cli import main

        first = tiny_config(0)
        first.neighborhoods.append(NeighborhoodSpec("isotropic", 0.3, n_samples=4, seed=0))
        run = tmp_path / "run"
        run_pool(first, run)
        before = tree_bytes(run)
        stale = sorted((run / "predictions").glob("*__isotropic-r0.3-n4.jsonl"))
        assert stale
        trained = []
        monkeypatch.setattr(pool, "train_model", lambda *a: trained.append(a))
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(experiment_to_dict(tiny_config(0))))
        assert main(["synth", "--config", str(config_path), "--out", str(run)]) == 1
        assert capsys.readouterr().err == f"error: {stale[0]}: {STRAY}\n"
        assert trained == []
        assert tree_bytes(run) == before

    @pytest.mark.parametrize("run", ["run", "run[1]"])
    @pytest.mark.parametrize("sub", ["predictions", "scores", "weights", "ablation"])
    def test_a_file_the_plan_does_not_name_stops_the_run(self, tmp_path, sub, run):
        """Also in an --out whose name a glob pattern would read otherwise."""
        out = tmp_path / run
        stray = out / sub / "other.jsonl"
        stray.parent.mkdir(parents=True)
        stray.write_bytes(b"kept")
        with pytest.raises(SchemaError) as exc:
            run_pool(tiny_config(), out)
        assert str(exc.value) == f"{stray}: {STRAY}"
        assert stray.read_bytes() == b"kept"
        assert {str(p.relative_to(out)) for p in out.rglob("*")} == {sub, f"{sub}/other.jsonl"}

    def test_the_tree_is_the_plan_of_the_converged_models(self, tmp_path):
        from smoothgen.cli import main

        config = tiny_config()
        config.neighborhoods.append(NeighborhoodSpec("isotropic", 0.3, n_samples=4, seed=0))
        config.ablation = AblationSpec("rotB", base_size_r=0.5, m_test=30, n_samples_max=6,
                                       size_r_values=(0.2, 0.5))
        run = tmp_path / "run"
        result = run_pool(config, run)
        assert result.num_converged > 0
        subdirs = ("predictions", "scores", "weights", "ablation")
        written = {str(p.relative_to(run)) for sub in subdirs for p in (run / sub).iterdir()}
        planned = [f.path for rec in result.manifest if rec.converged
                   for f in pool.run_files(config, rec.model_id, rec.train_domain)]
        assert len(planned) == len(set(planned))
        assert written == set(planned)
        # The run's record replays into its own tree, and a temporary file a
        # cut write left behind is not a stray.
        digest = tree_digest(run)
        record = str(run / "experiment.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--config", record, "--out", str(run)]) == 0
            assert tree_digest(run) == digest
            (run / "predictions" / ".tmp-x.part").write_bytes(b"partial")
            assert main(["synth", "--config", record, "--out", str(run)]) == 0
        assert (run / "predictions" / ".tmp-x.part").read_bytes() == b"partial"


@st.composite
def experiments(draw):
    """Small valid experiments: 2 to 12 classes on arcs a third of a sector
    apart, two training domains and maybe a far-shift one, uneven split
    sizes, 1 to 3 neighborhoods of distinct tags, a grid of one or two tiny
    configs (a ce_stop of 3, above log k, converges in one epoch) and an
    ablation block or none."""
    k = draw(st.integers(2, 12))
    sector = 2 * math.pi / k
    arcs = tuple(ArcSpec((0.0, 0.0), 1.0, (j + 1 / 6) * sector, sector * 2 / 3)
                 for j in range(k))
    far = draw(st.booleans())
    domains = [DomainSpec(f"d{i}", math.radians(draw(st.integers(0, 359))), (0.0, 0.0),
                          0.03, arcs, far_shift=i == 2)
               for i in range(3 if far else 2)]
    grid = draw(st.lists(st.builds(
        TrainConfig, depth=st.integers(1, 2), width=st.sampled_from([4, 8]),
        weight_decay=st.just(0.0), label_noise=st.sampled_from([0.0, 0.2]),
        batch_size=st.sampled_from([8, 16]), learning_rate=st.just(0.1),
        ce_stop=st.sampled_from([1.0, 3.0]), max_epochs=st.integers(1, 10),
        seed=st.just(0)), min_size=1, max_size=2))
    neighborhoods = draw(st.lists(st.builds(
        NeighborhoodSpec, kind=st.sampled_from(["manifold", "isotropic"]),
        size_r=st.sampled_from([0.1, 0.3, 0.5]), n_samples=st.integers(1, 5)),
        min_size=1, max_size=3, unique_by=lambda spec: spec.tag))
    ablation = draw(st.none() | st.builds(
        AblationSpec, domain_id=st.sampled_from([d.domain_id for d in domains]),
        base_size_r=st.sampled_from([0.2, 0.5]), m_test=st.integers(5, 30),
        n_samples_max=st.integers(1, 6),
        size_r_values=st.lists(st.sampled_from([0.1, 0.2, 0.5, 1.0]), max_size=3,
                               unique=True).map(tuple)))
    return ExperimentConfig(domains, grid, neighborhoods, m_train=draw(st.integers(10, 40)),
                            m_val=draw(st.integers(3, 15)), m_test=draw(st.integers(3, 15)),
                            ablation=ablation)


def readme_commands(run, config_path):
    """Every command of the README's quick start, on an experiment file."""
    manifest = str(run / "manifest.jsonl")
    return [
        ["synth", "--config", str(config_path), "--out", str(run)],
        ["score", "--input", str(run / "predictions"), "--manifest", manifest,
         "--out", str(run / "scores.csv"), "--acc-out", str(run / "accuracies.csv")],
        ["baseline", "--scores", str(run / "scores"), "--weights", str(run / "weights"),
         "--manifest", manifest, "--out", str(run / "baselines.csv")],
        ["evaluate", "--scores", str(run / "scores.csv"), str(run / "baselines.csv"),
         "--accuracies", str(run / "accuracies.csv"), "--manifest", manifest,
         "--out", str(run / "report.json"), "--breakdown-dir", str(run / "tables")],
        ["report", "--input", str(run / "report.json")],
        *(["ablate", "--artifacts", str(run), "--kind", kind, *values,
           "--out", str(run / f"sw_{kind}.csv")]
          for kind, values in [("dataset_size", ["--values", "10,50,250,2000"]),
                               ("n_samples", ["--values", "1,2,5,10,100"]),
                               ("neighborhood_size", [])]),
    ]


class TestAnyExperiment:
    """Any valid experiment runs end to end (ROADMAP item 11)."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(config=experiments())
    def test_every_command_exits_zero_or_with_one_error_line(self, config):
        from smoothgen.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            run, config_path = Path(tmp) / "run", Path(tmp) / "exp.json"
            config_path.write_text(json.dumps(experiment_to_dict(config)))
            for i, argv in enumerate(readme_commands(run, config_path)):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main(argv)
                errors = [ln for ln in err.getvalue().splitlines()
                          if not ln.startswith("warning: ")]
                assert (rc, len(errors)) in ((0, 0), (1, 1)), (argv[0], err.getvalue())
                assert all(ln.startswith("error: ") for ln in errors)
                if i == 0:
                    assert rc == 0
                    converged = sum(r.converged for r in parse_manifest(run / "manifest.jsonl"))
                    logs = len(list((run / "predictions").iterdir()))
                    assert logs == converged * len(config.domains) * len(config.neighborhoods)
                    ablation_logs = len(list((run / "ablation").iterdir()))
                    names = 2 + len(config.ablation.size_r_values) if config.ablation else 0
                    assert ablation_logs == converged * names

    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(config=experiments())
    def test_parallel_training_gives_the_serial_tree(self, config):
        from smoothgen.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            config_path = Path(tmp) / "exp.json"
            config_path.write_text(json.dumps(experiment_to_dict(config)))
            for name, threads in (("serial", "1"), ("parallel", "2")):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["synth", "--config", str(config_path), "--threads", threads,
                                 "--out", str(Path(tmp) / name)]) == 0
            assert tree_digest(Path(tmp) / "parallel") == tree_digest(Path(tmp) / "serial")
