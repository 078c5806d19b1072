"""End-to-end acceptance gate.

One test per acceptance criterion; each registers a PASS/FAIL line that is
echoed in the terminal summary. The heavyweight benchmark run is shared
through the session-scoped ``full_run`` fixture.
"""

import math
import time

import numpy as np

from smoothgen.baselines import atc_fit, atc_predict, spectral_norm
from smoothgen.errors import DegenerateSampleError
from smoothgen.ingest import ScoreLog
from smoothgen.protocol import EvaluationMatrix, build_report, fit_transfer_model
from smoothgen.stats import kendall_tau, ols_fit, r_squared
from smoothgen.synthbench.mlp import _zeros_like, init_model, loss_and_grads, sgd_step
from smoothgen.synthbench.pool import run_pool

from conftest import record_acceptance
from logrows import ScoreEntry, log_from_rows
from test_protocol import MEASURE, linear_matrix, null_matrix
from test_smoothness import naive_smoothness, smoothness
from test_stats import tau_pairwise


def check(name, ok, detail=""):
    record_acceptance(name, ok, detail)
    assert ok, f"{name}: {detail}"


def test_01_smoothness_matches_naive_recount_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        k = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 51))
        preds = rng.integers(0, k, size=n).tolist()
        s = smoothness(preds, k)
        mu, y_hat, ent = naive_smoothness(preds, k)
        if (s.mu != mu or s.dominant_label != y_hat
                or abs(s.neg_entropy - ent) > 1e-12):
            mismatches += 1
    elapsed = time.perf_counter() - start
    check("criterion 1: smoothness oracle equivalence",
          mismatches == 0 and elapsed < 5.0,
          f"{mismatches} mismatches over 1000 logs in {elapsed:.2f}s")


def test_02_kendall_tau_against_pair_enumeration():
    rng = np.random.default_rng(102)
    ok = True
    detail = ""
    for trial in range(200):
        n = int(rng.integers(2, 501))
        xs = rng.integers(0, 10, size=n).astype(float).tolist()
        ys = (np.array(xs) + rng.integers(-3, 4, size=n)).tolist()
        try:
            fast = kendall_tau(xs, ys)
        except DegenerateSampleError:
            continue
        if fast != tau_pairwise(xs, ys):
            ok, detail = False, f"mismatch on sample {trial}"
            break
    hand = (
        kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
        and kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0
        and abs(kendall_tau([1, 2, 3], [1, 3, 2]) - 1.0 / 3.0) < 1e-15
    )
    xs = rng.integers(0, 6, size=60).astype(float).tolist()
    ys = rng.integers(0, 6, size=60).astype(float).tolist()
    monotone = kendall_tau([x**3 + x for x in xs], ys) == kendall_tau(xs, ys)
    check("criterion 2: Kendall tau-b oracle and hand cases",
          ok and hand and monotone, detail or "hand/monotone checks")


def test_03_least_squares_and_goodness_of_fit():
    rng = np.random.default_rng(103)
    recovery = True
    for _ in range(10):
        a, b = rng.normal(size=2) * 4
        xs = rng.normal(size=25).tolist()
        fit = ols_fit(xs, [a * x + b for x in xs])
        if abs(fit.a - a) > 1e-12 or abs(fit.b - b) > 1e-12:
            recovery = False
    perfect = r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    mean_zero = abs(r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])) < 1e-15

    xs = rng.uniform(-2, 2, size=50)
    ys = 0.8 * xs + 0.1 + rng.normal(0, 0.2, size=50)
    fit = ols_fit(xs.tolist(), ys.tolist())

    def mse(a, b):
        return float(np.mean((a * xs + b - ys) ** 2))

    grid = np.linspace(-2, 2, 401)
    grid_best = min(mse(a, b) for a in grid for b in grid)
    check("criterion 3: OLS / R^2 / MAE correctness",
          recovery and perfect and mean_zero
          and mse(fit.a, fit.b) <= grid_best + 1e-4)


def test_04_spectral_norm_against_svd_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        shape = tuple(rng.integers(1, 9, size=2))
        w = rng.normal(size=shape) * float(rng.uniform(0.1, 10))
        want = float(np.linalg.svd(w, compute_uv=False)[0])
        worst = max(worst, abs(spectral_norm(w) - want) / want)
    w = rng.normal(size=(6, 4))
    base = spectral_norm(w)
    scale_ok = all(
        abs(spectral_norm(c * w) - abs(c) * base) <= 1e-8 * abs(c) * base
        for c in (-2.5, 0.01, 300.0)
    )
    check("criterion 4: spectral norm vs dense eigensolver oracle",
          worst < 1e-8 and scale_ok, f"worst relative error {worst:.2e}")


def _calibrated_score_log(rng, n, loc, scale, split, domain):
    """Scores where correctness is a threshold rule plus a 2% flip rate."""
    raw = rng.normal(loc, scale, size=n)
    correct = raw >= 0.0
    flip = rng.random(n) < 0.02
    correct = correct ^ flip
    entries = tuple(
        ScoreEntry(
            example_id=f"e{i}",
            predicted_label=1 if c else 0,
            max_confidence=1.0 / (1.0 + math.exp(-s)),  # monotone squash
            neg_entropy=-1.0 / (1.0 + math.exp(s)),
            true_label=1,
        )
        for i, (s, c) in enumerate(zip(raw, correct))
    )
    return log_from_rows(ScoreLog, entries, model_id="m0", domain=domain, split=split)


def test_05_atc_self_consistency_and_calibrated_shift():
    rng = np.random.default_rng(105)
    val = _calibrated_score_log(rng, 10_000, 0.6, 1.0, "validation", "dv")
    test = _calibrated_score_log(rng, 10_000, 0.1, 1.2, "test", "dt")
    ok = True
    detail = ""
    for kind in ("max_confidence", "neg_entropy"):
        t = atc_fit(val, kind)
        self_pred = atc_predict(val, t)
        actual_val = np.count_nonzero(
            val.predicted_labels == val.true_labels) / 10_000
        if self_pred != actual_val:
            ok, detail = False, f"{kind}: self-consistency broken"
            break
        actual_test = np.count_nonzero(
            test.predicted_labels == test.true_labels) / 10_000
        gap = abs(atc_predict(test, t) - actual_test)
        if gap > 0.03:
            ok, detail = False, f"{kind}: OOD gap {gap:.3f}"
            break
        detail = f"last OOD gap {gap:.4f}"
    check("criterion 5: ATC self-consistency and shifted-score accuracy", ok,
          detail)


def test_06_protocol_on_constructed_matrices():
    exact = build_report(linear_matrix())["measures"][MEASURE]
    exact_ok = (
        abs(exact["r2"] - 1.0) < 1e-9
        and abs(exact["mae_pct"]) < 1e-6
        and all(abs(exact[k] - 1.0) < 1e-12
                for k in ("macro_tau", "micro_tau", "id_tau", "cross_domain_tau"))
    )

    null = build_report(null_matrix(seed=106))["measures"][MEASURE]
    null_ok = (
        abs(null["micro_tau"]) < 0.1
        and abs(null["macro_tau"]) < 0.1
        and abs(null["id_tau"]) < 0.1
        and null["r2"] < 0.1
    )

    jittered = linear_matrix(jitter=0.02)
    fit = fit_transfer_model(jittered, MEASURE, "d0", "d1")
    tampered = {
        key: (999.0 if key[0].startswith(("d0-", "d1-")) else value)
        for key, value in jittered.measures.items()
    }
    refit = fit_transfer_model(
        EvaluationMatrix(tampered, jittered.accuracies, jittered.models),
        MEASURE, "d0", "d1")
    exclusion_ok = fit.a == refit.a and fit.b == refit.b

    check("criterion 6: protocol exact/null/pool-exclusion checks",
          exact_ok and null_ok and exclusion_ok,
          f"exact={exact_ok} null={null_ok} exclusion={exclusion_ok}")


def test_07_training_gradients_decay_and_determinism(tmp_path):
    from test_synthbench import tiny_config

    rng = np.random.default_rng(107)
    cfg = tiny_config().grid[1]
    model = init_model(3, cfg)
    x = rng.normal(size=(10, 2))
    y = rng.integers(0, 3, size=10)
    _, grad = loss_and_grads(model, x, y)
    eps = 1e-6
    worst = 0.0
    for params, grads in ((model.weights, grad.weights), (model.biases, grad.biases)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                up = loss_and_grads(model, x, y)[0]
                p[idx] = orig - eps
                down = loss_and_grads(model, x, y)[0]
                p[idx] = orig
                fd = (up - down) / (2 * eps)
                worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    grads_ok = worst < 1e-5

    decay_model = init_model(2, cfg)
    zero = _zeros_like(decay_model)
    factor = 1.0 - 0.1 * 0.5
    before = [np.linalg.norm(w) for w in decay_model.weights]
    decay_ok = True
    for step in range(1, 4):
        sgd_step(decay_model, zero, 0.1, 0.5)
        now = [np.linalg.norm(w) for w in decay_model.weights]
        decay_ok &= all(
            abs(n - factor**step * b0) <= 1e-12 * b0 for n, b0 in zip(now, before))

    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_pool(tiny_config(), a_dir)
    run_pool(tiny_config(), b_dir)
    rels = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file())
    determinism_ok = all(
        (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes() for rel in rels
    ) and len(rels) > 0

    check("criterion 7: backprop gradients, weight decay, determinism",
          grads_ok and decay_ok and determinism_ok,
          f"worst gradient error {worst:.2e}")


def _manifold_measure(report):
    names = [m for m in report["measures"] if m.startswith("ms_manifold")]
    assert len(names) == 1
    return report["measures"][names[0]]


def test_08_pool_scale_and_runtime(full_run):
    n = full_run["result"].num_converged
    seconds = full_run["train_seconds"]
    check("criterion 8: pool scale and runtime",
          n >= 150 and seconds < 600.0,
          f"{n} converged models in {seconds:.0f}s")


def test_08a_manifold_smoothness_correlation_floor(full_run):
    entry = _manifold_measure(full_run["report"])
    check("criterion 8a: manifold smoothness ID/micro correlation floor",
          entry["id_tau"] >= 0.3 and entry["micro_tau"] >= 0.3,
          f"id_tau {entry['id_tau']:.3f}, micro_tau {entry['micro_tau']:.3f}")


def _sweep_taus(rows):
    return {
        value: (float(tau) if status == "ok" else None)
        for value, tau, status, _ in rows
    }


def test_08b_dataset_size_trend(full_run):
    taus = _sweep_taus(full_run["sweeps"]["dataset_size"])
    check("criterion 8b: correlation grows with test-set size",
          taus[2000] is not None and taus[10] is not None
          and taus[2000] > taus[10],
          f"tau(10)={taus[10]:.3f}, tau(2000)={taus[2000]:.3f}")


def test_08b_neighborhood_sample_count_trend(full_run):
    taus = _sweep_taus(full_run["sweeps"]["n_samples"])
    # A single neighborhood sample forces every per-example score to 1, so
    # the rank correlation is undefined there and the sweep records a skip;
    # the stability claim is therefore unattainable at n = 1 as specified.
    ok = (taus[1] is not None and taus[100] is not None
          and abs(taus[1] - taus[100]) <= 0.1)
    stable_small_n = (taus[2] is not None
                      and abs(taus[2] - taus[100]) <= 0.2)
    record_acceptance(
        "criterion 8b: correlation stable as neighborhood samples shrink", ok,
        "tau undefined at n=1 (all models maximally smooth); "
        + (f"n>=2 plateau holds: tau(2)={taus[2]:.3f}, tau(100)={taus[100]:.3f}"
           if stable_small_n else "n>=2 plateau also broken"))
    assert ok, (
        "tau at n=1 is undefined: with one sample per example the dominant "
        "class always covers it, every model scores exactly 1.0, and tau-b "
        f"has no value. Plateau for n>=2: tau(2)={taus[2]}, tau(100)={taus[100]}")


def test_08b_neighborhood_size_interior_maximum(full_run):
    rows = full_run["sweeps"]["neighborhood_size"]
    taus = _sweep_taus(rows)
    values = [v for v, _, status, _ in rows if status == "ok"]
    best = max(values, key=lambda v: taus[v])
    check("criterion 8b: neighborhood size sweep has an interior maximum",
          len(values) == 9 and best not in (values[0], values[-1]),
          f"max at size_r={best:g} "
          f"(endpoints {taus[values[0]]:.3f}, {taus[values[-1]]:.3f})")


def test_09_estimator_concentration():
    rng = np.random.default_rng(109)
    p = 0.8
    ok = True
    details = []
    for n in (10, 100, 1000):
        mus = []
        for _ in range(3000):
            preds = (rng.random(n) >= p).astype(int).tolist()
            mus.append(smoothness(preds, 2).mu)
        emp = float(np.std(mus))
        ref = math.sqrt(p * (1 - p) / n)
        ratio = emp / ref
        details.append(f"n={n}: ratio {ratio:.2f}")
        ok &= 1 / 1.5 <= ratio <= 1.5
    check("criterion 9: smoothness estimator concentration rate", ok,
          "; ".join(details))
