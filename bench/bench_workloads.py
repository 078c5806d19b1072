"""Workloads of the smoothgen benchmark.

Each workload makes its inputs from the seed, times calls into the program's
public functions, and checks the outputs with code that does not go through
the program (plain ``json``/``csv`` reads and naive recounts). Every pipeline
call and every check is one attempted operation; a raised error or a mismatch
is one failed operation.

Workloads (cut so that one run fits in well under a minute on 2 CPUs; each
model's work is the full experiment's, only the number of models is cut):

- ``synth_default``: ``run_pool`` on the default experiment with 3 clean-label
  grid configurations (15 models), the default splits, both neighbourhood
  specs and the ablation block. The write side: inference, log
  serialisation, neighbourhood sampling and pool bookkeeping dominate.
- ``analyze_default``: on a tree that set-up builds with ``run_pool`` from the
  same experiment, ``cmd_score`` (with accuracies), ``cmd_baseline`` (with
  weights), ``cmd_evaluate`` (with breakdowns) and the three ``cmd_ablate``
  sweeps with the README values. The read side: parsing and scoring dominate.
- ``synth_train``: ``run_pool`` on the default domains with the 12 clean-label
  configurations of ``default_grid(ce_margin=0.02)`` (60 models),
  ``m_train=2000``, ``m_test=100``, the first neighbourhood spec only and no
  ablation. The only workload where MLP training is the largest layer.

Host speed. On a small shared host the CPU speed a process gets drifts by a
third over tens of seconds, longer than a run, so raw wall times of the same
code spread by 15-30% between runs however long each run is. A fixed
reference computation (``reference_work``: pure-Python arithmetic, ``json``
parsing and small numpy kernels, owned by the benchmark and never by the
program) is timed before every set-up, before every timed iteration and after
the last one, on the same CPU as the program. Every end-to-end time is
reported scaled to a host on which that reference takes ``REFERENCE_S``: each
set-up or iteration time is multiplied by ``REFERENCE_S`` over the mean of the
reference times just before and just after it, and the metric is the median
of the scaled times. A change that makes the program slower or faster moves
the scaled time as much as the raw one; the run record keeps the raw times and
the reference times.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from smoothgen import cli
from smoothgen.synthbench import pool

import bench_trace

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("synth_default", "analyze_default", "synth_train")

# The pools keep only the grid's label-noise-free configurations. With label
# noise the epochs to convergence swing with the seed (some models run to
# max_epochs, one seed's pool trains several times the epochs of another's),
# so run-to-run differences would measure the seed rather than the program;
# without it they repeat within about 2%.
CLEAN_LABELS = (0.0,)
# Configurations 0, 5 and 10 of the 12 clean ones: (depth, width, weight
# decay) = (1, 8, 0), (2, 8, 1e-4), (3, 32, 0).
DEFAULT_GRID_STRIDE = 5

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"synth_default": 5, "analyze_default": 3, "synth_train": 5}

# README sweep values; neighborhood_size takes its values from experiment.json.
SWEEPS = (
    ("dataset_size", [10, 50, 250, 2000]),
    ("n_samples", [1, 2, 5, 10, 100]),
    ("neighborhood_size", None),
)

# Prediction logs per iteration read back with plain json and checked.
SAMPLED_LOGS = 8
RECOUNT_REL_TOL = 1e-12

# Seconds the reference computation takes on the host the scaled times refer to
# (about what it takes on a 2-vCPU 2.1 GHz cloud VM).
REFERENCE_S = 0.15

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("logs_per_s", "1/s"),
]


def experiment(workload, seed, scale="bench"):
    """The workload's experiment; ``scale="tiny"`` shrinks every size for tests."""
    tiny = scale == "tiny"
    if workload == "synth_train":
        cfg = pool.default_experiment(seed, with_ablation=False)
        cfg.grid = pool.default_grid(seed=seed, ce_margin=0.02, label_noises=CLEAN_LABELS)
        cfg.m_train, cfg.m_test = (150, 20) if tiny else (2000, 100)
        cfg.neighborhoods = cfg.neighborhoods[:1]
    elif workload in ("synth_default", "analyze_default"):
        cfg = pool.default_experiment(seed)
        cfg.grid = pool.default_grid(seed=seed, label_noises=CLEAN_LABELS)[::DEFAULT_GRID_STRIDE]
        if tiny:
            cfg.m_train, cfg.m_val, cfg.m_test = 60, 20, 20
            cfg.ablation = pool.AblationSpec(
                domain_id=cfg.ablation.domain_id,
                base_size_r=cfg.ablation.base_size_r,
                m_test=40,
                n_samples_max=12,
                size_r_values=cfg.ablation.size_r_values[:2],
            )
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if tiny:
        cfg.grid = cfg.grid[:2]
    return cfg


class Checks:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def _fail(self, what):
        self.failed += 1
        self.messages.append(what)

    def call(self, what, fn, *args, **kwargs):
        """One pipeline call; its error is recorded, not raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a failing call is a failed operation; the run goes on
            self._fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def verify(self, what, fn):
        """One output check: ``fn`` returns whether the output is right."""
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as e:  # unreadable output fails the check
            self._fail(f"{what}: {type(e).__name__}: {e}")
            return False
        if not ok:
            self._fail(what)
        return ok


# ---------------------------------------------------------------- outputs, read naively


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def recount(path):
    """(model, domain, neighbourhood tag, mu, accuracy) of a prediction log."""
    header, *examples = read_jsonl(path)
    mu = sum(
        max(Counter(ex["neighborhood_predictions"]).values()) / len(ex["neighborhood_predictions"])
        for ex in examples
    ) / len(examples)
    accuracy = sum(ex["base_prediction"] == ex["true_label"] for ex in examples) / len(examples)
    tag = header["meta"]["neighborhood"]
    return header["model_id"], header["test_domain"], tag, mu, accuracy


def close(a, b):
    return a is not None and math.isclose(a, b, rel_tol=RECOUNT_REL_TOL)


def tree_digest(root):
    """SHA-256 over the relative paths and contents of every file in a tree."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def tree_bytes(root):
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(root)
        for name in filenames
    )


def fsync_tree(root):
    """Flush a tree to disk so its writeback does not land in later timings.

    Trees are removed only when the run ends: unlinking (and the discards it
    issues) would otherwise run in kernel threads during the next iteration.
    """
    for dirpath, _, filenames in os.walk(root):
        for name in filenames + ["."]:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def count_files(directory):
    return len(os.listdir(directory)) if os.path.isdir(directory) else 0


def check_tree(tree, cfg, result, checks, rng):
    """Expected file and row counts, plus a sample of logs read with json."""
    tree = Path(tree)
    manifest = read_jsonl(tree / "manifest.jsonl") if (tree / "manifest.jsonl").exists() else []
    converged = sum(bool(r["converged"]) for r in manifest)
    n_dom, n_nbr = len(cfg.domains), len(cfg.neighborhoods)
    checks.verify("manifest rows", lambda: len(manifest) == len(cfg.grid) * len(cfg.training_domains()))
    checks.verify("converged count", lambda: result is not None and result.num_converged == converged)
    expected = {
        "predictions": converged * n_dom * n_nbr,
        "scores": converged * (1 + n_dom),
        "weights": converged,
        "ablation": converged * (2 + len(cfg.ablation.size_r_values)) if cfg.ablation else 0,
    }
    for sub, count in expected.items():
        checks.verify(f"{sub}/ file count", lambda: count_files(tree / sub) == count)
    checks.verify("experiment.json", lambda: "experiment" in json.loads((tree / "experiment.json").read_text()))

    samples = {s.tag: s.n_samples for s in cfg.neighborhoods}
    logs = sorted((tree / "predictions").glob("*.jsonl"))
    for path in rng.sample(logs, min(SAMPLED_LOGS, len(logs))):
        def well_formed(path=path):
            header, *examples = read_jsonl(path)
            n, k = samples[header["meta"]["neighborhood"]], header["num_classes"]
            return header["type"] == "prediction_log" and len(examples) == cfg.m_test and all(
                len(ex["neighborhood_predictions"]) == n
                and all(0 <= c < k for c in ex["neighborhood_predictions"])
                and 0 <= ex["true_label"] < k
                for ex in examples
            )

        checks.verify(f"{path.name}: log structure", well_formed)


def check_analysis(out, tree, cfg, checks, rng):
    """Row counts, report measures, sweep rows and a naive recount of mu/accuracy."""
    out, tree = Path(out), Path(tree)
    converged = {r["model_id"] for r in read_jsonl(tree / "manifest.jsonl") if r["converged"]}
    n_dom, n_nbr = len(cfg.domains), len(cfg.neighborhoods)
    tables = {}
    for name, rows in (
        ("scores.csv", len(converged) * n_dom * n_nbr * 2),
        ("accuracies.csv", len(converged) * n_dom),
        ("baselines.csv", len(converged) * n_dom * 4),
    ):
        def rows_ok(name=name, rows=rows):
            tables[name] = read_csv_rows(out / name)
            return len(tables[name]) == rows

        checks.verify(f"{name} rows", rows_ok)

    measures = {f"{p}_{s.tag}" for p in ("ms", "mse") for s in cfg.neighborhoods}
    measures |= {"atc_mc", "atc_ne", "norm_spectral", "norm_frobenius"}
    checks.verify(
        "report.json measures",
        lambda: set(json.loads((out / "report.json").read_text())["measures"]) == measures,
    )
    for kind, values in SWEEPS:
        values = values or list(cfg.ablation.size_r_values)
        checks.verify(
            f"sweep_{kind}.csv rows",
            lambda kind=kind, values=values: [
                float(r["value"]) for r in read_csv_rows(out / f"sweep_{kind}.csv")
            ] == [float(v) for v in values],
        )

    scores = {
        (r["model_id"], r["test_domain"], r["measure"]): float(r["value"])
        for r in tables.get("scores.csv", [])
    }
    accuracies = {
        (r["model_id"], r["test_domain"]): float(r["accuracy"])
        for r in tables.get("accuracies.csv", [])
    }
    logs = sorted((tree / "predictions").glob("*.jsonl"))
    for path in rng.sample(logs, min(SAMPLED_LOGS, len(logs))):
        def matches(path=path):
            model, domain, tag, mu, accuracy = recount(path)
            if model not in converged:
                return (model, domain, f"ms_{tag}") not in scores
            return close(scores.get((model, domain, f"ms_{tag}")), mu) and close(
                accuracies.get((model, domain)), accuracy
            )

        checks.verify(f"{path.name}: mu and accuracy recount", matches)


# ---------------------------------------------------------------- host speed

_REF_RNG = random.Random(0)
_REF_DOC = json.dumps([
    {"a": [_REF_RNG.randrange(10) for _ in range(20)], "b": _REF_RNG.random(), "c": "x" * 8}
    for _ in range(400)
])
_REF_ARRAY = np.random.default_rng(0).random((200, 200))


def reference_work():
    """Wall seconds of a fixed computation that samples the host's current speed.

    The garbage collector is off while it runs, so the program's heap left
    from earlier iterations does not change its cost.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(5):
            for _ in range(6):
                json.loads(_REF_DOC)
            total = 0
            for i in range(120_000):
                total += i * i % 7
            for _ in range(20):
                np.sort(_REF_ARRAY, axis=1)
                _REF_ARRAY @ _REF_ARRAY
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaled(times, reference):
    """``times[i]`` scaled to the reference host by the reference times
    ``reference[i]`` and ``reference[i + 1]`` taken just before and after it."""
    return [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(times, reference, reference[1:])]


# ---------------------------------------------------------------- set-up

_SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import bench_workloads; "
    "bench_workloads.setup_child(*sys.argv[3:])"
)


def setup_child(workload, seed, scale, out):
    """Set-up work, run in a fresh interpreter: import the program, build the
    experiment and, for the analysis workload, write and flush its input tree."""
    cfg = experiment(workload, int(seed), scale)
    if workload == "analyze_default":
        pool.run_pool(cfg, out)
        fsync_tree(out)


def run_setup(workload, seed, scale, out, src):
    """Wall seconds of one set-up in a child process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(src), str(BENCH_DIR), workload, str(seed),
         scale, str(out)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------- timed iterations


def cpu_seconds():
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Sample:
    wall: float
    cpu: float
    nbytes: int
    logs: int


@dataclass
class Context:
    workload: str
    cfg: object
    work: Path
    checks: Checks
    rng: random.Random
    tree: Path = None
    logs_read: int = 0
    digests: list = field(default_factory=list)
    reference: list = field(default_factory=list)  # reference_work() times around iterations


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def synth_iteration(ctx, i, tracer):
    out = ctx.work / f"tree{i}"
    start, cpu = time.perf_counter(), cpu_seconds()
    with _span(tracer, "pool.run_pool"):
        result = ctx.checks.call("run_pool", pool.run_pool, ctx.cfg, out)
    sample = Sample(time.perf_counter() - start, cpu_seconds() - cpu, tree_bytes(out),
                    sum(count_files(out / sub) for sub in ("predictions", "scores", "ablation")))
    check_tree(out, ctx.cfg, result, ctx.checks, ctx.rng)
    digest = tree_digest(out)
    if ctx.digests:
        ctx.checks.verify("same-seed trees have the same digest", lambda: digest == ctx.digests[0])
    ctx.digests.append(digest)
    fsync_tree(out)
    return sample


def analyze_iteration(ctx, i, tracer):
    out = ctx.work / f"analysis{i}"
    out.mkdir()
    tree, call = ctx.tree, ctx.checks.call
    manifest = str(tree / "manifest.jsonl")
    scores, accuracies = str(out / "scores.csv"), str(out / "accuracies.csv")
    baselines = str(out / "baselines.csv")
    start, cpu = time.perf_counter(), cpu_seconds()
    with _span(tracer, "cli.score"):
        call("cmd_score", cli.cmd_score, [str(tree / "predictions")], manifest, scores,
             acc_out=accuracies)
    with _span(tracer, "cli.baseline"):
        call("cmd_baseline", cli.cmd_baseline, [str(tree / "scores")], [str(tree / "weights")],
             manifest, baselines)
    with _span(tracer, "cli.evaluate"):
        call("cmd_evaluate", cli.cmd_evaluate, [scores, baselines], accuracies, manifest,
             str(out / "report.json"), breakdown_dir=str(out / "tables"))
    for kind, values in SWEEPS:
        with _span(tracer, "cli.ablate"):
            call(f"cmd_ablate {kind}", cli.cmd_ablate, str(tree), kind,
                 str(out / f"sweep_{kind}.csv"), values=values)
    sample = Sample(time.perf_counter() - start, cpu_seconds() - cpu, tree_bytes(out),
                    ctx.logs_read)
    check_analysis(out, tree, ctx.cfg, ctx.checks, ctx.rng)
    fsync_tree(out)
    return sample


def logs_read_by_analysis(tree, cfg):
    """Prediction, score and ablation logs the analysis parses."""
    manifest = read_jsonl(tree / "manifest.jsonl")
    pool_ids = {
        r["model_id"] for r in manifest
        if r["converged"] and r["train_domain"] != cfg.ablation.domain_id
    }
    ablation = sum(
        name.split("__")[0] in pool_ids for name in os.listdir(tree / "ablation")
    )
    return count_files(tree / "predictions") + count_files(tree / "scores") + ablation


# ---------------------------------------------------------------- one run


def environment(root):
    src_lines = 0
    for path in sorted(Path(root, "src").rglob("*.py")):
        with open(path, "rb") as f:
            src_lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": src_lines,
    }


def run_workload(workload, seed, seconds, trace, root, scale="bench", work_root=None):
    """Run one workload; returns the result object, a run record and the spans."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    root = Path(root)
    work = Path(work_root or root / ".bench_work") / f"{workload}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    checks = Checks()
    ctx = Context(workload, experiment(workload, seed, scale), work, checks, random.Random(seed))
    try:
        setup_times, setup_reference = [], []
        for r in range(SETUP_REPEATS[workload]):
            tree = work / f"setup{r}"
            setup_reference.append(reference_work())
            setup_times.append(run_setup(workload, seed, scale, tree, root / "src"))
            if workload != "analyze_default":
                continue
            digest = tree_digest(tree)
            if ctx.digests:
                checks.verify("same-seed set-up trees have the same digest",
                              lambda: digest == ctx.digests[0])
            else:
                ctx.tree = tree
                ctx.logs_read = logs_read_by_analysis(tree, ctx.cfg)
            ctx.digests.append(digest)
        setup_reference.append(reference_work())
        iterate = analyze_iteration if workload == "analyze_default" else synth_iteration
        _warm_up(ctx, iterate, seed, scale)
        untraced, traced, layers, spans = _measure(ctx, iterate, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = bench_trace.median_metrics(layers)
        metrics["trace.overhead_s"] = (
            statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in untraced)
        )
        for name in bench_trace.COUNT_METRICS:
            checks.verify(f"{name} repeats across traced iterations",
                          lambda name=name: len({it[name] for it in layers}) == 1)
        units = dict(bench_trace.PER_LAYER)
    else:
        wall = statistics.median(scaled([s.wall for s in untraced], ctx.reference))
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(scaled([s.cpu for s in untraced], ctx.reference)),
            "setup_s": statistics.median(scaled(setup_times, setup_reference)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "artifact_mb": statistics.median(s.nbytes for s in untraced) / 1e6,
            "logs_per_s": statistics.median(s.logs for s in untraced) / wall,
        }
        units = dict(END_TO_END)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "iterations": len(untraced) + len(traced),
        "iteration_wall_s": [s.wall for s in untraced],
        "iteration_cpu_s": [s.cpu for s in untraced],
        "reference_s": ctx.reference,
        "setup_wall_s": setup_times,
        "setup_reference_s": setup_reference,
        "tree_sha256": ctx.digests[0] if ctx.digests else None,
        "failures": checks.messages,
        **environment(root),
    }
    return result, record, spans


def _warm_up(ctx, iterate, seed, scale):
    """One untimed iteration: the analysis on its tree, a synth workload on its
    tiny-scale experiment (the same code paths at a fraction of the time)."""
    if iterate is analyze_iteration:
        iterate(ctx, "warmup", None)
    else:
        ctx.checks.call("warm-up run_pool", pool.run_pool,
                        experiment(ctx.workload, seed, "tiny"), ctx.work / "warmup")


def _measure(ctx, iterate, seconds, trace):
    """Iterate while the next iteration is expected to end within ``seconds``
    (one iteration at least, two when traced), timing the reference computation
    before each iteration and after the last. A traced run alternates untraced
    and traced iterations so it can report the tracing overhead."""
    tracer = bench_trace.Tracer() if trace else None
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    i, last = 0, 0.0
    while i < (2 if trace else 1) or time.perf_counter() - start + last < seconds:
        began = time.perf_counter()
        ctx.reference.append(reference_work())
        if trace and i % 2 == 1:
            offset = len(tracer.spans)
            tracer.counts.clear()
            tracer.install()
            try:
                traced.append(iterate(ctx, i, tracer))
            finally:
                tracer.uninstall()
            layers.append(bench_trace.layer_metrics(tracer.spans[offset:], offset, tracer.counts))
        else:
            untraced.append(iterate(ctx, i, None))
        i += 1
        last = time.perf_counter() - began
    ctx.reference.append(reference_work())
    return untraced, traced, layers, tracer.spans if trace else []
