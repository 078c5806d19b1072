"""Experiment runner: trains a model pool over domain-shifted synthetic data
and emits the manifest, prediction logs, score logs and weight dumps consumed
by the rest of the pipeline.

A model's logs are written one evaluation set at a time: the set's score
log, whose classes are the base predictions of the set's prediction logs,
then those logs. Every log of one set, of every model, shares one tuple of
example ids, checked once. Each neighborhood set a model's prediction logs
need is sampled once and shared across models, and predicted once per model
however many logs it makes. All outputs are written atomically and
deterministically for a fixed experiment seed, the manifest last.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import typing
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import __version__
from ..errors import DivergenceError, SchemaError
from ..ingest import (
    ModelRecord,
    NeighborhoodPredictionLog,
    ScoreLog,
    WeightDump,
    atomic_write_text,
    list_files,
    read_text,
    write_manifest,
    write_prediction_log,
    write_score_log,
    write_weight_dump,
)
from .domains import (
    ArcSpec,
    DomainSpec,
    NeighborhoodSpec,
    apply_label_noise,
    generate_domain,
    sample_neighborhood,
)
from .mlp import TrainConfig, model_predict, predict_classes, train_model


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a sequence of labels."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# The name of a size_r in its sweep log's file name.
_size_r_name = "{:g}".format


def _require_file_names(what, names):
    """Each of ``names`` goes into a file name, so it must be one plain
    file-name component (not empty, ``.`` or ``..``, and holding no ``/`` or
    NUL), and two equal ones would overwrite each other's files."""
    seen = set()
    for name in names:
        if name in ("", ".", "..") or "/" in name or "\0" in name:
            raise SchemaError(f"{what}: {name!r} is not a plain file name")
        if name in seen:
            raise SchemaError(f"two {what} named {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class AblationSpec:
    """Extra logs for the sweep analyses, produced on a single test domain."""

    domain_id: str
    base_size_r: float
    m_test: int = 2000
    n_samples_max: int = 100
    size_r_values: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("m_test", "n_samples_max"):
            if getattr(self, name) < 1:
                raise SchemaError(f"ablation {name} must be >= 1, got {getattr(self, name)}")
        for r in (self.base_size_r, *self.size_r_values):
            if not r > 0:
                raise SchemaError(f"ablation size_r must be positive, got {r}")
        _require_file_names("ablation size_r_values", map(_size_r_name, self.size_r_values))


@dataclass
class ExperimentConfig:
    domains: list[DomainSpec]
    grid: list[TrainConfig]
    neighborhoods: list[NeighborhoodSpec]
    m_train: int = 500
    m_val: int = 250
    m_test: int = 500
    seed: int = 0
    ablation: Optional[AblationSpec] = None

    def __post_init__(self):
        for name in ("m_train", "m_val", "m_test"):
            if getattr(self, name) < 1:
                raise SchemaError(f"{name} must be >= 1, got {getattr(self, name)}")
        domain_ids = [d.domain_id for d in self.domains]
        _require_file_names("domains", domain_ids)
        _require_file_names("neighborhoods", [s.tag for s in self.neighborhoods])
        if self.ablation is not None and self.ablation.domain_id not in domain_ids:
            raise SchemaError(f"ablation domain {self.ablation.domain_id!r} names no domain")

    def with_seed(self, seed: int) -> ExperimentConfig:
        """The experiment with every seed it holds set to ``seed``: its own,
        each grid config's and each neighborhood's, as in
        ``default_experiment(seed)``."""
        return dataclasses.replace(
            self, seed=seed, grid=[dataclasses.replace(c, seed=seed) for c in self.grid],
            neighborhoods=[dataclasses.replace(s, seed=seed) for s in self.neighborhoods])

    def training_domains(self) -> list:
        return [d for d in self.domains if not d.far_shift]

    def config_hash(self) -> str:
        blob = json.dumps(experiment_to_dict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def experiment_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    if out["ablation"] is None:
        del out["ablation"]
    return out


# Field types by dataclass, resolved once: most of the time an uncached decode takes.
_type_hints = functools.cache(typing.get_type_hints)


def _decode(tp, value, where):
    """``value`` from an experiment file as type ``tp``: a dataclass from an
    object of its fields, a list or tuple from an array, an Optional, or a
    scalar. Values are checked, not converted (an integer stays one where a
    float is expected, and a boolean is not a number), so the experiment
    written back and its hash keep their bytes."""
    if dataclasses.is_dataclass(tp):
        if type(value) is not dict:
            raise SchemaError(f"{where} must be an object")
        hints = _type_hints(tp)
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = sorted(value.keys() - fields)
        if unknown:
            raise SchemaError(f"{where}: unknown key {unknown[0]!r}")
        for name, f in fields.items():
            if name not in value and f.default is f.default_factory is dataclasses.MISSING:
                raise SchemaError(f"{where}: missing key {name!r}")
        return tp(**{name: _decode(hints[name], v, f"{where}.{name}") for name, v in value.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _decode(args[0], value, where)
    if origin in (list, tuple):
        if type(value) not in (list, tuple):
            raise SchemaError(f"{where} must be an array")
        fixed = origin is tuple and args[-1] is not Ellipsis  # tuple[X, Y], not tuple[X, ...]
        if fixed and len(value) != len(args):
            raise SchemaError(f"{where} must have {len(args)} items")
        items = args if fixed else args[:1] * len(value)
        return origin(_decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
    if type(value) not in ((int, float) if tp is float else (tp,)):
        raise SchemaError(f"{where} must be of type {tp.__name__}, got {value!r}")
    if tp is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise SchemaError(f"{where} must be a finite float, got {value!r}")
    return value


def experiment_from_dict(obj: dict) -> ExperimentConfig:
    return _decode(ExperimentConfig, obj, "experiment")


def load_experiment(path) -> ExperimentConfig:
    """The experiment in a .json or .toml file, or in a run's own record,
    ``experiment.json``, whose meta must hold the experiment's hash; a file
    that is not UTF-8, does not parse or does not describe an experiment
    raises a SchemaError naming it, and the line of a bad byte or JSON."""
    path = os.fspath(path)
    text = read_text(path)
    try:
        if path.endswith(".toml"):
            import tomllib

            obj = tomllib.loads(text)
        else:
            obj = json.loads(text)
        if type(obj) is dict and obj.keys() == {"meta", "experiment"}:  # a run's record
            config = experiment_from_dict(obj["experiment"])
            recorded = obj["meta"].get("config_hash") if type(obj["meta"]) is dict else None
            if recorded != config.config_hash():
                raise SchemaError(f"meta.config_hash {recorded!r} is not the experiment's "
                                  f"hash {config.config_hash()!r}")
            return config
        return experiment_from_dict(obj)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}", path, e.lineno) from e
    except (ValueError, RecursionError, SchemaError) as e:
        raise SchemaError(f"invalid experiment: {e}", path) from e


def _noise_floor_ce(label_noise: float, k: int) -> float:
    """Cross entropy of the best non-memorizing predictor under label noise."""
    if label_noise == 0.0:
        return 0.0
    q = 1.0 - label_noise * (k - 1) / k
    other = label_noise / k
    return -(q * math.log(q) + (k - 1) * other * math.log(other))


# The default experiment: three class arcs 20 degrees apart, and a grid of
# every (depth, width, weight decay, label noise) setting, each trained for at
# most 300 epochs.
_NUM_CLASSES = 3
_ARC_GAP = math.radians(20)
_DEPTHS = (1, 2, 3)
_WIDTHS = (8, 32)
_WEIGHT_DECAYS = (0.0, 1e-4)
_MAX_EPOCHS = 300


def default_grid(
    seed: int = 0, label_noises=(0.0, 0.2, 0.4), ce_margin: float = 0.05
) -> list:
    """Hyperparameter grid; ce_stop tracks the noise floor of each setting so
    label-noise runs can converge without memorizing every corrupted label."""
    return [
        TrainConfig(
            depth=depth,
            width=width,
            weight_decay=wd,
            label_noise=noise,
            batch_size=32,
            learning_rate=0.1,
            ce_stop=ce_margin + _noise_floor_ce(noise, _NUM_CLASSES),
            max_epochs=_MAX_EPOCHS,
            seed=seed,
        )
        for depth, width, wd, noise in itertools.product(
            _DEPTHS, _WIDTHS, _WEIGHT_DECAYS, label_noises
        )
    ]


def default_arcs() -> tuple:
    sector = 2.0 * math.pi / _NUM_CLASSES
    return tuple(
        ArcSpec(
            center=(0.0, 0.0),
            radius=1.0,
            theta_start=j * sector + _ARC_GAP / 2.0,
            theta_extent=sector - _ARC_GAP,
        )
        for j in range(_NUM_CLASSES)
    )


def default_experiment(seed: int = 0, with_ablation: bool = True) -> ExperimentConfig:
    """Five training domains on a rotation sweep plus a far-shift test domain."""
    arcs = default_arcs()
    domains = [
        DomainSpec(
            domain_id=f"rot{deg:03d}",
            rotation=math.radians(deg),
            translation=(0.0, 0.0),
            noise_std=0.05,
            class_arcs=arcs,
        )
        for deg in (0, 20, 40, 60, 80)
    ]
    domains.append(
        DomainSpec(
            domain_id="far140",
            rotation=math.radians(140),
            translation=(0.0, 0.0),
            noise_std=0.05,
            class_arcs=arcs,
            far_shift=True,
        )
    )
    neighborhoods = [
        NeighborhoodSpec(kind="manifold", size_r=0.5, n_samples=10, seed=seed),
        NeighborhoodSpec(kind="isotropic", size_r=0.3, n_samples=10, seed=seed),
    ]
    ablation = None
    if with_ablation:
        ablation = AblationSpec(
            domain_id="rot040",
            base_size_r=0.5,
            m_test=2000,
            n_samples_max=100,
            size_r_values=(0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.2, 1.8, 2.6),
        )
    return ExperimentConfig(
        domains=domains,
        grid=default_grid(seed=seed),
        neighborhoods=neighborhoods,
        seed=seed,
        ablation=ablation,
    )


def _train_job(job):
    """(the trained model, None), or (None, the epoch) for a model whose
    training diverged; numpy's floating-point warnings are silenced, as
    ``run_pool`` names each diverged model instead."""
    _, _, dataset, config = job
    with np.errstate(all="ignore"):
        try:
            return train_model(dataset, config), None
        except DivergenceError as e:
            return None, e.epoch


@dataclass
class PoolResult:
    out_dir: str
    manifest: list
    num_converged: int


# A file of a model's run: its path in the run, what follows the model id in its name,
# and for a log its test set (domain, split), a prediction log's spec and its sweep kind.
RunFile = namedtuple("RunFile", "path name key spec sweep", defaults=(None,) * 4)


def run_files(config: ExperimentConfig, model_id: str, train_domain: str,
              size_rs=None) -> list:
    """The one rule of a run's file names: every file the run of ``config`` writes for
    converged model ``model_id`` trained on ``train_domain``. ``size_rs`` stands in for
    the ablation's ``size_r_values``; a size_r no spec can take names a log of none."""
    def log(directory, name, key, spec=None, sweep=None):
        return RunFile(f"{directory}/{model_id}__{name}.jsonl", name, key, spec, sweep)

    tests = [(d.domain_id, "test") for d in config.domains]
    files = [log("scores", f"{domain}__{split}", (domain, split))
             for domain, split in [(train_domain, "validation"), *tests]]
    files += [log("predictions", f"{key[0]}__{spec.tag}", key, spec)
              for key in tests for spec in config.neighborhoods]
    ab = config.ablation
    if ab is not None:
        sets = [("dataset_size", "dataset_size", "ablation_test", ab.base_size_r, 10),
                ("n_samples", "n_samples", "test", ab.base_size_r, ab.n_samples_max)]
        sets += [("neighborhood_size", f"size_r__{_size_r_name(r)}", "test", r, 10)
                 for r in (ab.size_r_values if size_rs is None else size_rs)]
        files += [log("ablation", name, (ab.domain_id, split),
                      NeighborhoodSpec("manifold", r, n, config.seed) if r > 0 else None, sweep)
                  for sweep, name, split, r, n in sets]
    files.append(RunFile(f"weights/{model_id}.bin"))
    return files


# Training jobs handed to a worker at a time when ``run_pool`` trains in parallel.
_CHUNK = 4


def run_pool(config: ExperimentConfig, out_dir, threads: int = 1) -> PoolResult:
    """Train the grid on every training domain and emit all pipeline inputs;
    a file in the run's subdirectories that ``run_files`` does not name (a
    log of another experiment, say) stops it before training. ``threads``
    above 1 trains in worker processes, at most one per chunk of jobs and per
    CPU: each is started at the first submit, and more would have nothing to
    do."""
    training = config.training_domains()
    if len(training) < 2:
        raise SchemaError("need at least 2 training domains")
    out_dir = os.fspath(out_dir)

    meta_common = {"tool_version": __version__, "config_hash": config.config_hash(),
                   "seed": config.seed}

    # Training jobs, one per (training domain, grid config).
    jobs = []
    for domain in training:
        train_set = generate_domain(
            domain, config.m_train, derive_seed(config.seed, "train", domain.domain_id)
        )
        for idx, base_cfg in enumerate(config.grid):
            cfg = dataclasses.replace(
                base_cfg, seed=derive_seed(config.seed, "model", domain.domain_id, idx)
            )
            noisy = apply_label_noise(
                train_set,
                cfg.label_noise,
                derive_seed(config.seed, "label_noise", domain.domain_id, idx),
            )
            jobs.append((domain.domain_id, f"{domain.domain_id}-c{idx:03d}", noisy, cfg))

    planned = {f.path for domain, model_id, _, _ in jobs
               for f in run_files(config, model_id, domain)}
    subdirs = ("predictions", "scores", "weights", "ablation")
    for path in (p for sub in subdirs for p in list_files(os.path.join(out_dir, sub))):
        if os.path.relpath(path, out_dir) not in planned:
            raise SchemaError("not a file of this experiment's run, and synth deletes "
                              "nothing; give it an --out without such files", path)
    for sub in subdirs:
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    # The manifest is written last, so a run that stops early leaves none, and
    # every command that reads the tree stops on it; a stale one goes first.
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)

    if threads > 1 and jobs:
        from concurrent.futures import ProcessPoolExecutor  # slow; a serial run needs none

        workers = min(threads, -(-len(jobs) // _CHUNK), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            trained = list(pool.map(_train_job, jobs, chunksize=_CHUNK))
    else:
        trained = [_train_job(j) for j in jobs]

    by_id = {}
    manifest = []
    for (domain_id, model_id, dataset, cfg), (model, diverged_at) in zip(jobs, trained):
        if diverged_at is not None:
            print(f"warning: model {model_id!r}: training diverged at epoch {diverged_at}; "
                  f"recorded as not converged", file=sys.stderr)
        converged = model is not None and model.converged
        manifest.append(
            ModelRecord(
                model_id=model_id,
                arch="mlp",
                train_domain=domain_id,
                hyperparams=cfg.hyperparams(),
                converged=converged,
            )
        )
        if converged:
            by_id[model_id] = (domain_id, model)

    # Evaluation sets by (domain, split): a validation set per training domain, a
    # test set per domain, and the ablation's large one; each drawn from the seed of
    # its label, and with one tuple of example ids that every log of it shares.
    domains = {d.domain_id: d for d in config.domains}
    ab = config.ablation
    draws = [(d, "validation", "val", config.m_val) for d in training]
    draws += [(d, "test", "test", config.m_test) for d in config.domains]
    if ab is not None:
        draws.append((domains[ab.domain_id], "ablation_test", "ablation_test", ab.m_test))
    sets = {(d.domain_id, split):
            generate_domain(d, m, derive_seed(config.seed, label, d.domain_id))
            for d, split, label, m in draws}
    ids = {key: tuple(f"ex{i:05d}" for i in range(len(s.labels))) for key, s in sets.items()}

    @functools.cache
    def points(key, spec):
        """Test set ``key``'s neighborhoods, sampled once for all models."""
        rng = np.random.default_rng(derive_seed(config.seed, "nbr", key[0], spec.tag, spec.seed))
        return sample_neighborhood(sets[key].points, domains[key[0]], spec, rng=rng)

    for model_id, (train_domain, model) in sorted(by_id.items()):
        # The plan's paths by test set, then by spec: a score log has no spec, the weight
        # dump neither spec nor test set, and the ablation's base size_r repeats a main log.
        plan = {}
        for f in run_files(config, model_id, train_domain):
            plan.setdefault(f.key, {}).setdefault(f.spec, []).append(os.path.join(out_dir, f.path))
        weights = plan.pop(None)[None]
        for key, logs in plan.items():
            # A set's base classes are those of its score log, where the plan has one.
            dataset, scores = sets[key], logs.pop(None, None)
            if scores is None:
                classes = predict_classes(model, dataset.points)
            else:
                classes, conf, negent = model_predict(model, dataset.points)
                log = ScoreLog(
                    model_id=model_id,
                    domain=key[0],
                    split=key[1],
                    example_ids=ids[key],
                    predicted_labels=classes,
                    max_confidence=conf,
                    # Rounding can leave an entropy a hair above zero. Like min(x, 0.0),
                    # this keeps a -0.0, where np.minimum need not.
                    neg_entropy=np.where(negent > 0.0, 0.0, negent),
                    true_labels=dataset.labels,
                    num_classes=dataset.num_classes,
                    meta=meta_common,
                )
                ids[key] = log.example_ids  # checked, so no later log checks them again
                write_score_log(log, *scores)
            for spec, copies in logs.items():
                samples = points(key, spec)
                m, n, _ = samples.shape
                log = NeighborhoodPredictionLog(
                    model_id=model_id,
                    test_domain=key[0],
                    num_classes=dataset.num_classes,
                    example_ids=ids[key],
                    predictions=predict_classes(model, samples.reshape(m * n, 2)),
                    lengths=np.full(m, n),
                    true_labels=dataset.labels,
                    base_predictions=classes,
                    meta={**meta_common, "neighborhood": spec.tag},
                )
                ids[key] = log.example_ids
                write_prediction_log(log, *copies)

        dump = WeightDump(model_id=model_id, layers=tuple(np.array(w) for w in model.weights))
        write_weight_dump(dump, *weights)

    experiment = {"meta": meta_common, "experiment": experiment_to_dict(config)}
    atomic_write_text(os.path.join(out_dir, "experiment.json"),
                      json.dumps(experiment, sort_keys=True, indent=2))
    write_manifest(manifest, manifest_path)
    return PoolResult(out_dir=out_dir, manifest=manifest, num_converged=len(by_id))
