"""Experiment runner: trains a model pool over domain-shifted synthetic data
and emits the manifest, prediction logs, score logs and weight dumps consumed
by the rest of the pipeline.

Each neighborhood set a model's prediction logs need is sampled once and
shared across models, and predicted once per model however many logs it
makes. All outputs are written atomically and deterministically for a fixed
experiment seed, the manifest last.
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
from concurrent.futures import ProcessPoolExecutor
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
    write_manifest,
    write_prediction_log,
    write_score_log,
    write_weight_dump,
)
from .domains import (
    ArcSpec,
    Dataset,
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


def _decode(tp, value, where):
    """``value`` from an experiment file as type ``tp``: a dataclass from an
    object of its fields, a list or tuple from an array, an Optional, or a
    scalar. Values are checked, not converted (an integer stays one where a
    float is expected, and a boolean is not a number), so the experiment
    written back and its hash keep their bytes."""
    if dataclasses.is_dataclass(tp):
        if type(value) is not dict:
            raise SchemaError(f"{where} must be an object")
        hints = typing.get_type_hints(tp)
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
    config = _decode(ExperimentConfig, obj, "experiment")
    ablation = config.ablation
    if ablation is not None and ablation.domain_id not in {d.domain_id for d in config.domains}:
        raise SchemaError(f"ablation domain {ablation.domain_id!r} names no domain")
    return config


def ablation_from_dict(obj: dict) -> Optional[AblationSpec]:
    """The experiment's ablation, checked without building (and so checking the
    arc margins of) its domains, which takes milliseconds and megabytes each."""
    return _decode(Optional[AblationSpec], obj.get("ablation"), "experiment.ablation")


def load_experiment(path) -> ExperimentConfig:
    """The experiment in a .json or .toml file, or in a run's own record,
    ``experiment.json``, whose meta must hold the experiment's hash; a file
    that does not parse or does not describe an experiment raises a
    SchemaError naming it."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as f:
            if path.endswith(".toml"):
                import tomllib

                obj = tomllib.load(f)
            else:
                obj = json.load(f)
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


def _neighborhood_points(test_set: Dataset, domain: DomainSpec, spec: NeighborhoodSpec,
                         base_seed: int) -> np.ndarray:
    rng = np.random.default_rng(
        derive_seed(base_seed, "nbr", domain.domain_id, spec.tag, spec.seed)
    )
    return sample_neighborhood(test_set.points, domain, spec, rng=rng)


def _example_ids(m: int) -> tuple:
    return tuple(f"ex{idx:05d}" for idx in range(m))


def run_pool(config: ExperimentConfig, out_dir, threads: int = 1) -> PoolResult:
    """Train the grid on every training domain and emit all pipeline inputs."""
    training = config.training_domains()
    if len(training) < 2:
        raise SchemaError("need at least 2 training domains")
    out_dir = os.fspath(out_dir)
    for sub in ("predictions", "scores", "weights", "ablation"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    # The manifest is written last, so a run that stops early leaves none, and
    # every command that reads the tree stops on it; a stale one goes first.
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)

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

    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            trained = list(pool.map(_train_job, jobs, chunksize=4))
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

    # Evaluation sets: a validation set per training domain, and test sets by
    # (domain, split), one per domain plus the ablation's large one.
    domains = {d.domain_id: d for d in config.domains}
    val_sets = {
        d.domain_id: generate_domain(d, config.m_val, derive_seed(config.seed, "val", d.domain_id))
        for d in training
    }
    test_sets = {
        (d.domain_id, "test"): generate_domain(
            d, config.m_test, derive_seed(config.seed, "test", d.domain_id)
        )
        for d in config.domains
    }

    # Every prediction log a model gets, main and ablation alike, as (directory,
    # name, test set, spec). The ablation adds a large test set, a deep-sample
    # neighborhood and a size_r sweep, all on one designated domain.
    pred_dir, ab_dir = os.path.join(out_dir, "predictions"), os.path.join(out_dir, "ablation")
    plan = [
        (pred_dir, f"{d.domain_id}__{spec.tag}", (d.domain_id, "test"), spec)
        for d in config.domains
        for spec in config.neighborhoods
    ]
    ab = config.ablation
    if ab is not None:
        big, small = (ab.domain_id, "ablation_test"), (ab.domain_id, "test")
        test_sets[big] = generate_domain(domains[ab.domain_id], ab.m_test,
                                         derive_seed(config.seed, "ablation_test", ab.domain_id))
        sets = [("dataset_size", big, ab.base_size_r, 10),
                ("n_samples", small, ab.base_size_r, ab.n_samples_max)]
        sets += [(f"size_r__{r:g}", small, r, 10) for r in ab.size_r_values]
        plan += [
            (ab_dir, name, key,
             NeighborhoodSpec(kind="manifold", size_r=r, n_samples=n, seed=config.seed))
            for name, key, r, n in sets
        ]
    # Each distinct (test set, spec) is sampled once, seeded by its domain and
    # spec, for all models, and predicted and rendered once per model for
    # every file of the plan it makes (the ablation's base size_r repeats a
    # main log).
    files = {}
    for directory, name, key, spec in plan:
        files.setdefault((key, spec), []).append((directory, name))
    groups = [
        (key, spec, names,
         _neighborhood_points(test_sets[key], domains[key[0]], spec, config.seed))
        for (key, spec), names in files.items()
    ]

    # Every log of one size shares one tuple of example ids.
    example_ids = functools.cache(_example_ids)
    for model_id, (train_domain, model) in sorted(by_id.items()):
        # Score logs on the model's validation set (threshold fitting) and on
        # each test set; a test set's classes are its base classes.
        base_classes = {}
        for (domain_id, split), dataset in [
            ((train_domain, "validation"), val_sets[train_domain]), *test_sets.items()
        ]:
            if split == "ablation_test":
                base_classes[domain_id, split] = predict_classes(model, dataset.points)
                continue
            classes, conf, negent = model_predict(model, dataset.points)
            base_classes[domain_id, split] = classes
            log = ScoreLog(
                model_id=model_id,
                domain=domain_id,
                split=split,
                example_ids=example_ids(len(classes)),
                predicted_labels=classes,
                max_confidence=conf,
                # Rounding can leave an entropy a hair above zero. Like min(x, 0.0),
                # this keeps a -0.0, where np.minimum need not.
                neg_entropy=np.where(negent > 0.0, 0.0, negent),
                true_labels=dataset.labels,
                num_classes=dataset.num_classes,
                meta=meta_common,
            )
            path = os.path.join(out_dir, "scores", f"{model_id}__{domain_id}__{split}.jsonl")
            write_score_log(log, path)

        for key, spec, names, samples in groups:
            dataset = test_sets[key]
            m, n, _ = samples.shape
            log = NeighborhoodPredictionLog(
                model_id=model_id,
                test_domain=key[0],
                num_classes=dataset.num_classes,
                example_ids=example_ids(m),
                predictions=predict_classes(model, samples.reshape(m * n, 2)),
                lengths=np.full(m, n),
                true_labels=dataset.labels,
                base_predictions=base_classes[key],
                meta={**meta_common, "neighborhood": spec.tag},
            )
            write_prediction_log(log, *(os.path.join(directory, f"{model_id}__{name}.jsonl")
                                        for directory, name in names))

        write_weight_dump(
            WeightDump(model_id=model_id, layers=tuple(np.array(w) for w in model.weights)),
            os.path.join(out_dir, "weights", f"{model_id}.bin"),
        )

    experiment = {"meta": meta_common, "experiment": experiment_to_dict(config)}
    atomic_write_text(os.path.join(out_dir, "experiment.json"),
                      json.dumps(experiment, sort_keys=True, indent=2))
    write_manifest(manifest, manifest_path)
    return PoolResult(out_dir=out_dir, manifest=manifest, num_converged=len(by_id))
