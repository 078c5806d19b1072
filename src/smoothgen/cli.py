"""Command-line surface for the pipeline.

Subcommands: synth (generate a benchmark pool), score (smoothness measures
from prediction logs), baseline (ATC and weight-norm measures), evaluate
(full metric report), ablate (sweep analyses) and report (pretty-print a
report). All outputs are machine-readable and deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

from . import __version__
from .baselines import atc_fit, atc_predict, norm_measures
from .errors import DegenerateSampleError, SchemaError, SmoothgenError
from .ingest import (
    atomic_write_text,
    compute_accuracy,
    list_files,
    parse_manifest,
    parse_prediction_log,
    parse_score_log,
    read_text,
    read_weight_dump,
)
from .protocol import REPORT_LAYOUT, build_report
from .smoothness import (
    VARIANTS,
    check_neighborhood_length,
    check_subsample_size,
    dataset_smoothness,
    subsample_examples,
    truncate_neighborhood,
)
from .stats import kendall_tau
from .tables import (
    AccuracyRow,
    ScoreRow,
    build_matrix,
    read_accuracies_csv,
    read_scores_csv,
    require_complete,
    unique_rows,
    write_accuracies_csv,
    write_csv,
    write_scores_csv,
)


# The smoothness variants of each --variant name of score and ablate.
CLI_VARIANTS = {"majority": ("majority",), "entropy": ("neg_entropy",), "both": VARIANTS}


def _manifest_models(manifest_path):
    """The manifest's records by model id; a manifest with no converged model,
    whose run wrote no logs to read, raises a SmoothgenError naming it."""
    models = {m.model_id: m for m in parse_manifest(manifest_path)}
    if not any(m.converged for m in models.values()):
        raise SmoothgenError(f"{manifest_path}: no model converged, so there are no logs")
    return models


def _converged_artifacts(paths, read, models, pattern="*.jsonl"):
    """(artifact, manifest record, path) of each file of ``paths``, a
    directory giving its files that match ``pattern``, whose artifact,
    ``read(path)``, is of a converged model; an artifact of a model the
    manifest lacks raises a SmoothgenError naming the file. ``models`` maps
    ids to records. Each command passes its reader from its own body, so the
    benchmark's tracer sees every read through this module's names."""
    files = [f for p in paths for f in (list_files(p, pattern) if os.path.isdir(p) else [p])]
    if not files:
        raise SmoothgenError(f"no input files found in {paths!r}")
    for path in files:
        artifact = read(path)
        rec = models.get(artifact.model_id)
        if rec is None:
            raise SmoothgenError(f"{path}: model {artifact.model_id!r} not in manifest")
        if rec.converged:
            yield artifact, rec, path


def _of_file(path, fn, *args):
    """``fn(*args)``; a SchemaError it raises is raised again naming file
    ``path``, the log ``args`` were read from."""
    try:
        return fn(*args)
    except SchemaError as e:
        raise SchemaError(str(e), path) from None


def cmd_score(inputs, manifest_path, out, variant="both", acc_out=None):
    """Smoothness measure CSV (and optionally accuracies) from prediction logs."""
    models = _manifest_models(manifest_path)
    score_rows, acc_rows, logged = [], [], {}
    for log, rec, path in _converged_artifacts(inputs, parse_prediction_log, models):
        tag = log.meta.get("neighborhood", "default")
        first = logged.setdefault(log.model_id, {}).setdefault((log.test_domain, tag), path)
        if first != path:  # a log whose header names another model, say
            raise SmoothgenError(f"model {log.model_id!r}: two prediction logs of test domain "
                                 f"{log.test_domain!r} with neighborhood {tag!r}, "
                                 f"{first} and {path}")
        for var in CLI_VARIANTS[variant]:
            prefix = "ms" if var == "majority" else "mse"
            score_rows.append(
                ScoreRow(
                    model_id=log.model_id,
                    train_domain=rec.train_domain,
                    test_domain=log.test_domain,
                    measure=f"{prefix}_{tag}",
                    value=_of_file(path, dataset_smoothness, log, var),
                )
            )
        if acc_out is not None:
            acc_rows.append(
                (AccuracyRow(log.model_id, log.test_domain,
                             _of_file(path, compute_accuracy, log)), path)
            )
    # A converged model that lost some of its logs after the manifest was
    # written would score on fewer pairs than the others; one that lost all
    # of them has no accuracies, which evaluate catches.
    require_complete({model_id: set(keys) for model_id, keys in logged.items()},
                     lambda key: f"no prediction log of test domain {key[0]!r} "
                                 f"with neighborhood {key[1]!r}")
    acc_rows = unique_rows(acc_rows)  # one per (model, domain), checked before any write
    write_scores_csv(score_rows, out)
    if acc_out is not None:
        write_accuracies_csv(acc_rows, acc_out)
    return len(score_rows)


def cmd_baseline(score_inputs, weight_inputs, manifest_path, out):
    """ATC accuracy predictions and weight-norm measures as a scores CSV.

    Score logs are read one at a time and not kept: a model's two ATC
    thresholds are fit when its validation log is read, and a test log gives
    its two ATC values. A test log read before its model's validation log
    waits for it; in sorted file order that is at most one model's test logs.
    """
    models = _manifest_models(manifest_path)
    logged = {model_id: set() for model_id, rec in models.items() if rec.converged}
    fitted, waiting, rows, omitted = {}, {}, [], []

    def atc_rows(log, rec, path, thresholds):
        rows.extend(ScoreRow(log.model_id, rec.train_domain, log.domain, name,
                             _of_file(path, atc_predict, log, threshold))
                    for name, threshold in thresholds)

    for log, rec, path in _converged_artifacts(score_inputs, parse_score_log, models):
        if log.split == "validation":
            if log.domain != rec.train_domain:
                raise SchemaError(f"validation score log of domain {log.domain!r}, but model "
                                  f"{log.model_id!r} trained on {rec.train_domain!r}", path)
            if log.model_id in fitted:
                raise SmoothgenError(
                    f"model {log.model_id!r}: two validation score logs, "
                    f"{fitted[log.model_id][0]} and {path}"
                )
            thresholds = [
                (name, _of_file(path, atc_fit, log, kind))
                for kind, name in (("max_confidence", "atc_mc"), ("neg_entropy", "atc_ne"))
            ]
            fitted[log.model_id] = path, thresholds
            for test in waiting.pop(log.model_id, ()):
                atc_rows(*test, thresholds)
        else:
            logged[log.model_id].add((log.split, log.domain))
            if log.model_id in fitted:
                atc_rows(log, rec, path, fitted[log.model_id][1])
            else:
                waiting.setdefault(log.model_id, []).append((log, rec, path))
    # A converged model that lost some or all of its score logs after the
    # manifest was written would be left out of pools. Validation logs are
    # left to the threshold fit, which requires one of a model with test logs.
    require_complete(logged, lambda key: f"no score log of split {key[0]!r} on domain "
                                         f"{key[1]!r}")
    if waiting:
        raise SmoothgenError(f"model {next(iter(waiting))!r}: no validation score log for "
                             f"threshold fitting")
    if weight_inputs:
        dumped = {model_id: set() for model_id in logged}
        for dump, rec, _ in _converged_artifacts(weight_inputs, read_weight_dump, models,
                                                 pattern="*.bin"):
            dumped[dump.model_id].add("weight dump")
            norms = norm_measures(dump)
            for name, value in (
                ("norm_spectral", norms.spectral),
                ("norm_frobenius", norms.frobenius),
            ):
                # A norm too large for a float saturates to inf, which no
                # scores CSV may hold; the measure is left out for the model,
                # and the CSV declares it so evaluate does not stop on it.
                if not math.isfinite(value):
                    print(f"warning: model {dump.model_id!r}: {name} is {value!r}, "
                          f"not finite; its rows are left out", file=sys.stderr)
                    omitted.append((dump.model_id, name))
                    continue
                rows.extend(ScoreRow(dump.model_id, rec.train_domain, domain, name, value)
                            for _, domain in logged[dump.model_id])
        require_complete(dumped, lambda _: "no weight dump")
    write_scores_csv(rows, out, omitted)
    return len(rows)


def cmd_evaluate(score_csvs, accuracies_csv, manifest_path, out, breakdown_dir=None,
                 tau_variant="b"):
    """Joined metric report (JSON) plus optional breakdown CSVs."""
    manifest = parse_manifest(manifest_path)
    scores = [(path, *read_scores_csv(path)) for path in score_csvs]
    accuracies = (accuracies_csv, read_accuracies_csv(accuracies_csv))
    matrix = build_matrix(manifest, scores, accuracies)
    report = build_report(matrix, tau_variant=tau_variant)
    payload = {"meta": {"tool_version": __version__}, **report}
    atomic_write_text(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if breakdown_dir is not None:
        os.makedirs(breakdown_dir, exist_ok=True)
        _write_breakdowns(report, breakdown_dir)
    return report


def _write_breakdowns(report, breakdown_dir):
    measures = report["measures"]
    for _, table, key_cols, _ in REPORT_LAYOUT:
        rows = [(measure, *row) for measure in sorted(measures)
                for row in measures[measure]["breakdown"][table]]
        write_csv(os.path.join(breakdown_dir, f"{table}.csv"),
                  ("measure",) + key_cols + ("value",), rows)


def _read_json_object(path, key):
    """The object under ``key`` in the JSON object of file ``path``; a file
    that holds no such object raises a SchemaError naming it."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"invalid JSON: {e.msg}", path, e.lineno) from None
    except (ValueError, RecursionError) as e:  # too many digits, too deep
        raise SchemaError(f"invalid JSON: {e}", path) from None
    if not isinstance(obj, dict):
        raise SchemaError(f"top level must be an object, got {type(obj).__name__}", path)
    if not isinstance(obj.get(key), dict):
        raise SchemaError(f"missing object {key!r}", path)
    return obj[key]


def _ablation_context(artifacts):
    """(converged models not trained on the ablation domain, the domain, the
    AblationSpec, and the plan ``run_files`` of a pool model) from a run's
    manifest and record, experiment.json, read as ``synth --config`` reads
    it; ``synth`` writes ablation logs only for a record with an ablation."""
    from .synthbench.pool import load_experiment, run_files

    manifest = parse_manifest(os.path.join(artifacts, "manifest.jsonl"))
    exp_path = os.path.join(artifacts, "experiment.json")
    config = load_experiment(exp_path)
    if config.ablation is None:
        raise SchemaError("no ablation in the experiment, so the run has no ablation logs",
                          exp_path)
    domain = config.ablation.domain_id
    pool = [m for m in manifest if m.converged and m.train_domain != domain]
    if len(pool) < 2:
        raise SmoothgenError(f"ablation pool too small: {len(pool)} models")
    return (pool, domain, config.ablation,
            lambda m, size_rs: run_files(config, m.model_id, m.train_domain, size_rs))


def _sweep_row(value, xs, ys, tau_variant):
    """(value, tau, "ok", models) of smoothness values ``xs`` against
    accuracies ``ys``, or a skipped row when tau is undefined."""
    try:
        return (value, repr(kendall_tau(xs, ys, variant=tau_variant)), "ok", len(xs))
    except DegenerateSampleError as e:
        return (value, "", f"skipped: {e}", 0)


def cmd_ablate(artifacts, kind, out, values=None, variant="majority",
               tau_variant="b", seed=0):
    """Sweep CSV of (value, tau) rows for one ablation kind, over the pool's
    logs as ``run_files``, the plan ``synth`` writes by, names them in the
    run's record (the swept size_r values standing in for the record's).

    A value the logs cannot take (a size beyond a log's examples, more samples
    than a neighbourhood holds, no logs for a size_r) and a value where tau is
    undefined give a skipped row; a malformed log, or one that some but not
    all pool models lack, raises. The pool's logs are read one at a time, and
    each keeps only its accuracy and its smoothness at each value.
    """
    if seed < 0:
        raise SmoothgenError(f"--seed must be >= 0, got {seed}")
    pool, domain, ablation, plan = _ablation_context(artifacts)
    ab_dir = os.path.join(artifacts, "ablation")

    def sweep(logs, values, check, transform):
        """The rows of ``values`` over ``logs``, the pool models' RunFiles of
        one log, or None when no model of the pool has one; a pool model
        without one, when others have theirs, raises a SchemaError naming the
        first missing log. A value that some log fails ``check`` at gives a
        skipped row with the first such log's fault."""
        paths = {m.model_id: os.path.join(artifacts, f.path) for m, f in zip(pool, logs)}
        absent = [p for p in paths.values() if not os.path.exists(p)]
        if len(absent) == len(paths):
            return None
        if absent:
            raise SchemaError(f"ablation log missing; {len(absent)} of {len(paths)} "
                              f"pool models have none", absent[0])
        xs, faults, ys = [[] for _ in values], [None] * len(values), []
        for mid, path in paths.items():
            log = parse_prediction_log(path)
            if log.model_id != mid:
                raise SchemaError(f"ablation log of model {log.model_id!r}, but its file is "
                                  f"named for {mid!r}", path)
            if log.test_domain != domain:
                raise SchemaError(f"ablation log of test domain {log.test_domain!r}, "
                                  f"but the sweep's domain is {domain!r}", path)
            ys.append(_of_file(path, compute_accuracy, log))
            for i, v in enumerate(values):
                if faults[i] is None:
                    try:
                        check(log, v)
                    except ValueError as e:
                        faults[i] = e
                    else:
                        xs[i].append(dataset_smoothness(transform(log, v), variant))
        return [(v, "", f"skipped: {fault}", 0) if fault is not None
                else _sweep_row(v, x, ys, tau_variant)
                for v, x, fault in zip(values, xs, faults)]

    def missing(logs):
        return f"missing ablation logs {logs[0].name!r} under {ab_dir}"

    sweeps = {  # kind: (check that a value fits a log, the log at that value)
        "dataset_size": (check_subsample_size,
                         lambda log, v: subsample_examples(log, v, seed)),
        "n_samples": (check_neighborhood_length, truncate_neighborhood),
    }
    if kind == "neighborhood_size":
        if values is None:
            values = [float(r) for r in ablation.size_r_values]
    elif kind not in sweeps:
        raise SmoothgenError(f"unknown ablation kind {kind!r}")
    if not values:
        raise SmoothgenError(f"{kind} sweep needs --values")
    size_rs = values if kind == "neighborhood_size" else ()
    steps = list(zip(*([f for f in plan(m, size_rs) if f.sweep == kind] for m in pool)))
    if kind == "neighborhood_size":
        rows = []
        for v, logs in zip(values, steps):
            swept = sweep(logs, [v], lambda log, _: None, lambda log, _: log)
            rows.extend(swept or [(v, "", f"skipped: {missing(logs)}", 0)])
    else:
        # the same logs at every value, so each is read and scored for accuracy once
        rows = sweep(steps[0], values, *sweeps[kind])
        if rows is None:
            raise SmoothgenError(missing(steps[0]))

    write_csv(out, ("value", "tau", "status", "num_models"), rows,
              {"kind": kind, "test_domain": domain, "seed": seed})
    return rows


def cmd_report(report_path, stream=None):
    """Human-readable summary of a metric report: per measure and aggregate,
    the mean the report holds, and from its breakdown the median of the
    group values, the number of groups and the number skipped."""
    stream = stream or sys.stdout
    measures = _read_json_object(report_path, "measures")
    name_w = max([len("measure")] + [len(m) for m in measures])
    agg_w = max(len(value_key) for value_key, *_ in REPORT_LAYOUT)
    print(f"{'measure':<{name_w}} {'aggregate':<{agg_w}} {'mean':>10} {'median':>10} "
          f"{'groups':>6} {'skipped':>7}", file=stream)

    def number(x):
        return f"{x:>10.3f}" if x is not None else f"{'--':>10}"

    for measure in sorted(measures):
        entry = measures[measure]
        for value_key, table, _, skip_list in REPORT_LAYOUT:
            try:
                values = [row[-1] for row in entry["breakdown"][table]]
                skipped = len(entry["skipped"][skip_list])
                median = statistics.median(values) if values else None
                line = (f"{measure:<{name_w}} {value_key:<{agg_w}} "
                        f"{number(entry.get(value_key))} {number(median)} "
                        f"{len(values):>6} {skipped:>7}")
            except (KeyError, IndexError, TypeError, ValueError):
                raise SchemaError(
                    f"measure {measure!r}: no valid {value_key!r} mean, "
                    f"{table!r} breakdown or {skip_list!r} skipped list", report_path
                ) from None
            print(line, file=stream)


def _sweep_values(text, kind):
    """The comma-separated --values of a sweep: floats for neighborhood_size,
    integers for the other kinds."""
    number = float if kind == "neighborhood_size" else int
    try:
        return [number(v) for v in text.split(",") if v]
    except ValueError:
        raise SmoothgenError(
            f"--values {text!r}: expected comma-separated {number.__name__} values"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothgen",
        description="Smoothness-based generalization prediction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark pool")
    p.add_argument("--config", help="experiment file (.json or .toml); omit for the default experiment")
    p.add_argument("--out", required=True, help="output artifact directory")
    p.add_argument("--seed", type=int, default=None, help="set every seed of the experiment")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("score", help="smoothness scores from prediction logs")
    p.add_argument("--input", nargs="+", required=True, help="prediction logs or directories")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="scores CSV path")
    p.add_argument("--acc-out", help="also write an accuracies CSV here")
    p.add_argument("--variant", choices=tuple(CLI_VARIANTS), default="both")

    p = sub.add_parser("baseline", help="ATC and weight-norm baseline scores")
    p.add_argument("--scores", nargs="+", required=True, help="score logs or directories")
    p.add_argument("--weights", nargs="*", default=[], help="weight dumps or directories")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="full correlation report")
    p.add_argument("--scores", nargs="+", required=True, help="scores CSV files")
    p.add_argument("--accuracies", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--breakdown-dir")
    p.add_argument("--tau", choices=("b", "a"), default="b")

    p = sub.add_parser("ablate", help="sweep analyses over benchmark artifacts")
    p.add_argument("--artifacts", required=True, help="synth output directory")
    p.add_argument("--kind", required=True,
                   choices=("dataset_size", "n_samples", "neighborhood_size"))
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=("majority", "entropy"), default="majority")
    p.add_argument("--tau", choices=("b", "a"), default="b")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="pretty-print a report JSON")
    p.add_argument("--input", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            from .synthbench.pool import default_experiment, load_experiment, run_pool

            if args.config:
                config = load_experiment(args.config)
                if args.seed is not None:
                    config = config.with_seed(args.seed)
            else:
                config = default_experiment(seed=args.seed or 0)
            result = run_pool(config, args.out, threads=args.threads)
            print(
                f"trained {len(result.manifest)} models, "
                f"{result.num_converged} converged; artifacts in {result.out_dir}"
            )
        elif args.command == "score":
            n = cmd_score(args.input, args.manifest, args.out,
                          variant=args.variant, acc_out=args.acc_out)
            print(f"wrote {n} score rows to {args.out}")
        elif args.command == "baseline":
            n = cmd_baseline(args.scores, args.weights, args.manifest, args.out)
            print(f"wrote {n} score rows to {args.out}")
        elif args.command == "evaluate":
            cmd_evaluate(args.scores, args.accuracies, args.manifest, args.out,
                         breakdown_dir=args.breakdown_dir, tau_variant=args.tau)
            print(f"wrote report to {args.out}")
        elif args.command == "ablate":
            values = None if args.values is None else _sweep_values(args.values, args.kind)
            (variant,) = CLI_VARIANTS[args.variant]
            cmd_ablate(args.artifacts, args.kind, args.out, values=values,
                       variant=variant, tau_variant=args.tau, seed=args.seed)
            print(f"wrote sweep to {args.out}")
        elif args.command == "report":
            cmd_report(args.input)
    except (SmoothgenError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
