import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from smoothgen.cli import (
    cmd_ablate,
    cmd_baseline,
    cmd_evaluate,
    cmd_report,
    cmd_score,
    main,
)
from smoothgen import ingest
from smoothgen.ingest import (
    ModelRecord,
    NeighborhoodPredictionLog,
    ScoreLog,
    WeightDump,
    read_weight_dump,
    write_manifest,
    write_prediction_log,
    write_score_log,
    write_weight_dump,
)
from smoothgen.protocol import REPORT_LAYOUT
from smoothgen.synthbench.domains import DomainSpec, NeighborhoodSpec
from smoothgen.synthbench.mlp import TrainConfig
from smoothgen.synthbench.pool import (
    AblationSpec,
    ExperimentConfig,
    default_arcs,
    experiment_from_dict,
    experiment_to_dict,
    run_pool,
)
from smoothgen.tables import read_accuracies_csv, read_scores_csv


def small_experiment(seed=0):
    domains = [
        DomainSpec(f"rot{deg:03d}", math.radians(deg), (0.0, 0.0), 0.05,
                   default_arcs())
        for deg in (0, 30, 60)
    ]
    grid = [
        TrainConfig(depth=1, width=8, weight_decay=0.0, label_noise=0.0,
                    batch_size=16, learning_rate=0.1, ce_stop=0.3,
                    max_epochs=100, seed=seed),
        TrainConfig(depth=2, width=8, weight_decay=0.0, label_noise=0.2,
                    batch_size=16, learning_rate=0.1, ce_stop=0.65,
                    max_epochs=100, seed=seed),
    ]
    return ExperimentConfig(
        domains=domains,
        grid=grid,
        neighborhoods=[NeighborhoodSpec("manifold", 0.5, n_samples=5, seed=seed)],
        m_train=80,
        m_val=25,
        m_test=30,
        seed=seed,
        ablation=AblationSpec(
            domain_id="rot030",
            base_size_r=0.5,
            m_test=60,
            n_samples_max=8,
            size_r_values=(0.2, 0.5),
        ),
    )


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-pool")
    result = run_pool(small_experiment(), out)
    return out, result


@pytest.fixture(scope="module")
def two_neighborhood_pool(tmp_path_factory):
    """The small pool, without the ablation, with an isotropic neighborhood
    beside the manifold one."""
    config = small_experiment()
    config.ablation = None
    config.neighborhoods.append(NeighborhoodSpec("isotropic", 0.3, n_samples=5, seed=0))
    out = tmp_path_factory.mktemp("cli-pool-two")
    return out, run_pool(config, out), config.neighborhoods[1].tag


def _write_record(path, obj):
    """Write run record ``obj`` to ``path``, its meta holding the hash of its
    experiment as edited."""
    obj["meta"]["config_hash"] = experiment_from_dict(obj["experiment"]).config_hash()
    path.write_text(json.dumps(obj))


class TestScoreCommand:
    def test_writes_scores_and_accuracies(self, pool, tmp_path):
        out_dir, result = pool
        scores = tmp_path / "scores.csv"
        accs = tmp_path / "acc.csv"
        n = cmd_score([str(out_dir / "predictions")],
                      out_dir / "manifest.jsonl", scores, acc_out=accs)
        rows, _ = read_scores_csv(scores)
        assert len(rows) == n
        # both variants for every converged (model, domain) pair
        assert n == 2 * result.num_converged * 3
        assert {r.measure for r in rows} == {
            "ms_manifold-r0.5-n5", "mse_manifold-r0.5-n5"}
        assert all(0.0 <= r.accuracy <= 1.0 for r in read_accuracies_csv(accs))

    def test_majority_only_variant(self, pool, tmp_path):
        out_dir, _ = pool
        scores = tmp_path / "scores.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl",
                  scores, variant="majority")
        assert {r.measure for r in read_scores_csv(scores)[0]} == {
            "ms_manifold-r0.5-n5"}


    def test_disagreeing_accuracies_rejected(self, two_neighborhood_pool, tmp_path):
        from smoothgen.errors import SmoothgenError

        out_dir, _, isotropic = two_neighborhood_pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        # the isotropic log of a (model, domain) with one label changed, so
        # its accuracy differs from the manifold log's
        tampered = sorted(logs.glob(f"*__{isotropic}.jsonl"))[0]
        source = tampered.with_name(tampered.name.replace(isotropic, "manifold-r0.5-n5"))
        header, first, *rest = tampered.read_text().splitlines()
        example = json.loads(first)
        example["true_label"] = (example["true_label"] + 1) % 3
        tampered.write_text("\n".join([header, json.dumps(example), *rest]) + "\n")
        with pytest.raises(SmoothgenError, match="differs") as exc:
            cmd_score([str(logs)], out_dir / "manifest.jsonl", tmp_path / "s.csv",
                      acc_out=tmp_path / "a.csv")
        assert str(source) in str(exc.value) and str(tampered) in str(exc.value)

    def test_a_directory_named_like_a_glob_pattern_is_read_as_named(self, pool, tmp_path):
        out_dir, _ = pool
        logs = tmp_path / "run[1]" / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        manifest = out_dir / "manifest.jsonl"
        cmd_score([str(out_dir / "predictions")], manifest, tmp_path / "plain.csv")
        cmd_score([str(logs)], manifest, tmp_path / "pattern.csv")
        assert (tmp_path / "pattern.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("existing", [None, b"model_id,old scores\n"])
    def test_disagreeing_accuracies_leave_out_as_it_was(self, two_neighborhood_pool,
                                                        tmp_path, capsys, existing):
        """Both tables' rows are built, each accuracy checked, before either
        is written: a conflict creates no --out and keeps an old one's bytes."""
        out_dir, _, isotropic = two_neighborhood_pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        tampered = sorted(logs.glob(f"*__{isotropic}.jsonl"))[0]
        header, first, *rest = tampered.read_text().splitlines()
        example = json.loads(first)
        example["true_label"] = (example["true_label"] + 1) % 3
        tampered.write_text("\n".join([header, json.dumps(example), *rest]) + "\n")
        out, acc_out = tmp_path / "s.csv", tmp_path / "a.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["score", "--input", str(logs), "--manifest", str(out_dir / "manifest.jsonl"),
                   "--out", str(out), "--acc-out", str(acc_out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: accuracy of model ") and "differs" in err
        assert (out.read_bytes() if out.exists() else None) == existing
        assert not acc_out.exists()

    def test_missing_label_names_the_log(self, pool, tmp_path, capsys):
        out_dir, result = pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        model_id = next(r.model_id for r in result.manifest if r.converged)
        log = sorted(logs.glob(f"{model_id}__*.jsonl"))[0]
        header, first, *rest = log.read_text().splitlines()
        example = json.loads(first)
        del example["true_label"]
        log.write_text("\n".join([header, json.dumps(example), *rest]) + "\n")
        rc = main(["score", "--input", str(logs), "--manifest", str(out_dir / "manifest.jsonl"),
                   "--out", str(tmp_path / "s.csv"), "--acc-out", str(tmp_path / "a.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: example {example['example_id']!r}: missing label, "
            f"accuracy unavailable\n")

    @pytest.mark.parametrize("lost", ["isotropic", "one_domain"])
    def test_a_model_that_lost_some_logs_exits_nonzero(self, two_neighborhood_pool, tmp_path,
                                                       capsys, lost):
        out_dir, result, isotropic = two_neighborhood_pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        assert next(r for r in result.manifest if r.model_id == "rot000-c000").converged
        pattern = f"rot000-c000__*__{isotropic}.jsonl" if lost == "isotropic" else (
            "rot000-c000__rot030__*.jsonl")
        gone = sorted(logs.glob(pattern))
        assert len(gone) == (3 if lost == "isotropic" else 2)
        for path in gone:
            path.unlink()
        # The first missing (test domain, neighborhood) is named.
        domain = "rot000" if lost == "isotropic" else "rot030"
        scores = tmp_path / "s.csv"
        rc = main(["score", "--input", str(logs), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(scores)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model 'rot000-c000' has no prediction log of test domain {domain!r} "
            f"with neighborhood {isotropic!r}, where other models have one\n")
        assert not scores.exists()

    @pytest.mark.parametrize("tag, blank_lines", [(["manifold"], 0), (5, 0), (5, 1)],
                             ids=["list", "number", "number_after_a_blank_line"])
    def test_neighborhood_tag_that_is_not_a_string_names_the_log(self, pool, tmp_path, capsys,
                                                                 tag, blank_lines):
        out_dir, _ = pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        log = sorted(logs.glob("*.jsonl"))[0]
        header, *rest = log.read_text().splitlines()
        header = json.loads(header)
        header["meta"]["neighborhood"] = tag
        log.write_text("\n" * blank_lines + "\n".join([json.dumps(header), *rest]) + "\n")
        scores = tmp_path / "s.csv"
        rc = main(["score", "--input", str(logs), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(scores)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}:{1 + blank_lines}: meta field 'neighborhood' must be a string\n")
        assert not scores.exists()

    def test_log_of_no_examples_names_the_log(self, pool, tmp_path, capsys):
        out_dir, result = pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        model_id = next(r.model_id for r in result.manifest if r.converged)
        log = sorted(logs.glob(f"{model_id}__*.jsonl"))[0]
        log.write_text(log.read_text().splitlines()[0] + "\n")
        rc = main(["score", "--input", str(logs), "--manifest", str(out_dir / "manifest.jsonl"),
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {log}: cannot score a log with no examples\n"


class TestBaselineCommand:
    def test_atc_and_norm_rows(self, pool, tmp_path):
        out_dir, result = pool
        out = tmp_path / "baseline.csv"
        cmd_baseline([str(out_dir / "scores")], [str(out_dir / "weights")],
                     out_dir / "manifest.jsonl", out)
        rows, _ = read_scores_csv(out)
        by_measure = {}
        for r in rows:
            by_measure.setdefault(r.measure, []).append(r)
        assert set(by_measure) == {
            "atc_mc", "atc_ne", "norm_spectral", "norm_frobenius"}
        assert len(by_measure["atc_mc"]) == result.num_converged * 3
        assert all(0.0 <= r.value <= 1.0 for r in by_measure["atc_mc"])
        assert all(r.value > 0 for r in by_measure["norm_spectral"])

    def test_weight_dump_of_a_model_not_in_the_manifest_exits_nonzero(self, pool, tmp_path,
                                                                      capsys):
        out_dir, result = pool
        weights = tmp_path / "weights"
        shutil.copytree(out_dir / "weights", weights)
        model_id = next(r.model_id for r in result.manifest if r.converged)
        dump = read_weight_dump(weights / f"{model_id}.bin")
        ghost = weights / "ghost.bin"
        write_weight_dump(WeightDump("ghost", dump.layers), ghost)
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(out_dir / "scores"), "--weights", str(weights),
                   "--manifest", str(out_dir / "manifest.jsonl"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ghost}: model 'ghost' not in manifest\n"
        assert not out.exists()


    @pytest.mark.parametrize("lost, message", [
        (["scores/rot000-c000__rot060__test.jsonl", "weights/rot000-c000.bin"],
         "no score log of split 'test' on domain 'rot060'"),
        (["scores/rot000-c000__*.jsonl", "weights/rot000-c000.bin"],
         "no score log of split 'test' on domain 'rot000'"),
        (["weights/rot000-c000.bin"], "no weight dump"),
    ], ids=["one_test_log_and_weights", "every_score_log_and_weights", "weights"])
    def test_a_model_that_lost_artifacts_exits_nonzero(self, pool, tmp_path, capsys, lost,
                                                       message):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        assert next(r for r in result.manifest if r.model_id == "rot000-c000").converged
        for pattern in lost:
            gone = sorted(artifacts.glob(pattern))
            assert gone
            for path in gone:
                path.unlink()
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(artifacts / "scores"), "--weights",
                   str(artifacts / "weights"), "--manifest", str(artifacts / "manifest.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model 'rot000-c000' has {message}, where other models have one\n")
        assert not out.exists()

    @pytest.mark.parametrize("conflicting", [False, True], ids=["copy", "conflicting_copy"])
    @pytest.mark.parametrize("kind", ["test_score_log", "weight_dump"])
    def test_a_second_copy_of_an_artifact_exits_nonzero(self, pool, tmp_path, capsys, kind,
                                                        conflicting):
        out_dir, result = pool
        assert next(r for r in result.manifest if r.model_id == "rot000-c000").converged
        copies = tmp_path / "copies"
        copies.mkdir()
        if kind == "test_score_log":
            first = out_dir / "scores" / "rot000-c000__rot000__test.jsonl"
            second = copies / first.name
            shutil.copy(first, second)
            if conflicting:
                header, *entries = map(json.loads, first.read_text().splitlines())
                entries = [{**entry, "max_confidence": 0.34} for entry in entries]
                second.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *entries)))
            inputs = ["--scores", str(out_dir / "scores"), str(copies), "--weights",
                      str(out_dir / "weights")]
            what = "test score logs of domain 'rot000'"
        else:
            first = out_dir / "weights" / "rot000-c000.bin"
            second = copies / first.name
            shutil.copy(first, second)
            if conflicting:
                dump = read_weight_dump(first)
                write_weight_dump(WeightDump(dump.model_id, tuple(2 * w for w in dump.layers)),
                                  second)
            inputs = ["--scores", str(out_dir / "scores"), "--weights",
                      str(out_dir / "weights"), str(copies)]
            what = "weight dumps"
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", *inputs, "--manifest", str(out_dir / "manifest.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model 'rot000-c000': two {what}, {first} and {second}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, twice", [
        ("baseline", "--scores"), ("baseline", "--weights"), ("score", "--input"),
    ])
    def test_a_directory_named_twice_is_read_once(self, pool, tmp_path, command, twice):
        """A directory given twice names each of its files twice; each is read
        once, so the output is that of the directory given once."""
        out_dir, _ = pool
        dirs = ({"--scores": [out_dir / "scores"], "--weights": [out_dir / "weights"]}
                if command == "baseline" else {"--input": [out_dir / "predictions"]})

        def run(out):
            args = [arg for opt, names in dirs.items() for arg in (opt, *map(str, names))]
            return main([command, *args, "--manifest", str(out_dir / "manifest.jsonl"),
                         "--out", str(out)])

        once, doubled = tmp_path / "once.csv", tmp_path / "doubled.csv"
        assert run(once) == 0
        dirs[twice] *= 2
        assert run(doubled) == 0
        assert doubled.read_bytes() == once.read_bytes()

    @staticmethod
    def validation_log(result, scores):
        """The validation score log of the first converged model under ``scores``."""
        model_id = next(r.model_id for r in result.manifest if r.converged)
        return next(scores.glob(f"{model_id}__*__validation.jsonl"))

    def test_two_validation_logs_of_one_model_exit_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        first = self.validation_log(result, scores)
        second = scores / ("zz-" + first.name)
        shutil.copy(first, second)
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(out)])
        assert rc == 1
        model_id = first.name.split("__")[0]
        assert capsys.readouterr().err == (
            f"error: model {model_id!r}: two validation score logs, {first} and {second}\n")
        assert not out.exists()

    def test_validation_log_of_another_domain_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        log = self.validation_log(result, scores)
        model = next(r for r in result.manifest if r.model_id == log.name.split("__")[0])
        header, *rest = log.read_text().splitlines()
        header = json.loads(header)
        assert header["domain"] == model.train_domain != "rot060"
        header["domain"] = "rot060"
        log.write_text("\n".join([json.dumps(header), *rest]) + "\n")
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: validation score log of domain 'rot060', but model "
            f"{model.model_id!r} trained on {model.train_domain!r}\n")
        assert not out.exists()

    def test_test_log_of_no_entries_names_the_log(self, pool, tmp_path, capsys):
        out_dir, result = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        model_id = self.validation_log(result, scores).name.split("__")[0]
        log = next(p for p in sorted(scores.glob(f"{model_id}__*.jsonl"))
                   if not p.name.endswith("__validation.jsonl"))
        log.write_text(log.read_text().splitlines()[0] + "\n")
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(tmp_path / "baselines.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: cannot predict accuracy on an empty score log\n")

    def test_missing_true_label_names_the_log(self, pool, tmp_path, capsys):
        out_dir, result = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        log = self.validation_log(result, scores)
        header, first, *rest = log.read_text().splitlines()
        entry = json.loads(first)
        del entry["true_label"]
        log.write_text("\n".join([header, json.dumps(entry), *rest]) + "\n")
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: entry {entry['example_id']!r}: missing true_label\n")
        assert not out.exists()

    def test_a_model_without_a_validation_log_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        log = self.validation_log(result, scores)
        log.unlink()
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model {log.name.split('__')[0]!r}: no validation score log for "
            f"threshold fitting\n")
        assert not out.exists()

    def test_validation_logs_before_or_after_the_test_logs_give_the_same_values(self, pool,
                                                                               tmp_path):
        """A test log read before its model's validation log waits for the
        thresholds; read after it, it is predicted at once. Either way each
        test log gets the same ATC values."""
        out_dir, _ = pool
        manifest = out_dir / "manifest.jsonl"
        files = sorted(str(p) for p in (out_dir / "scores").glob("*.jsonl"))
        validation = [f for f in files if f.endswith("__validation.jsonl")]
        tests = [f for f in files if f not in validation]
        assert validation and tests
        outs = []
        for name, inputs in (("after", tests + validation), ("before", validation + tests),
                             ("sorted", [str(out_dir / "scores")])):
            outs.append(tmp_path / f"{name}.csv")
            cmd_baseline(inputs, [], manifest, outs[-1])
        rows, _ = read_scores_csv(outs[0])
        assert {r.measure for r in rows} == {"atc_mc", "atc_ne"}
        assert len(rows) == 2 * len(tests)
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


class TestPoolReader:
    """What ``score`` and ``baseline`` share in reading a pool's artifacts."""

    @pytest.mark.parametrize("kind", ["predictions", "scores"])
    def test_log_of_a_model_not_in_the_manifest_exits_nonzero(self, pool, tmp_path, capsys,
                                                              kind):
        out_dir, _ = pool
        logs = tmp_path / kind
        shutil.copytree(out_dir / kind, logs)
        source = sorted(logs.glob("*.jsonl"))[0]
        header, *rest = source.read_text().splitlines()
        header = json.loads(header)
        header["model_id"] = "ghost"
        ghost = logs / ("ghost__" + source.name.split("__", 1)[1])
        ghost.write_text("\n".join([json.dumps(header), *rest]) + "\n")
        command = ["score", "--input"] if kind == "predictions" else ["baseline", "--scores"]
        out = tmp_path / "out.csv"
        rc = main([*command, str(logs), "--manifest", str(out_dir / "manifest.jsonl"),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ghost}: model 'ghost' not in manifest\n"
        assert not out.exists()

    def test_a_pool_with_no_converged_model_is_named_as_such(self, tmp_path, capsys):
        config = small_experiment()
        config.grid = [dataclasses.replace(c, max_epochs=0) for c in config.grid]
        path, run = tmp_path / "exp.json", tmp_path / "run"
        path.write_text(json.dumps(experiment_to_dict(config)))
        assert main(["synth", "--config", str(path), "--out", str(run)]) == 0
        assert "0 converged" in capsys.readouterr().out
        manifest = run / "manifest.jsonl"
        out = tmp_path / "out.csv"
        for command in (["score", "--input", str(run / "predictions")],
                        ["baseline", "--scores", str(run / "scores"), "--weights",
                         str(run / "weights")]):
            rc = main([*command, "--manifest", str(manifest), "--out", str(out)])
            assert rc == 1
            assert capsys.readouterr().err == (
                f"error: {manifest}: no model converged, so there are no logs\n")
            assert not out.exists()

    def test_artifacts_are_read_through_the_cli_namespace(self, pool, tmp_path, monkeypatch):
        """The benchmark's tracer counts parses by wrapping these three names
        in ``smoothgen.cli``: each file is read once, by one call."""
        import smoothgen.cli as cli

        out_dir, _ = pool
        calls = {}
        for name in ("parse_prediction_log", "parse_score_log", "read_weight_dump"):
            def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        manifest = out_dir / "manifest.jsonl"
        cmd_score([str(out_dir / "predictions")], manifest, tmp_path / "s.csv",
                  acc_out=tmp_path / "a.csv")
        cmd_baseline([str(out_dir / "scores")], [str(out_dir / "weights")], manifest,
                     tmp_path / "b.csv")
        assert calls == {
            "parse_prediction_log": len(list((out_dir / "predictions").glob("*.jsonl"))),
            "parse_score_log": len(list((out_dir / "scores").glob("*.jsonl"))),
            "read_weight_dump": len(list((out_dir / "weights").glob("*.bin"))),
        }


def _ood_score_row(lines):
    """The fields of the first row of a scores CSV's lines whose test domain
    is not its model's training domain."""
    return next(row for row in (line.split(",") for line in lines[2:]) if row[1] != row[2])


# Each mutation edits the lines of the tables ``evaluate`` reads, in place,
# and returns its whole error message, the tables' paths as fields
# {scores}, {acc}, {extra} and {manifest}; or None when the report must equal
# the unmutated run's.

def _conflicting_score_row(scores, accuracies, extra, manifest):
    model, train, test, measure, value = _ood_score_row(scores)
    extra.append(f"{model},{train},{test},{measure},{float(value) + 1.0!r}")
    return (f"measure {measure!r} of model {model!r} on {test!r} differs: "
            f"{float(value)!r} in {{scores}}, {float(value) + 1.0!r} in {{extra}}")


def _conflicting_accuracy_row(scores, accuracies, extra, manifest):
    model, test, accuracy = accuracies[2].split(",")
    other = "0.0" if float(accuracy) else "1.0"
    accuracies.append(f"{model},{test},{other}")
    return (f"accuracy of model {model!r} on {test!r} differs: "
            f"{float(accuracy)!r} in {{acc}}, {other} in {{acc}}")


def _accuracy(text):
    def mutate(scores, accuracies, extra, manifest):
        accuracies[2] = accuracies[2].rsplit(",", 1)[0] + "," + text
        return f"{{acc}}:3: accuracy {text!r} is outside [0, 1]"
    return mutate


def _foreign_train_domain(scores, accuracies, extra, manifest):
    row = _ood_score_row(scores)
    scores[scores.index(",".join(row))] = ",".join([row[0], row[2], *row[2:]])
    return (f"{{scores}}: model {row[0]!r} has train_domain {row[2]!r}, "
            f"but the manifest says {row[1]!r}")


def _invalid_byte(table, row):
    """A byte that is not UTF-8 in line ``row`` of table ``table`` (0 the
    scores, 1 the accuracies), written as the surrogate that stands for it."""
    def mutate(*tables):
        tables[table][row] = tables[table][row][:3] + "\udcff" + tables[table][row][3:]
        return f"{{{('scores', 'acc')[table]}}}:{row + 1}: invalid UTF-8: invalid start byte"
    return mutate


def _missing_accuracy(scores, accuracies, extra, manifest):
    model, test, _ = accuracies.pop(2).split(",")
    return f"{{acc}}: missing accuracies for scored pairs: {model}/{test}"


def _four_fields(scores, accuracies, extra, manifest):
    scores[2] = scores[2].rsplit(",", 1)[0]
    return "{scores}:3: expected 5 fields, got 4"


def _not_a_number(scores, accuracies, extra, manifest):
    scores[2] = scores[2].rsplit(",", 1)[0] + ",abc"
    return "{scores}:3: value 'abc' is not a finite number"


def _unscored_missing_accuracy(scores, accuracies, extra, manifest):
    """One accuracy row removed, with the score rows of its pair."""
    model, test, _ = accuracies.pop(2).split(",")
    scores[2:] = [line for line in scores[2:]
                  if (line.split(",")[0], line.split(",")[2]) != (model, test)]
    return (f"{{acc}}: model {model!r} has no accuracy on test domain {test!r}, "
            f"where other models have one")


def _lost_measure_rows(scores, accuracies, extra, manifest):
    """A model's rows of one measure removed, its accuracies kept."""
    model, _, test, measure, _ = scores[2].split(",")
    scores[2:] = [line for line in scores[2:]
                  if (line.split(",")[0], line.split(",")[3]) != (model, measure)]
    return (f"{{scores}}: model {model!r} has no row of measure {measure!r} on test domain "
            f"{test!r}, where other models have one")


def _missing_manifest(scores, accuracies, extra, manifest):
    manifest.clear()
    return "[Errno 2] No such file or directory: '{manifest}'"


def _converged_yes(scores, accuracies, extra, manifest):
    record = json.loads(manifest[1])
    record["converged"] = "yes"
    manifest[1] = json.dumps(record)
    return "{manifest}:2: field 'converged' has wrong type"


def _duplicate_manifest_id(scores, accuracies, extra, manifest):
    manifest.append(manifest[0])
    model = json.loads(manifest[0])["model_id"]
    return f"{{manifest}}:{len(manifest)}: duplicate model_id {model!r}"


def _foreign_model_rows(scores, accuracies, extra, manifest):
    """One model's score and accuracy rows again, under a model id the
    manifest lacks."""
    model = accuracies[2].split(",")[0]
    for table, lines in ((extra, scores), (accuracies, accuracies)):
        table.extend("ghost," + line.split(",", 1)[1] for line in lines[2:]
                     if line.split(",")[0] == model)
    return None


def _equal_duplicate_rows(scores, accuracies, extra, manifest):
    extra.append(",".join(_ood_score_row(scores)))
    accuracies.append(accuracies[2])


class TestEvaluateTables:
    """``evaluate`` on a scores CSV, a second scores CSV of no rows, an
    accuracies CSV and a copy of the manifest, each mutation applied to their
    lines; a table that a mutation empties is not written."""

    def run(self, pool, tmp_path, mutate):
        out_dir, _ = pool
        names = ("scores", "acc", "extra", "manifest")
        paths = dict(zip(names, (tmp_path / "scores.csv", tmp_path / "acc.csv",
                                 tmp_path / "extra.csv", tmp_path / "manifest.jsonl")))
        cmd_score([str(out_dir / "predictions")], str(out_dir / "manifest.jsonl"),
                  paths["scores"], acc_out=paths["acc"])
        tables = [paths["scores"].read_text().splitlines(),
                  paths["acc"].read_text().splitlines()]
        tables.append(tables[0][:2])  # comment and columns, then no rows
        tables.append((out_dir / "manifest.jsonl").read_text().splitlines())
        expected = mutate(*tables)
        for path, lines in zip(paths.values(), tables):
            path.unlink(missing_ok=True)
            if lines:
                path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        report = tmp_path / "report.json"
        rc = main(["evaluate", "--scores", str(paths["scores"]), str(paths["extra"]),
                   "--accuracies", str(paths["acc"]), "--manifest", str(paths["manifest"]),
                   "--out", str(report)])
        if expected is not None:
            expected = expected.format(**{name: str(p) for name, p in paths.items()})
        return rc, report, expected

    @pytest.mark.parametrize("mutate", [
        _conflicting_score_row, _conflicting_accuracy_row, _accuracy("7.5"), _accuracy("-0.1"),
        _foreign_train_domain, _invalid_byte(0, 4), _invalid_byte(1, 2), _invalid_byte(1, 0),
        _missing_accuracy, _four_fields, _not_a_number, _unscored_missing_accuracy,
        _lost_measure_rows, _missing_manifest, _converged_yes, _duplicate_manifest_id,
    ], ids=["conflicting_score", "conflicting_accuracy", "accuracy_7.5", "accuracy_-0.1",
            "foreign_train_domain", "invalid_utf8_score_row", "invalid_utf8_accuracy_row",
            "invalid_utf8_comment", "missing_accuracy", "four_fields", "not_a_number",
            "unscored_missing_accuracy", "lost_measure_rows", "missing_manifest",
            "converged_yes", "duplicate_manifest_id"])
    def test_malformed_table_exits_nonzero(self, pool, tmp_path, capsys, mutate):
        rc, report, expected = self.run(pool, tmp_path, mutate)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not report.exists()

    def assert_report_unchanged(self, pool, tmp_path, mutate):
        (tmp_path / "plain").mkdir()
        (tmp_path / "mutated").mkdir()
        rc, plain, _ = self.run(pool, tmp_path / "plain", lambda *tables: None)
        assert rc == 0
        rc, mutated, _ = self.run(pool, tmp_path / "mutated", mutate)
        assert rc == 0
        assert mutated.read_bytes() == plain.read_bytes()

    def test_equal_duplicate_rows_leave_the_report_unchanged(self, pool, tmp_path):
        self.assert_report_unchanged(pool, tmp_path, _equal_duplicate_rows)

    def test_foreign_model_rows_leave_the_report_unchanged(self, pool, tmp_path):
        self.assert_report_unchanged(pool, tmp_path, _foreign_model_rows)


class TestEvaluateCommand:
    def test_report_written_with_breakdowns(self, pool, tmp_path):
        out_dir, _ = pool
        scores = tmp_path / "scores.csv"
        accs = tmp_path / "acc.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl",
                  scores, acc_out=accs)
        report_path = tmp_path / "report.json"
        report = cmd_evaluate([scores], accs, out_dir / "manifest.jsonl",
                              report_path, breakdown_dir=tmp_path / "tables")
        assert "ms_manifold-r0.5-n5" in report["measures"]
        on_disk = json.loads(report_path.read_text())
        assert on_disk["measures"].keys() == report["measures"].keys()
        assert (tmp_path / "tables" / "micro_groups.csv").exists()

    def test_a_model_that_lost_its_artifacts_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        assert next(r for r in result.manifest if r.model_id == "rot000-c000").converged
        lost = sorted(artifacts.glob("*/rot000-c000*"))
        assert lost
        for path in lost:
            path.unlink()
        manifest = str(artifacts / "manifest.jsonl")
        scores, accs, report = (tmp_path / name for name in ("s.csv", "a.csv", "report.json"))
        assert main(["score", "--input", str(artifacts / "predictions"), "--manifest",
                     manifest, "--out", str(scores), "--acc-out", str(accs)]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--scores", str(scores), "--accuracies", str(accs),
                   "--manifest", manifest, "--out", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {accs}: model 'rot000-c000' has no accuracy on test domain "
            f"'rot000', where other models have one\n")
        assert not report.exists()

    def test_a_baselines_csv_that_lost_a_models_rows_exits_nonzero(self, pool, tmp_path,
                                                                    capsys):
        out_dir, result = pool
        manifest = str(out_dir / "manifest.jsonl")
        scores, accs, baselines, report = (
            tmp_path / name for name in ("s.csv", "a.csv", "b.csv", "report.json"))
        assert main(["score", "--input", str(out_dir / "predictions"), "--manifest", manifest,
                     "--out", str(scores), "--acc-out", str(accs)]) == 0
        assert main(["baseline", "--scores", str(out_dir / "scores"), "--weights",
                     str(out_dir / "weights"), "--manifest", manifest,
                     "--out", str(baselines)]) == 0
        capsys.readouterr()
        model = min(r.model_id for r in result.manifest if r.converged)
        lines = baselines.read_text().splitlines()
        kept = [line for line in lines if line.split(",")[::3] != [model, "atc_mc"]]
        assert len(lines) - len(kept) == 3  # one row per test domain
        baselines.write_text("\n".join(kept) + "\n")
        rc = main(["evaluate", "--scores", str(scores), str(baselines), "--accuracies",
                   str(accs), "--manifest", manifest, "--out", str(report)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {baselines}: model {model!r} has no row of measure 'atc_mc' on test "
            f"domain 'rot000', where other models have one\n")
        assert not report.exists()

    def test_tables_are_read_and_joined_through_the_cli_namespace(self, pool, tmp_path,
                                                                  monkeypatch):
        """The benchmark's tracer times the reads and the join by wrapping
        these three names in ``smoothgen.cli``: each CSV is read once by one
        call, and the join is one call."""
        import smoothgen.cli as cli

        out_dir, _ = pool
        scores, accs = tmp_path / "scores.csv", tmp_path / "acc.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl", scores,
                  variant="majority", acc_out=accs)
        other = tmp_path / "entropy.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl", other,
                  variant="entropy")
        calls = {}
        for name in ("read_scores_csv", "read_accuracies_csv", "build_matrix"):
            def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        cmd_evaluate([scores, other], accs, out_dir / "manifest.jsonl",
                     tmp_path / "report.json")
        assert calls == {"read_scores_csv": 2, "read_accuracies_csv": 1, "build_matrix": 1}

    def test_report_pretty_printer(self, pool, tmp_path):
        out_dir, _ = pool
        scores = tmp_path / "scores.csv"
        accs = tmp_path / "acc.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl",
                  scores, acc_out=accs)
        report_path = tmp_path / "report.json"
        cmd_evaluate([scores], accs, out_dir / "manifest.jsonl", report_path)
        buf = io.StringIO()
        cmd_report(report_path, stream=buf)
        text = buf.getvalue()
        assert "measure" in text and "micro_tau" in text
        assert "ms_manifold-r0.5-n5" in text

    @pytest.mark.parametrize("text", ["[1]", '{"measures": ' + "1" * 5000 + "}",
                                      "[" * 100_000], ids=["list", "digits", "depth"])
    def test_report_of_a_malformed_file_exits_nonzero(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err

    @staticmethod
    def constructed_report():
        """One measure whose R^2 mean (-334.333) is far from its median (-2)."""
        entry = {"breakdown": {}, "skipped": {}}
        for agg in REPORT_LAYOUT:
            entry[agg.value] = None
            entry["breakdown"][agg.table] = []
            entry["skipped"].setdefault(agg.skipped, [])
        entry["r2"] = (-1000.0 - 2.0 - 1.0) / 3
        entry["breakdown"]["r2_pairs"] = [["a", "b", -1000.0], ["a", "c", -2.0],
                                          ["b", "a", -1.0]]
        entry["skipped"]["r2_mae"] = [["b", "c", "pool too small"]]
        entry["id_tau"] = 0.5
        entry["breakdown"]["id_domains"] = [["a", 0.25], ["b", 0.75]]
        return {"tau_variant": "b", "measures": {"ms_x": entry}}

    def test_report_prints_median_groups_and_skipped(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(self.constructed_report()))
        buf = io.StringIO()
        cmd_report(path, stream=buf)
        rows = {line.split()[1]: line.split()[2:] for line in buf.getvalue().splitlines()[1:]}
        assert buf.getvalue().split("\n")[0].split() == [
            "measure", "aggregate", "mean", "median", "groups", "skipped"]
        assert list(rows) == [agg.value for agg in REPORT_LAYOUT]
        assert rows["r2"] == ["-334.333", "-2.000", "3", "1"]
        assert rows["mae_pct"] == ["--", "--", "0", "1"]  # shares the r2 skip list
        assert rows["id_tau"] == ["0.500", "0.500", "2", "0"]
        assert rows["micro_tau"] == ["--", "--", "0", "0"]

    @pytest.mark.parametrize("breakdown", [[["a", "b", "x"]], [[]], "rows", None])
    def test_report_with_a_malformed_breakdown_exits_nonzero(self, tmp_path, capsys,
                                                             breakdown):
        report = self.constructed_report()
        report["measures"]["ms_x"]["breakdown"]["r2_pairs"] = breakdown
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "r2_pairs" in err
        assert "Traceback" not in err


class TestAblateCommand:
    def test_neighborhood_size_sweep(self, pool, tmp_path):
        out_dir, _ = pool
        out = tmp_path / "sweep.csv"
        rows = cmd_ablate(str(out_dir), "neighborhood_size", out)
        assert [r[0] for r in rows] == [0.2, 0.5]
        assert out.exists()

    def test_n_samples_sweep_flags_degenerate_values(self, pool, tmp_path):
        out_dir, _ = pool
        rows = cmd_ablate(str(out_dir), "n_samples", tmp_path / "s.csv",
                          values=[1, 4, 8])
        status = {v: s for v, _, s, _ in rows}
        # a single neighborhood sample makes every model perfectly smooth
        assert status[1].startswith("skipped")
        assert status[4] == "ok" and status[8] == "ok"

    def test_dataset_size_sweep(self, pool, tmp_path):
        out_dir, _ = pool
        rows = cmd_ablate(str(out_dir), "dataset_size", tmp_path / "s.csv",
                          values=[10, 60])
        assert all(s == "ok" for _, _, s, _ in rows)

    def test_entropy_variant_is_the_neg_entropy_measure(self, pool, tmp_path):
        out_dir, _ = pool
        out = tmp_path / "cli.csv"
        assert main(["ablate", "--artifacts", str(out_dir), "--kind", "n_samples",
                     "--values", "4,8", "--variant", "entropy", "--out", str(out)]) == 0
        rows = cmd_ablate(str(out_dir), "n_samples", tmp_path / "api.csv", values=[4, 8],
                          variant="neg_entropy")
        assert [status for _, _, status, _ in rows] == ["ok", "ok"]
        assert out.read_bytes() == (tmp_path / "api.csv").read_bytes()

    def test_missing_values_rejected(self, pool, tmp_path):
        from smoothgen.errors import SmoothgenError

        out_dir, _ = pool
        with pytest.raises(SmoothgenError, match="--values"):
            cmd_ablate(str(out_dir), "dataset_size", tmp_path / "s.csv")

    def test_values_the_logs_cannot_take_are_skipped_rows(self, pool, tmp_path):
        out_dir, _ = pool
        out = tmp_path / "s.csv"
        rows = cmd_ablate(str(out_dir), "dataset_size", out, values=[10, 61])
        assert rows[0][2] == "ok"
        assert rows[1] == (61, "", "skipped: size must be in [1, 60], got 61", 0)
        rows = cmd_ablate(str(out_dir), "n_samples", out, values=[4, 9, 0])
        assert rows[0][2] == "ok"
        assert rows[1][:2] == (9, "") and rows[1][3] == 0
        assert rows[1][2].startswith("skipped: n_keep=9 exceeds neighborhood length")
        assert rows[2] == (0, "", "skipped: n_keep must be >= 1, got 0", 0)
        rows = cmd_ablate(str(out_dir), "neighborhood_size", out, values=[0.5, 0.3])
        assert rows[0][2] == "ok"
        missing = f"missing ablation logs 'size_r__0.3' under {out_dir / 'ablation'}"
        assert rows[1] == (0.3, "", f"skipped: {missing}", 0)

    def test_a_value_some_logs_cannot_take_gives_the_first_such_logs_fault(self, pool,
                                                                         tmp_path):
        """The pool's logs are read one at a time; a value that a later log
        cannot take is skipped with the fault of the first such log in pool
        order, and the other values keep their rows."""
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        pool_ids = [r.model_id for r in result.manifest
                    if r.converged and r.train_domain != "rot030"]
        assert len(pool_ids) >= 3
        for model_id, kept in zip(pool_ids[1:3], (30, 20)):
            log = artifacts / "ablation" / f"{model_id}__dataset_size.jsonl"
            lines = log.read_text().splitlines(keepends=True)
            log.write_text("".join(lines[:1 + kept]))
        rows = cmd_ablate(str(artifacts), "dataset_size", tmp_path / "s.csv",
                          values=[10, 45, 25])
        assert rows[0][2] == "ok" and rows[0][3] == len(pool_ids)
        assert rows[1] == (45, "", "skipped: size must be in [1, 30], got 45", 0)
        assert rows[2] == (25, "", "skipped: size must be in [1, 20], got 25", 0)

    @pytest.mark.parametrize("case", [
        "truncated",
        "not_an_object",
        "ablation_not_an_object",
        "size_r_values_not_numbers",
        "domain_id_not_a_string",
        "zero_size_r_value",
    ])
    def test_malformed_experiment_file_exits_nonzero(self, pool, tmp_path, capsys, case):
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        artifacts.mkdir()
        shutil.copy(out_dir / "manifest.jsonl", artifacts)
        path = artifacts / "experiment.json"
        text = (out_dir / "experiment.json").read_text()
        obj = json.loads(text)
        ablation = obj["experiment"]["ablation"]
        if case == "truncated":
            text = text[: len(text) // 2]
        elif case == "not_an_object":
            text = "[1]"
        else:
            if case == "ablation_not_an_object":
                obj["experiment"]["ablation"] = [1]
            elif case == "size_r_values_not_numbers":
                ablation["size_r_values"] = ["x"]
            elif case == "zero_size_r_value":
                ablation["size_r_values"] = [0.5, 0]
            else:
                ablation["domain_id"] = 7
            text = json.dumps(obj)
        path.write_text(text)
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing", "no_ablation"])
    def test_run_without_an_ablation_experiment_exits_nonzero(self, pool, tmp_path, capsys,
                                                              case):
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        path = artifacts / "experiment.json"
        if case == "missing":
            path.unlink()
            message = f"[Errno 2] No such file or directory: '{path}'"
        else:
            obj = json.loads(path.read_text())
            obj["experiment"]["ablation"] = None
            _write_record(path, obj)
            message = f"{path}: no ablation in the experiment, so the run has no ablation logs"
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind, log_name", [
        ("neighborhood_size", "size_r__0.5"),
        ("dataset_size", "dataset_size"),
        ("n_samples", "n_samples"),
    ])
    def test_malformed_ablation_log_exits_nonzero(self, pool, tmp_path, capsys, kind,
                                                  log_name):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        model = next(r for r in result.manifest
                     if r.converged and r.train_domain != "rot030")
        log = artifacts / "ablation" / f"{model.model_id}__{log_name}.jsonl"
        lines = log.read_text().splitlines()
        example = json.loads(lines[1])
        example["neighborhood_predictions"][0] = 1.5
        lines[1] = json.dumps(example)
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", kind,
                   "--values", "4" if kind == "n_samples" else "10" if kind == "dataset_size"
                   else "0.5", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{log}:2: " in err and "1.5 is not an integer" in err
        assert not out.exists()

    def test_missing_label_names_the_log(self, pool, tmp_path, capsys):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        model = next(r for r in result.manifest
                     if r.converged and r.train_domain != "rot030")
        log = artifacts / "ablation" / f"{model.model_id}__n_samples.jsonl"
        header, first, *rest = log.read_text().splitlines()
        example = json.loads(first)
        del example["base_prediction"]
        log.write_text("\n".join([header, json.dumps(example), *rest]) + "\n")
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: example {example['example_id']!r}: missing label, "
            f"accuracy unavailable\n")

    def test_a_pool_model_without_its_log_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        models = [r for r in result.manifest if r.converged and r.train_domain != "rot030"]
        log = artifacts / "ablation" / f"{models[1].model_id}__n_samples.jsonl"
        log.unlink()
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: ablation log missing; 1 of {len(models)} pool models have none\n")
        assert not out.exists()

    def test_log_of_another_model_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, result = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        pool_ids = {r.model_id for r in result.manifest
                    if r.converged and r.train_domain != "rot030"}
        assert {"rot000-c000", "rot000-c001"} <= pool_ids
        log = artifacts / "ablation" / "rot000-c000__n_samples.jsonl"
        shutil.copy(artifacts / "ablation" / "rot000-c001__n_samples.jsonl", log)
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "2,4,8", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {log}: ablation log of model 'rot000-c001', but its file is named "
            f"for 'rot000-c000'\n")
        assert not out.exists()

    def test_negative_seed_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, _ = pool
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(out_dir), "--kind", "dataset_size",
                   "--values", "10", "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_sweeps_read_and_score_through_the_cli_namespace(self, pool, tmp_path,
                                                             monkeypatch):
        """The benchmark's tracer times the sweeps by wrapping these names in
        ``smoothgen.cli``: each sweep reads the manifest once and each of its
        logs once, scores a log once per value, and computes tau once per
        value."""
        import smoothgen.cli as cli

        out_dir, result = pool
        n = sum(r.converged and r.train_domain != "rot030" for r in result.manifest)
        calls = {}
        for name in ("parse_manifest", "parse_prediction_log", "compute_accuracy",
                     "dataset_smoothness", "subsample_examples", "truncate_neighborhood",
                     "kendall_tau"):
            def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        cmd_ablate(str(out_dir), "neighborhood_size", tmp_path / "r.csv")
        cmd_ablate(str(out_dir), "dataset_size", tmp_path / "d.csv", values=[10, 60])
        cmd_ablate(str(out_dir), "n_samples", tmp_path / "n.csv", values=[4, 8])
        assert n >= 2
        assert calls == {
            "parse_manifest": 3,
            # two size_r logs a model, then one dataset_size and one n_samples log
            "parse_prediction_log": 4 * n,
            "compute_accuracy": 4 * n,
            "dataset_smoothness": 6 * n,
            "subsample_examples": 2 * n,
            "truncate_neighborhood": 2 * n,
            "kendall_tau": 6,
        }

    def test_an_edited_record_exits_nonzero(self, pool, tmp_path, capsys):
        """A record edited without its hash stops the sweep, as it stops
        ``synth --config``."""
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        path = artifacts / "experiment.json"
        obj = json.loads(path.read_text())
        obj["experiment"]["ablation"]["size_r_values"] = [0.5]
        path.write_text(json.dumps(obj))
        config = small_experiment()
        recorded = config.config_hash()
        config.ablation = dataclasses.replace(config.ablation, size_r_values=(0.5,))
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "neighborhood_size",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: invalid experiment: meta.config_hash {recorded!r} is not the "
            f"experiment's hash {config.config_hash()!r}\n")
        assert not out.exists()

    def test_an_ablation_domain_that_names_no_domain_exits_nonzero(self, pool, tmp_path,
                                                                   capsys):
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        path = artifacts / "experiment.json"
        obj = json.loads(path.read_text())
        obj["experiment"]["ablation"]["domain_id"] = "nowhere"
        # This experiment no longer decodes, so its hash is taken here by the
        # rule of ExperimentConfig.config_hash, leaving the domain the record's
        # only fault.
        blob = json.dumps(obj["experiment"], sort_keys=True).encode()
        obj["meta"]["config_hash"] = hashlib.sha256(blob).hexdigest()[:12]
        path.write_text(json.dumps(obj))
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: invalid experiment: ablation domain 'nowhere' names no domain\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["experiment_domain"])
    def test_logs_of_another_domain_exit_nonzero(self, pool, tmp_path, capsys, case):
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        path = artifacts / "experiment.json"
        obj = json.loads(path.read_text())
        obj["experiment"]["ablation"]["domain_id"] = "rot000"
        _write_record(path, obj)
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {artifacts / 'ablation'}")
        assert "test domain 'rot030'" in err and "Traceback" not in err
        assert not out.exists()


LOG_MUTATIONS = {  # name: the message it gives, for prediction logs and for score logs
    "truncated": ("malformed JSON: Unterminated string starting at",) * 2,
    "wrong_type": ("field 'example_id' has wrong type",) * 2,
    "out_of_range": ("example 'ex00000': prediction 3 out of range [0, 3)",
                     "entry 'ex00000': max_confidence 1.5 out of range"),
    "invalid_utf8": ("invalid UTF-8: invalid start byte",) * 2,
    "missing_field": ("missing required field 'example_id'",) * 2,
    # the second entry's line, which repeats the first entry's id
    "duplicate_id": ("example 'ex00000': duplicate example_id",
                     "entry 'ex00000': duplicate example_id"),
}


def _mutated_line(entry, mutation, layout):
    """The bytes of the log line of object ``entry`` with ``mutation`` made,
    in ``layout``: compact sorted keys, as the writers render them, or with a
    space after each separator."""
    entry = dict(entry)
    if mutation == "wrong_type":
        entry["example_id"] = 5
    elif mutation == "missing_field":
        del entry["example_id"]
    elif mutation == "out_of_range":
        if "neighborhood_predictions" in entry:
            entry["neighborhood_predictions"] = [3, *entry["neighborhood_predictions"][1:]]
        else:
            entry["max_confidence"] = 1.5
    separators = (",", ":") if layout == "canonical" else (", ", ": ")
    line = json.dumps(entry, sort_keys=True, separators=separators).encode()
    if mutation in ("truncated", "invalid_utf8"):
        at = line.index(b'"ex00000"') + 3  # inside the id
        line = line[:at] if mutation == "truncated" else line[:at] + b"\xff" + line[at:]
    return line


def _broken_dump(data, case):
    """The bytes of the weight dump ``data`` with fault ``case`` made."""
    (id_len,) = struct.unpack_from("<Q", data, 8)
    layers = 16 + id_len  # after the magic, the id length and the id
    if case == "non_utf8_model_id":
        return data[:16] + b"\xff" + data[17:]
    if case == "nan_entry":
        at = layers + 8 + 16  # after the layer count and the first layer's shape
        return data[:at] + struct.pack("<d", math.nan) + data[at + 8:]
    if case == "no_layers":
        return data[:layers] + struct.pack("<Q", 0)
    if case == "bad_magic":
        return b"X" + data[1:]
    if case == "truncated":  # inside the first layer's entries
        return data[:layers + 8 + 16 + 8]
    if case == "trailing_bytes":
        return data + b"\0"
    rows, cols = {"empty_layer": (0, 3), "empty_layer_huge_cols": (0, 2**64 - 1),
                  "empty_layer_huge_rows": (2**63, 0)}[case]
    return data[:layers] + struct.pack("<QQQ", 1, rows, cols)  # one layer of no entries


ARTIFACT_FAULTS = {  # case: the command that reads the artifact, the message
    "non_utf8_model_id": ("baseline", "model id is not UTF-8: invalid start byte"),
    "nan_entry": ("baseline", "layer 0: non-finite entries"),
    "no_layers": ("baseline", "weight dump must contain at least one layer"),
    "empty_layer": ("baseline", "layer 0: expected non-empty 2-D matrix"),
    "empty_layer_huge_cols": ("baseline", "layer 0: expected non-empty 2-D matrix"),
    "empty_layer_huge_rows": ("baseline", "layer 0: expected non-empty 2-D matrix"),
    "bad_magic": ("baseline", "bad magic bytes in weight dump"),
    "truncated": ("baseline", "truncated weight dump"),
    "trailing_bytes": ("baseline", "trailing bytes in weight dump"),
    "non_utf8_report": ("report", "invalid UTF-8: invalid start byte"),
    "non_utf8_experiment": ("ablate", "invalid UTF-8: invalid start byte"),
}


class TestMalformedLogs:
    """Every command that reads a log stops on each kind of fault in it with
    exit code 1 and the same ``error:`` line naming path:line, whether the
    file is in the writers' layout or a spaced one; a fault in a weight dump,
    a report or an experiment file gives an ``error:`` line naming the file."""

    @staticmethod
    def run(pool, tmp_path, command, mutation, layout):
        """(exit code, stderr, the mutated log) of ``command`` on a copy of
        the pool whose first log of the kind it reads has ``mutation`` in its
        first entry (a duplicate_id in its second), every line in ``layout``."""
        out_dir, result = pool
        run = tmp_path / layout
        run.mkdir()
        shutil.copy(out_dir / "manifest.jsonl", run)
        shutil.copy(out_dir / "experiment.json", run)
        folder, pattern, args = {
            "score": ("predictions", "*.jsonl", ["score", "--input", str(run / "predictions")]),
            "baseline": ("scores", "*__validation.jsonl",
                         ["baseline", "--scores", str(run / "scores")]),
            "ablate": ("ablation", "*__n_samples.jsonl",
                       ["ablate", "--artifacts", str(run), "--kind", "n_samples",
                        "--values", "4"]),
        }[command]
        shutil.copytree(out_dir / folder, run / folder)
        pool_ids = {r.model_id for r in result.manifest
                    if r.converged and r.train_domain != "rot030"}
        log = next(p for p in sorted((run / folder).glob(pattern))
                   if p.name.split("__")[0] in pool_ids)
        header, entry, *rest = map(json.loads, log.read_text().splitlines())
        if mutation == "duplicate_id":
            rest[0]["example_id"] = entry["example_id"]
        separators = (",", ":") if layout == "canonical" else (", ", ": ")
        lines = [json.dumps(obj, sort_keys=True, separators=separators).encode()
                 for obj in (header, entry, *rest)]
        lines[1] = _mutated_line(entry, mutation, layout)
        log.write_bytes(b"\n".join(lines) + b"\n")
        if command != "ablate":
            args += ["--manifest", str(run / "manifest.jsonl")]
        return main([*args, "--out", str(tmp_path / f"{layout}.csv")]), log

    @pytest.mark.parametrize("mutation", sorted(LOG_MUTATIONS))
    @pytest.mark.parametrize("command", ["score", "ablate", "baseline"])
    def test_fault_gives_one_error_in_either_layout(self, pool, tmp_path, capsys, command,
                                                    mutation):
        errors = []
        for layout in ("canonical", "spaced"):
            rc, log = self.run(pool, tmp_path, command, mutation, layout)
            err = capsys.readouterr().err
            assert rc == 1 and "Traceback" not in err
            errors.append(err.replace(str(log), "<log>"))
            assert not (tmp_path / f"{layout}.csv").exists()
        message = LOG_MUTATIONS[mutation][command == "baseline"]
        line = 3 if mutation == "duplicate_id" else 2
        assert errors == [f"error: <log>:{line}: {message}\n"] * 2

    @pytest.mark.parametrize("case", sorted(ARTIFACT_FAULTS))
    def test_malformed_artifact_exits_nonzero(self, pool, tmp_path, capsys, case):
        out_dir, result = pool
        command, message = ARTIFACT_FAULTS[case]
        manifest = str(out_dir / "manifest.jsonl")
        out = tmp_path / "out.csv"
        where = ""  # the line of the fault, in a text file
        if command == "baseline":
            shutil.copytree(out_dir / "weights", tmp_path / "weights")
            model_id = next(r.model_id for r in result.manifest if r.converged)
            path = tmp_path / "weights" / f"{model_id}.bin"
            path.write_bytes(_broken_dump(path.read_bytes(), case))
            argv = ["baseline", "--scores", str(out_dir / "scores"), "--weights",
                    str(tmp_path / "weights"), "--manifest", manifest, "--out", str(out)]
        elif command == "ablate":
            shutil.copy(manifest, tmp_path)
            path = tmp_path / "experiment.json"
            data = (out_dir / "experiment.json").read_bytes()
            at = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last line
            path.write_bytes(data[:at] + b"\xff" + data[at:])
            where = ":" + str(data.count(b"\n", 0, at) + 1)
            argv = ["ablate", "--artifacts", str(tmp_path), "--kind", "n_samples",
                    "--values", "4", "--out", str(out)]
        else:
            path = tmp_path / "report.json"
            path.write_bytes(b'{"measures": {}}\n\xff\n')
            where = ":2"
            argv = ["report", "--input", str(path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"
        assert not out.exists()


def _fault_in_a_later_line(text, case):
    """The text of a prediction log with fault ``case`` made in its middle
    body line, with that line's number and example id."""
    lines = text.splitlines(keepends=True)
    n = len(lines) // 2
    line, example_id = lines[n], json.loads(lines[n])["example_id"]
    at = line.index('"neighborhood_predictions":[') + len('"neighborhood_predictions":[')
    if case == "truncated":
        lines[n:] = [line[:at + 2]]  # the file ends after the first prediction's comma
    else:
        lines[n] = line[:at] + ('"1"' if case == "quoted_prediction" else "3") + line[at + 1:]
    return "".join(lines), n + 1, example_id


PREDICTION_LOG_FAULTS = {  # case: the error after path:line, {id} the line's example id
    "truncated": "malformed JSON: Expecting value",
    "quoted_prediction": "example {id!r}: prediction '1' is not an integer",
    "prediction_equal_to_num_classes": "example {id!r}: prediction 3 out of range [0, 3)",
}


class TestPredictionLogFaults:
    """A fault in a prediction log that synth wrote, whose lines all have one
    length so that it is read as a byte matrix, stops ``score`` and
    ``ablate`` with exit code 1 and one ``error:`` line naming the log and
    the faulty line. The faults sit in a later line, past the first line,
    which the read checks by itself; the same faults in the first entry are
    ``TestMalformedLogs``'s. A removed log is pinned by
    ``TestScoreCommand::test_a_model_that_lost_some_logs_exits_nonzero`` and
    ``TestAblateCommand::test_a_pool_model_without_its_log_exits_nonzero``,
    and an ablation log with another model's header by
    ``TestAblateCommand::test_log_of_another_model_exits_nonzero``."""

    @staticmethod
    def run(pool, tmp_path, command, edit):
        """(exit code, stderr, the output path) of ``command`` on a copy of
        the pool after ``edit(logs)``, ``logs`` the sorted logs ``command``
        reads (of the ablation pool's models, for ``ablate``)."""
        out_dir, result = pool
        run = tmp_path / "run"
        shutil.copytree(out_dir, run)
        out = tmp_path / "out.csv"
        if command == "score":
            logs = sorted((run / "predictions").glob("*.jsonl"))
            args = ["score", "--input", str(run / "predictions"), "--manifest",
                    str(run / "manifest.jsonl")]
        else:
            pool_ids = {r.model_id for r in result.manifest
                        if r.converged and r.train_domain != "rot030"}
            logs = [p for p in sorted((run / "ablation").glob("*__n_samples.jsonl"))
                    if p.name.split("__")[0] in pool_ids]
            args = ["ablate", "--artifacts", str(run), "--kind", "n_samples", "--values", "4"]
        edit(logs)
        return main([*args, "--out", str(out)]), out

    @pytest.mark.parametrize("case", sorted(PREDICTION_LOG_FAULTS))
    @pytest.mark.parametrize("command", ["score", "ablate"])
    def test_fault_in_a_later_line_names_it(self, pool, tmp_path, capsys, command, case):
        where = {}

        def edit(logs):
            log = logs[0]
            lines = log.read_text().splitlines()[1:]
            assert len(lines) > 2 and len(set(map(len, lines))) == 1  # one line length
            text, line, example_id = _fault_in_a_later_line(log.read_text(), case)
            log.write_text(text)
            where.update(log=log, line=line, id=example_id)

        rc, out = self.run(pool, tmp_path, command, edit)
        message = PREDICTION_LOG_FAULTS[case].format(id=where["id"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {where['log']}:{where['line']}: {message}\n"
        assert not out.exists()

    def test_a_log_with_another_models_header_names_both_logs(self, pool, tmp_path, capsys):
        """``score`` reads the file as a second log of the other model."""
        names = {}

        def edit(logs):
            # Two models' logs of one test domain and neighbourhood.
            log, other = [p for p in logs
                          if p.name.split("__", 1)[1] == logs[0].name.split("__", 1)[1]][:2]
            header = other.read_text().splitlines()[0]
            log.write_text(header + "\n" + log.read_text().split("\n", 1)[1])
            names.update(log=log, other=other, header=json.loads(header))

        rc, out = self.run(pool, tmp_path, "score", edit)
        header = names["header"]
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: model {header['model_id']!r}: two prediction logs of test domain "
            f"{header['test_domain']!r} with neighborhood {header['meta']['neighborhood']!r}, "
            f"{names['log']} and {names['other']}\n")
        assert not out.exists()


def _score_log_fault(text, case):
    """The text of a score log with fault ``case`` made at its middle entry
    line (its last line, for ``truncated_last_line``), with the number of the
    line the error names and that line's example id."""
    lines = text.splitlines(keepends=True)
    n = len(lines) - 1 if case == "truncated_last_line" else len(lines) // 2
    entry = json.loads(lines[n])
    if case == "truncated_last_line":
        lines[n] = lines[n][:lines[n].index(entry["example_id"]) + 3]  # inside the id
    elif case in ("duplicate_id", "conflicting_duplicate"):
        twin = dict(entry, predicted_label=(entry["predicted_label"] + 1) % 3,
                    max_confidence=0.5) if case == "conflicting_duplicate" else entry
        lines.insert(n + 1, _render_entry(twin))
        n += 1
    else:
        if case == "quoted_confidence":
            entry["max_confidence"] = str(entry["max_confidence"])
        elif case == "label_equal_to_num_classes":
            entry["predicted_label"] = 3
        else:
            del entry["neg_entropy"]
        lines[n] = _render_entry(entry)
    return "".join(lines), n + 1, entry["example_id"]


def _render_entry(entry):
    return json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"


SCORE_LOG_FAULTS = {  # case: the error after path:line, {id} the line's example id
    "truncated_last_line": "malformed JSON: Unterminated string starting at",
    "quoted_confidence": "field 'max_confidence' has wrong type",
    "duplicate_id": "entry {id!r}: duplicate example_id",
    "conflicting_duplicate": "entry {id!r}: duplicate example_id",
    "label_equal_to_num_classes": "entry {id!r}: predicted_label 3 out of range [0, 3)",
    "missing_neg_entropy": "missing required field 'neg_entropy'",
}


class TestScoreLogFaults:
    """A fault in a later line of a score log that synth wrote stops
    ``baseline`` with exit code 1 and one ``error:`` line naming the log and
    the faulty line, and writes no ``--out``. A confidence of 1.5, and a
    truncated, mistyped, non-UTF-8 or id-less first entry, are
    ``TestMalformedLogs``'s cases; a lost log, a second validation log and a
    log of no entries are ``TestBaselineCommand``'s."""

    @pytest.mark.parametrize("case", sorted(SCORE_LOG_FAULTS))
    def test_fault_in_a_later_line_names_it(self, pool, tmp_path, capsys, case):
        out_dir, _ = pool
        scores = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", scores)
        log = sorted(scores.glob("*.jsonl"))[0]
        text, line, example_id = _score_log_fault(log.read_text(), case)
        log.write_text(text)
        out = tmp_path / "baselines.csv"
        rc = main(["baseline", "--scores", str(scores), "--manifest",
                   str(out_dir / "manifest.jsonl"), "--out", str(out)])
        message = SCORE_LOG_FAULTS[case].format(id=example_id)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {log}:{line}: {message}\n"
        assert not out.exists()


class TestAnalysisMemory:
    """``baseline`` and ``ablate`` read one log at a time, so their peak
    memory does not grow with the number of logs in the pool: with every log
    held, 32 models' logs take about five times the peak of 4 models'."""

    @staticmethod
    def manifest(tree, n):
        records = [ModelRecord(f"m{i:03d}", "mlp", "rot000", {}, True) for i in range(n)]
        write_manifest(records, tree / "manifest.jsonl")
        return records

    def score_tree(self, tree, n, m=1000):
        """A validation and a test score log of ``m`` entries for each of
        ``n`` models."""
        rng = np.random.default_rng(0)
        ids = tuple(f"ex{j:05d}" for j in range(m))
        (tree / "scores").mkdir(parents=True)
        for rec in self.manifest(tree, n):
            for domain, split in (("rot000", "validation"), ("rot030", "test")):
                log = ScoreLog(rec.model_id, domain, split, ids, rng.integers(0, 3, m),
                               rng.uniform(0.4, 1.0, m), -rng.uniform(0.0, 1.0, m),
                               rng.integers(0, 3, m), num_classes=3)
                write_score_log(log, tree / "scores" / f"{rec.model_id}__{domain}__{split}.jsonl")

    def ablation_tree(self, tree, n, m=500, k=20):
        """The small experiment's record and an ``n_samples`` ablation log of
        ``m`` examples, ``k`` predictions each, for each of ``n`` models."""
        rng = np.random.default_rng(0)
        ids = tuple(f"ex{j:05d}" for j in range(m))
        (tree / "ablation").mkdir(parents=True)
        _write_record(tree / "experiment.json",
                      {"meta": {}, "experiment": experiment_to_dict(small_experiment())})
        for rec in self.manifest(tree, n):
            log = NeighborhoodPredictionLog(rec.model_id, "rot030", 3, ids,
                                            rng.integers(0, 3, m * k), np.full(m, k),
                                            rng.integers(0, 3, m), rng.integers(0, 3, m))
            write_prediction_log(log, tree / "ablation" / f"{rec.model_id}__n_samples.jsonl")

    @staticmethod
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_baseline_memory_does_not_grow_with_the_logs(self, tmp_path):
        peaks = []
        for n in (4, 32):
            tree = tmp_path / f"run{n}"
            self.score_tree(tree, n)
            peaks.append(self.peak(cmd_baseline, [str(tree / "scores")], [],
                                   tree / "manifest.jsonl", tree / "baselines.csv"))
        assert peaks[1] < 1.5 * peaks[0]

    def test_ablate_memory_does_not_grow_with_the_logs(self, tmp_path):
        peaks = []
        for n in (4, 32):
            tree = tmp_path / f"run{n}"
            self.ablation_tree(tree, n)
            # the first sweep of a process also decodes the record's class arcs
            cmd_ablate(str(tree), "n_samples", tree / "warm.csv", values=[5])
            peaks.append(self.peak(cmd_ablate, str(tree), "n_samples", tree / "sweep.csv",
                                   values=[5, 10]))
        assert peaks[1] < 1.5 * peaks[0]


class Interrupted(Exception):
    pass


def _synth(out, monkeypatch, stop_at=None):
    """Run ``small_experiment()`` into ``out`` and return the paths of its
    atomic writes relative to ``out``, in order. With ``stop_at``, the run
    raises Interrupted in place of that write (counted from 1)."""
    written = []
    write = ingest._atomic_write

    def counted(path, data):
        if len(written) + 1 == stop_at:
            raise Interrupted
        write(path, data)
        written.append(os.path.relpath(path, out))

    with monkeypatch.context() as m:
        m.setattr(ingest, "_atomic_write", counted)
        run_pool(small_experiment(), out)
    return written


class TestInterruptedSynth:
    """A synth run that stops at any write leaves no manifest, not even a
    stale one, and every command that reads the tree stops on it."""

    @pytest.mark.parametrize("stop", ["first", "middle_prediction_log", "experiment",
                                      "manifest"])
    def test_commands_on_the_partial_tree_exit_nonzero(self, tmp_path, monkeypatch, capsys,
                                                       stop):
        complete = tmp_path / "complete"
        order = _synth(complete, monkeypatch)
        logs = [i for i, p in enumerate(order) if p.startswith("predictions")]
        index = {"first": 0, "middle_prediction_log": logs[len(logs) // 2],
                 "experiment": order.index("experiment.json"),
                 "manifest": order.index("manifest.jsonl")}[stop]
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(complete / "manifest.jsonl", run)
        with pytest.raises(Interrupted):
            _synth(run, monkeypatch, stop_at=index + 1)
        manifest = str(run / "manifest.jsonl")
        assert not os.path.exists(manifest)

        outputs = tmp_path / "outputs"
        outputs.mkdir()
        scores, accuracies = outputs / "complete_scores.csv", outputs / "complete_acc.csv"
        assert main(["score", "--input", str(complete / "predictions"), "--manifest",
                     str(complete / "manifest.jsonl"), "--out", str(scores),
                     "--acc-out", str(accuracies)]) == 0
        before = sorted(outputs.iterdir())
        commands = {
            "score": ["score", "--input", str(run / "predictions"), "--manifest", manifest,
                      "--out", str(outputs / "s.csv"), "--acc-out", str(outputs / "a.csv")],
            "baseline": ["baseline", "--scores", str(run / "scores"), "--weights",
                         str(run / "weights"), "--manifest", manifest,
                         "--out", str(outputs / "b.csv")],
            "evaluate": ["evaluate", "--scores", str(scores), "--accuracies", str(accuracies),
                         "--manifest", manifest, "--out", str(outputs / "r.json")],
            "ablate": ["ablate", "--artifacts", str(run), "--kind", "n_samples",
                       "--values", "4", "--out", str(outputs / "sweep.csv")],
        }
        capsys.readouterr()
        for name, argv in commands.items():
            assert main(argv) == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and manifest in err, (name, err)
            assert "Traceback" not in err
        assert sorted(outputs.iterdir()) == before


class TestMainEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_score_subcommand(self, pool, tmp_path, capsys):
        out_dir, _ = pool
        rc = main([
            "score",
            "--input", str(out_dir / "predictions"),
            "--manifest", str(out_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "scores.csv"),
        ])
        assert rc == 0
        assert "score rows" in capsys.readouterr().out

    def test_non_integer_prediction_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, _ = pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        log = sorted(logs.glob("*.jsonl"))[0]
        lines = log.read_text().splitlines()
        example = json.loads(lines[2])
        example["neighborhood_predictions"][0] = 1.5
        lines[2] = json.dumps(example)
        log.write_text("\n".join(lines) + "\n")
        rc = main([
            "score",
            "--input", str(logs),
            "--manifest", str(out_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "scores.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{log}:3: " in err and "1.5 is not an integer" in err

    @pytest.mark.parametrize("field, value", [
        ("predicted_label", True),
        ("true_label", "x"),
        ("max_confidence", True),
        ("max_confidence", math.nan),
    ])
    def test_bad_score_log_entry_exits_nonzero(self, pool, tmp_path, capsys, field,
                                               value):
        out_dir, _ = pool
        logs = tmp_path / "scores"
        shutil.copytree(out_dir / "scores", logs)
        log = sorted(logs.glob("*.jsonl"))[0]
        lines = log.read_text().splitlines()
        entry = json.loads(lines[2])
        entry[field] = value
        lines[2] = json.dumps(entry)
        log.write_text("\n".join(lines) + "\n")
        rc = main([
            "baseline",
            "--scores", str(logs),
            "--manifest", str(out_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "baselines.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{log}:3: " in err and field in err

    def test_non_finite_score_exits_nonzero(self, pool, tmp_path, capsys):
        out_dir, _ = pool
        scores, accs = tmp_path / "scores.csv", tmp_path / "acc.csv"
        cmd_score([str(out_dir / "predictions")], out_dir / "manifest.jsonl", scores,
                  acc_out=accs)
        lines = scores.read_text().splitlines()  # comment, columns, then rows
        lines[4] = lines[4].rsplit(",", 1)[0] + ",nan"
        scores.write_text("\n".join(lines) + "\n")
        rc = main([
            "evaluate",
            "--scores", str(scores),
            "--accuracies", str(accs),
            "--manifest", str(out_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert rc == 1
        assert f"{scores}:5: value 'nan' is not a finite number" in capsys.readouterr().err

    def test_huge_weight_norms_are_left_out_and_evaluate_succeeds(self, pool, tmp_path,
                                                                  capsys):
        out_dir, result = pool
        weights = tmp_path / "weights"
        shutil.copytree(out_dir / "weights", weights)
        converged = sorted(r.model_id for r in result.manifest if r.converged)
        huge_id = converged[0]
        dump = read_weight_dump(weights / f"{huge_id}.bin")
        write_weight_dump(
            WeightDump(huge_id, tuple(np.full(w.shape, 1e200) for w in dump.layers)),
            weights / f"{huge_id}.bin",
        )
        manifest = str(out_dir / "manifest.jsonl")
        scores, accs = tmp_path / "scores.csv", tmp_path / "acc.csv"
        baselines = tmp_path / "baselines.csv"
        assert main(["score", "--input", str(out_dir / "predictions"),
                     "--manifest", manifest, "--out", str(scores),
                     "--acc-out", str(accs)]) == 0
        assert main(["baseline", "--scores", str(out_dir / "scores"),
                     "--weights", str(weights), "--manifest", manifest,
                     "--out", str(baselines)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(huge_id in line for line in err)
        assert "norm_spectral" in err[0] and "norm_frobenius" in err[1]
        rows, omitted = read_scores_csv(baselines)
        norm_rows = [r for r in rows if r.measure.startswith("norm_")]
        assert {r.model_id for r in norm_rows} == set(converged) - {huge_id}
        assert omitted == {(huge_id, "norm_spectral"), (huge_id, "norm_frobenius")}
        assert main(["evaluate", "--scores", str(scores), str(baselines),
                     "--accuracies", str(accs), "--manifest", manifest,
                     "--out", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert {"norm_spectral", "norm_frobenius"} <= set(report["measures"])

    @pytest.mark.parametrize("name, content", [
        ("no_domains.json", '{"grid": []}'),
        ("not_an_object.json", "[1]"),
        ("partial_grid_entry.json", {"grid": [{"depth": 1}]}),
        ("bad_train_config.json", {"grid": [dict(small_experiment().grid[0].hyperparams(),
                                                  depth=0)]}),
        ("domain_not_an_object.json", {"domains": [1]}),
        ("text_rotation.json", {"domains": [
            dict(d, rotation="abc") for d in experiment_to_dict(small_experiment())["domains"]]}),
        ("nan_rotation.json", {"domains": [
            dict(d, rotation=math.nan) for d in experiment_to_dict(small_experiment())["domains"]]}),
        ("huge_radius.json", {"domains": [
            dict(d, class_arcs=[dict(a, radius=10**400) for a in d["class_arcs"]])
            for d in experiment_to_dict(small_experiment())["domains"]]}),
        ("text_m_test.json", {"m_test": "x"}),
        ("fractional_depth.json", {"grid": [dict(small_experiment().grid[0].hyperparams(),
                                                 depth=1.5)]}),
        ("unknown_ablation_domain.json", {"ablation": dict(
            experiment_to_dict(small_experiment())["ablation"], domain_id="nowhere")}),
        *((f"zero_{key}.json", {key: 0}) for key in ("m_train", "m_val", "m_test")),
        ("negative_m_test.json", {"m_test": -3}),
        *((f"ablation_{name}.json", {"ablation": dict(
            experiment_to_dict(small_experiment())["ablation"], **{key: value})})
          for name, key, value in [
              ("zero_m_test", "m_test", 0),
              ("zero_n_samples_max", "n_samples_max", 0),
              ("zero_base_size_r", "base_size_r", 0),
              ("negative_base_size_r", "base_size_r", -0.5),
              ("zero_size_r_value", "size_r_values", [0.2, 0.0]),
          ]),
        ("broken.json", '{"domains": '),
        ("broken.toml", "seed = "),
        ("deep.json", "[" * 100_000),
        ("deep.toml", "seed = " + "[" * 100_000),
    ])
    def test_malformed_experiment_file_exits_nonzero(self, tmp_path, capsys, name, content):
        if isinstance(content, dict):  # a valid experiment with some keys replaced
            content = json.dumps({**experiment_to_dict(small_experiment()), **content})
        path = tmp_path / name
        path.write_text(content)
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("encoding, line, message", [
        ("bad_byte", None, "invalid UTF-8: invalid start byte"),
        ("utf-8-sig", 1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ("utf-16", 1, "invalid UTF-8: invalid start byte"),
    ])
    def test_experiment_file_not_in_utf8_names_its_line(self, tmp_path, capsys, encoding,
                                                        line, message):
        text = json.dumps(experiment_to_dict(small_experiment()), indent=2)
        if encoding == "bad_byte":
            at = text.index('"rot030"')
            line = text[:at].count("\n") + 1
            data = text[:at].encode() + b"\xff" + text[at:].encode()
        else:
            data = text.encode(encoding)
        path = tmp_path / "experiment.json"
        path.write_bytes(data)
        rc = main(["synth", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, values", [
        ("n_samples", "x"),
        ("n_samples", "4,1.5"),
        ("neighborhood_size", "0.5,x"),
    ])
    def test_unparsable_sweep_values_exit_nonzero(self, pool, tmp_path, capsys, kind,
                                                  values):
        out_dir, _ = pool
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(out_dir), "--kind", kind,
                   "--values", values, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: --values {values!r}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("values", [",", ""])
    @pytest.mark.parametrize("kind", ["dataset_size", "n_samples", "neighborhood_size"])
    def test_empty_sweep_values_exit_nonzero(self, pool, tmp_path, capsys, kind, values):
        """An explicitly empty --values is an error for every kind; only an
        absent one gives neighborhood_size the experiment's size_r values."""
        out_dir, _ = pool
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(out_dir), "--kind", kind,
                   "--values", values, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {kind} sweep needs --values\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score_manifest", "report_input", "evaluate_scores"])
    def test_missing_input_file_exits_nonzero(self, pool, tmp_path, capsys, command):
        out_dir, _ = pool
        missing = str(tmp_path / "missing")
        manifest = str(out_dir / "manifest.jsonl")
        argv = {
            "score_manifest": ["score", "--input", str(out_dir / "predictions"),
                               "--manifest", missing, "--out", str(tmp_path / "s.csv")],
            "report_input": ["report", "--input", missing],
            "evaluate_scores": ["evaluate", "--scores", missing, "--accuracies", missing,
                                "--manifest", manifest, "--out", str(tmp_path / "r.json")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err and "Traceback" not in err

    def test_errors_exit_nonzero(self, pool, tmp_path, capsys):
        out_dir, _ = pool
        rc = main([
            "score",
            "--input", str(tmp_path),  # empty directory: no logs
            "--manifest", str(out_dir / "manifest.jsonl"),
            "--out", str(tmp_path / "scores.csv"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
