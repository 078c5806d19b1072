import io
import json
import math
import shutil

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
from smoothgen.ingest import WeightDump, read_weight_dump, write_weight_dump
from smoothgen.protocol import REPORT_LAYOUT
from smoothgen.synthbench.domains import DomainSpec, NeighborhoodSpec
from smoothgen.synthbench.mlp import TrainConfig
from smoothgen.synthbench.pool import (
    AblationSpec,
    ExperimentConfig,
    default_arcs,
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


class TestScoreCommand:
    def test_writes_scores_and_accuracies(self, pool, tmp_path):
        out_dir, result = pool
        scores = tmp_path / "scores.csv"
        accs = tmp_path / "acc.csv"
        n = cmd_score([str(out_dir / "predictions")],
                      out_dir / "manifest.jsonl", scores, acc_out=accs)
        rows = read_scores_csv(scores)
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
        assert {r.measure for r in read_scores_csv(scores)} == {
            "ms_manifold-r0.5-n5"}


    def test_disagreeing_accuracies_rejected(self, pool, tmp_path):
        from smoothgen.errors import SmoothgenError

        out_dir, _ = pool
        logs = tmp_path / "predictions"
        shutil.copytree(out_dir / "predictions", logs)
        source = sorted(logs.glob("*.jsonl"))[0]
        # a second log for the same (model, domain) with one label changed
        header, first, *rest = source.read_text().splitlines()
        example = json.loads(first)
        example["true_label"] = (example["true_label"] + 1) % 3
        tampered = logs / ("tampered__" + source.name)
        tampered.write_text("\n".join([header, json.dumps(example), *rest]) + "\n")
        with pytest.raises(SmoothgenError, match="differs") as exc:
            cmd_score([str(logs)], out_dir / "manifest.jsonl", tmp_path / "s.csv",
                      acc_out=tmp_path / "a.csv")
        assert str(source) in str(exc.value) and str(tampered) in str(exc.value)


class TestBaselineCommand:
    def test_atc_and_norm_rows(self, pool, tmp_path):
        out_dir, result = pool
        out = tmp_path / "baseline.csv"
        cmd_baseline([str(out_dir / "scores")], [str(out_dir / "weights")],
                     out_dir / "manifest.jsonl", out)
        rows = read_scores_csv(out)
        by_measure = {}
        for r in rows:
            by_measure.setdefault(r.measure, []).append(r)
        assert set(by_measure) == {
            "atc_mc", "atc_ne", "norm_spectral", "norm_frobenius"}
        assert len(by_measure["atc_mc"]) == result.num_converged * 3
        assert all(0.0 <= r.value <= 1.0 for r in by_measure["atc_mc"])
        assert all(r.value > 0 for r in by_measure["norm_spectral"])


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

    def test_report_of_a_malformed_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[1]")
        assert main(["report", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err

    @staticmethod
    def constructed_report():
        """One measure whose R^2 mean (-334.333) is far from its median (-2)."""
        entry = {"breakdown": {}, "skipped": {}}
        for value_key, table, _, skip_list in REPORT_LAYOUT:
            entry[value_key] = None
            entry["breakdown"][table] = []
            entry["skipped"].setdefault(skip_list, [])
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
        assert list(rows) == [value_key for value_key, *_ in REPORT_LAYOUT]
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

    @pytest.mark.parametrize("case", [
        "truncated",
        "not_an_object",
        "ablation_not_an_object",
        "size_r_values_not_numbers",
        "domain_id_not_a_string",
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
            else:
                ablation["domain_id"] = 7
            text = json.dumps(obj)
        path.write_text(text)
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(tmp_path / "sweep.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and "Traceback" not in err

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

    @pytest.mark.parametrize("case", ["experiment_domain", "test_domain_option"])
    def test_logs_of_another_domain_exit_nonzero(self, pool, tmp_path, capsys, case):
        out_dir, _ = pool
        artifacts = tmp_path / "run"
        shutil.copytree(out_dir, artifacts)
        option = []
        if case == "experiment_domain":
            path = artifacts / "experiment.json"
            obj = json.loads(path.read_text())
            obj["experiment"]["ablation"]["domain_id"] = "nowhere"
            path.write_text(json.dumps(obj))
        else:
            option = ["--test-domain", "rot000"]
        out = tmp_path / "sweep.csv"
        rc = main(["ablate", "--artifacts", str(artifacts), "--kind", "n_samples",
                   "--values", "4", "--out", str(out), *option])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {artifacts / 'ablation'}")
        assert "test domain 'rot030'" in err and "Traceback" not in err
        assert not out.exists()


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
        norm_rows = [r for r in read_scores_csv(baselines) if r.measure.startswith("norm_")]
        assert {r.model_id for r in norm_rows} == set(converged) - {huge_id}
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
        ("broken.json", '{"domains": '),
        ("broken.toml", "seed = "),
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
