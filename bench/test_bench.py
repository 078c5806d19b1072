"""Tests of the benchmark harness itself, at a tiny scale."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from smoothgen.synthbench import run_pool  # noqa: E402


def run_tiny(workload, tmp_path, trace=False):
    result, record, spans = bw.run_workload(
        workload, 0, 0, trace, ROOT, scale="tiny", work_root=tmp_path
    )
    return result, record, spans


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_workload_runs_at_tiny_scale(workload, tmp_path):
    result, record, _ = run_tiny(workload, tmp_path)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in bw.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(record["tree_sha256"]) == 64
    assert list(tmp_path.iterdir()) == []  # the run's trees are removed


@pytest.mark.parametrize("workload", ["synth_default", "analyze_default"])
def test_traced_counts_repeat(workload, tmp_path):
    first, _, spans = run_tiny(workload, tmp_path, trace=True)
    second, _, _ = run_tiny(workload, tmp_path, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in bench_trace.PER_LAYER}
    for name in bench_trace.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert all(end >= start for _, start, end, _ in spans)
    layer = "mlp.train_calls" if workload.startswith("synth") else "ingest.logs_parsed"
    assert first["metrics"][layer]["value"] > 0


def test_times_are_scaled_by_the_reference_around_them():
    ref = bw.REFERENCE_S
    # Half the reference speed before the first time, reference speed after it.
    assert bw.scaled([4.0, 3.0], [2 * ref, ref, ref]) == pytest.approx([8 / 3, 3.0])
    assert bw.scaled([4.0, 3.0], [2 * ref, 2 * ref, ref]) == pytest.approx([2.0, 2.0])
    assert bw.reference_work() > 0


def analysis_of(tree, tmp_path, cfg):
    checks = bw.Checks()
    ctx = bw.Context("analyze_default", cfg, tmp_path, checks, random.Random(0),
                     tree=tree, logs_read=1)
    bw.analyze_iteration(ctx, 0, None)
    return checks


@pytest.fixture(scope="module")
def tiny_tree(tmp_path_factory):
    cfg = bw.experiment("analyze_default", 0, "tiny")
    tree = tmp_path_factory.mktemp("tree")
    run_pool(cfg, tree)
    return cfg, tree


def test_clean_tree_passes_every_check(tiny_tree, tmp_path):
    cfg, tree = tiny_tree
    checks = analysis_of(tree, tmp_path, cfg)
    assert checks.failed == 0 and checks.attempted > bw.SAMPLED_LOGS


def test_corrupted_prediction_log_fails(tiny_tree, tmp_path):
    cfg, tree = tiny_tree
    copy = tmp_path / "tree"
    shutil.copytree(tree, copy)
    log = sorted((copy / "predictions").glob("*.jsonl"))[0]
    lines = log.read_text().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]
    log.write_text("\n".join(lines) + "\n")
    checks = analysis_of(copy, tmp_path, cfg)
    assert checks.failed > 0
    assert any("cmd_score" in m for m in checks.messages)


def test_wrong_score_fails_the_recount(tiny_tree, tmp_path, monkeypatch):
    import smoothgen.cli

    cfg, tree = tiny_tree
    real = smoothgen.cli.dataset_smoothness
    monkeypatch.setattr(smoothgen.cli, "dataset_smoothness",
                        lambda log, variant="majority": real(log, variant) * (1 + 1e-9))
    checks = analysis_of(tree, tmp_path, cfg)
    assert checks.failed > 0
    assert all("recount" in m for m in checks.messages)


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "synth_default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
