import time

import pytest

from smoothgen.cli import cmd_ablate, cmd_baseline, cmd_evaluate, cmd_score
from smoothgen.synthbench.pool import default_experiment, run_pool

# Criterion results registered by tests/test_acceptance.py, printed as a
# one-line-per-criterion summary at the end of the run.
ACCEPTANCE_RESULTS = []


def record_acceptance(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_RESULTS.append(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def full_run(tmp_path_factory):
    """One full default benchmark run shared by the end-to-end tests.

    Returns a dict with the artifact directory, the training wall time, the
    metric report and the three ablation sweeps.
    """
    out = tmp_path_factory.mktemp("pool")
    t0 = time.perf_counter()
    result = run_pool(default_experiment(seed=0), out)
    train_seconds = time.perf_counter() - t0

    scores = out / "scores.csv"
    accuracies = out / "accuracies.csv"
    cmd_score([str(out / "predictions")], out / "manifest.jsonl", scores,
              acc_out=accuracies)
    report = cmd_evaluate([scores], accuracies, out / "manifest.jsonl",
                          out / "report.json")
    baseline_scores = out / "baseline_scores.csv"
    cmd_baseline([str(out / "scores")], [str(out / "weights")],
                 out / "manifest.jsonl", baseline_scores)
    report_all = cmd_evaluate([scores, baseline_scores], accuracies,
                              out / "manifest.jsonl", out / "report_all.json")

    sweeps = {}
    sweeps["dataset_size"] = cmd_ablate(
        str(out), "dataset_size", out / "sweep_dataset_size.csv",
        values=[10, 25, 50, 100, 250, 500, 1000, 2000])
    sweeps["n_samples"] = cmd_ablate(
        str(out), "n_samples", out / "sweep_n_samples.csv",
        values=[1, 2, 3, 5, 10, 20, 50, 100])
    sweeps["neighborhood_size"] = cmd_ablate(
        str(out), "neighborhood_size", out / "sweep_neighborhood_size.csv")

    return {
        "out": out,
        "result": result,
        "train_seconds": train_seconds,
        "report": report,
        "report_all": report_all,
        "sweeps": sweeps,
    }
