"""Span tracing for the benchmark.

The benchmark wraps the program's functions at the module attribute where
each caller looks them up (``pool.py`` and ``cli.py`` import by name, so the
wrapper must replace ``smoothgen.synthbench.pool.train_model`` and not only
``smoothgen.synthbench.mlp.train_model``). Every wrapped call appends a span
``[name, start, end, parent]`` to an in-memory list; per-layer metrics are
folded from those spans after each traced iteration, and a layer's self time
is its span minus the spans opened directly inside it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import math
import os
import statistics
import time

import numpy as np


def _count_train(counts, args, kwargs, model):
    counts["mlp.epochs"] += model.epochs_run
    counts["mlp.converged"] += int(model.converged)


def _count_predict(counts, args, kwargs, result):
    counts["mlp.predict_points"] += np.atleast_2d(args[1]).shape[0]


def _count_file_written(counts, args, kwargs, result):
    counts["ingest.bytes_written"] += os.path.getsize(args[0])


def _count_prediction_log(counts, args, kwargs, log):
    counts["ingest.examples_parsed"] += len(log.examples)
    counts["ingest.prediction_examples_parsed"] += len(log.examples)
    counts["ingest.bytes_read"] += os.path.getsize(args[0])


def _count_score_log(counts, args, kwargs, log):
    counts["ingest.examples_parsed"] += len(log.entries)
    counts["ingest.bytes_read"] += os.path.getsize(args[0])


def _count_scored(counts, args, kwargs, result):
    counts["smoothness.examples_scored"] += len(args[0].examples)


def _count_rows(counts, args, kwargs, result):
    counts["tables.rows_written"] += len(args[0])


def _count_groups(counts, args, kwargs, report):
    for entry in report["measures"].values():
        skipped = sum(len(rows) for rows in entry["skipped"].values())
        kept = sum(
            len(rows) for table, rows in entry["breakdown"].items() if table != "mae_pairs"
        )
        counts["protocol.groups"] += kept + skipped
        counts["protocol.groups_skipped"] += skipped


POOL = "smoothgen.synthbench.pool"
INGEST = "smoothgen.ingest"
CLI = "smoothgen.cli"

# (module where the caller looks the function up, attribute, span name, counter)
WRAPS = [
    (POOL, "train_model", "mlp.train", _count_train),
    (POOL, "model_predict", "mlp.predict", _count_predict),
    (POOL, "sample_neighborhood", "domains.sample", None),
    (POOL, "generate_domain", "domains.generate", None),
    (POOL, "apply_label_noise", "domains.label_noise", None),
    (POOL, "write_manifest", "ingest.write_manifest", None),
    (POOL, "write_prediction_log", "ingest.write_prediction_log", None),
    (POOL, "write_score_log", "ingest.write_score_log", None),
    (POOL, "write_weight_dump", "ingest.write_weight_dump", None),
    (INGEST, "serialize_manifest", "ingest.serialize", None),
    (INGEST, "serialize_prediction_log", "ingest.serialize", None),
    (INGEST, "serialize_score_log", "ingest.serialize", None),
    (INGEST, "serialize_weight_dump", "ingest.serialize", None),
    (INGEST, "atomic_write_text", "ingest.write", _count_file_written),
    (INGEST, "atomic_write_bytes", "ingest.write", _count_file_written),
    (CLI, "parse_manifest", "ingest.parse_manifest", None),
    (CLI, "parse_prediction_log", "ingest.parse", _count_prediction_log),
    (CLI, "parse_score_log", "ingest.parse", _count_score_log),
    (CLI, "read_weight_dump", "ingest.read_weights", None),
    (CLI, "compute_accuracy", "ingest.accuracy", None),
    (CLI, "dataset_smoothness", "smoothness.score", _count_scored),
    (CLI, "subsample_examples", "smoothness.transform", None),
    (CLI, "truncate_neighborhood", "smoothness.transform", None),
    (CLI, "atc_fit", "baselines.atc", None),
    (CLI, "atc_predict", "baselines.atc", None),
    (CLI, "norm_measures", "baselines.norm", None),
    (CLI, "read_scores_csv", "tables.read", None),
    (CLI, "read_accuracies_csv", "tables.read", None),
    (CLI, "write_scores_csv", "tables.write", _count_rows),
    (CLI, "write_accuracies_csv", "tables.write", _count_rows),
    (CLI, "build_matrix", "tables.build_matrix", None),
    (CLI, "build_report", "protocol.report", _count_groups),
    (CLI, "kendall_tau", "stats.tau", None),
    ("smoothgen.protocol", "kendall_tau", "stats.tau", None),
    (CLI, "atomic_write_text", "cli.write", None),
]

CLI_COMMANDS = ("score", "baseline", "evaluate", "ablate")

PER_LAYER = [
    ("mlp.train_s", "s"),
    ("mlp.train_calls", "count"),
    ("mlp.epochs", "count"),
    ("mlp.converged", "count"),
    ("mlp.predict_s", "s"),
    ("mlp.predict_points", "count"),
    ("domains.sample_s", "s"),
    ("domains.sample_calls", "count"),
    ("domains.generate_s", "s"),
    ("pool.self_s", "s"),
    ("ingest.serialize_s", "s"),
    ("ingest.write_s", "s"),
    ("ingest.files_written", "count"),
    ("ingest.bytes_written", "bytes"),
    ("ingest.parse_s", "s"),
    ("ingest.parse_log_p50_ms", "ms"),
    ("ingest.parse_log_p99_ms", "ms"),
    ("ingest.parse_log_samples", "count"),
    ("ingest.logs_parsed", "count"),
    ("ingest.examples_parsed", "count"),
    ("ingest.bytes_read", "bytes"),
    ("ingest.accuracy_s", "s"),
    ("ingest.accuracy_calls", "count"),
    ("smoothness.score_s", "s"),
    ("smoothness.calls", "count"),
    ("smoothness.examples_scored", "count"),
    ("smoothness.transform_s", "s"),
    ("smoothness.hist_per_example", "ratio"),
    ("baselines.atc_s", "s"),
    ("baselines.norm_s", "s"),
    ("tables.read_s", "s"),
    ("tables.write_s", "s"),
    ("tables.rows_written", "count"),
    ("protocol.report_s", "s"),
    ("protocol.groups", "count"),
    ("protocol.groups_skipped", "count"),
    ("stats.tau_calls", "count"),
    ("stats.tau_s", "s"),
    *[(f"cli.{cmd}{suffix}", "s") for cmd in CLI_COMMANDS for suffix in ("_s", "_self_s")],
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

# Metrics that count work: they must repeat exactly from one traced
# iteration (and run) to the next at the same seed.
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "bytes", "ratio")]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._installed = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call the benchmark makes itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def install(self):
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, count))
            self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced


def layer_metrics(spans, offset, counts):
    """Fold one iteration's spans (global indices start at ``offset``)."""
    total = collections.defaultdict(float)
    self_time = collections.defaultdict(float)
    calls = collections.Counter()
    parse_ms = []
    child = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent = spans[i]
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child[i]
        calls[name] += 1
        if name == "ingest.parse":
            parse_ms.append(dur * 1e3)
        if parent >= offset:
            child[parent - offset] += dur
    m = {
        "mlp.train_s": total["mlp.train"],
        "mlp.train_calls": calls["mlp.train"],
        "mlp.epochs": counts["mlp.epochs"],
        "mlp.converged": counts["mlp.converged"],
        "mlp.predict_s": total["mlp.predict"],
        "mlp.predict_points": counts["mlp.predict_points"],
        "domains.sample_s": total["domains.sample"],
        "domains.sample_calls": calls["domains.sample"],
        "domains.generate_s": total["domains.generate"],
        "pool.self_s": self_time["pool.run_pool"],
        "ingest.serialize_s": total["ingest.serialize"],
        "ingest.write_s": total["ingest.write"],
        "ingest.files_written": calls["ingest.write"],
        "ingest.bytes_written": counts["ingest.bytes_written"],
        "ingest.parse_s": total["ingest.parse"],
        "ingest.parse_log_p50_ms": _percentile(parse_ms, 50),
        "ingest.parse_log_p99_ms": _percentile(parse_ms, 99),
        "ingest.parse_log_samples": len(parse_ms),
        "ingest.logs_parsed": calls["ingest.parse"],
        "ingest.examples_parsed": counts["ingest.examples_parsed"],
        "ingest.bytes_read": counts["ingest.bytes_read"],
        "ingest.accuracy_s": total["ingest.accuracy"],
        "ingest.accuracy_calls": calls["ingest.accuracy"],
        "smoothness.score_s": total["smoothness.score"],
        "smoothness.calls": calls["smoothness.score"],
        "smoothness.examples_scored": counts["smoothness.examples_scored"],
        "smoothness.transform_s": total["smoothness.transform"],
        "smoothness.hist_per_example": (
            counts["smoothness.examples_scored"] / counts["ingest.prediction_examples_parsed"]
            if counts["ingest.prediction_examples_parsed"] else 0.0
        ),
        "baselines.atc_s": total["baselines.atc"],
        "baselines.norm_s": total["baselines.norm"],
        "tables.read_s": total["tables.read"],
        "tables.write_s": total["tables.write"],
        "tables.rows_written": counts["tables.rows_written"],
        "protocol.report_s": total["protocol.report"],
        "protocol.groups": counts["protocol.groups"],
        "protocol.groups_skipped": counts["protocol.groups_skipped"],
        "stats.tau_calls": calls["stats.tau"],
        "stats.tau_s": total["stats.tau"],
        "trace.spans": len(spans),
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m[f"cli.{cmd}_self_s"] = self_time[f"cli.{cmd}"]
    return m


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def median_metrics(per_iteration):
    """Median of each per-layer metric over traced iterations."""
    return {
        name: statistics.median(it[name] for it in per_iteration) for name in per_iteration[0]
    }
