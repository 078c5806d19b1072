import dataclasses
import json
import math
import os
import stat
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothgen import ingest
from smoothgen.baselines import atc_fit
from smoothgen.errors import SchemaError
from smoothgen.ingest import (
    ModelRecord,
    NeighborhoodPredictionLog,
    ScoreLog,
    WeightDump,
    compute_accuracy,
    parse_manifest,
    parse_prediction_log,
    parse_score_log,
    read_weight_dump,
    serialize_manifest,
    serialize_prediction_log,
    serialize_score_log,
    serialize_weight_dump,
    write_manifest,
    write_prediction_log,
    write_score_log,
    write_weight_dump,
)
from smoothgen.smoothness import subsample_examples, truncate_neighborhood
from smoothgen.synthbench.pool import run_pool

from logrows import ExampleEntry, ScoreEntry, log_from_rows, log_rows
from test_cli import small_experiment

RECORD = ModelRecord(
    model_id="d0-c000",
    arch="mlp",
    train_domain="d0",
    hyperparams={"depth": 2, "width": 8},
    converged=True,
)

PRED_LOG = log_from_rows(
    NeighborhoodPredictionLog,
    model_id="d0-c000",
    test_domain="d1",
    num_classes=3,
    rows=(
        ExampleEntry("ex0", (0, 0, 1), true_label=0, base_prediction=0),
        ExampleEntry("ex1", (2, 2, 2), true_label=1, base_prediction=2),
    ),
    meta={"neighborhood": "manifold-r0.5-n10"},
)

SCORE_LOG = log_from_rows(
    ScoreLog,
    model_id="d0-c000",
    domain="d1",
    split="test",
    num_classes=3,
    rows=(
        ScoreEntry("ex0", 0, 0.9, -0.3, true_label=0),
        ScoreEntry("ex1", 2, 0.5, -1.0, true_label=1),
    ),
)


# Characters that str.strip() takes as whitespace and JSON does not.
NON_JSON_SPACES = ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest([RECORD], path)
        assert parse_manifest(path) == [RECORD]

    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest([RECORD], path)
        again = serialize_manifest(parse_manifest(path))
        assert path.read_bytes() == again.encode()

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        assert parse_manifest(path) == []

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(serialize_manifest([RECORD, RECORD]))
        with pytest.raises(SchemaError, match="duplicate"):
            parse_manifest(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"model_id": "a"}\n')
        with pytest.raises(SchemaError, match="missing required field") as exc:
            parse_manifest(path)
        assert exc.value.line == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SchemaError, match="malformed"):
            parse_manifest(path)

    def test_only_json_whitespace_is_blank(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(f" \t\r\n \t{serialize_manifest([RECORD])[:-1]}\r \n", newline="")
        assert parse_manifest(path) == [RECORD]

    @pytest.mark.parametrize("char", NON_JSON_SPACES)
    def test_other_whitespace_is_malformed(self, tmp_path, char):
        path = tmp_path / "manifest.jsonl"
        path.write_text(serialize_manifest([RECORD]) + char + "\n", newline="")
        with pytest.raises(SchemaError, match="malformed JSON") as exc:
            parse_manifest(path)
        assert exc.value.line == 2


class TestPredictionLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_prediction_log(PRED_LOG, path)
        assert parse_prediction_log(path) == PRED_LOG

    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_prediction_log(PRED_LOG, path)
        assert path.read_bytes() == serialize_prediction_log(
            parse_prediction_log(path)).encode()

    def test_header_required(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"example_id": "ex0"}\n')
        with pytest.raises(SchemaError, match="type"):
            parse_prediction_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError, match="header"):
            parse_prediction_log(path)

    def test_out_of_range_prediction_rejected(self):
        with pytest.raises(SchemaError, match="out of range"):
            log_from_rows(NeighborhoodPredictionLog, (ExampleEntry("e", (0, 2)),),
                          model_id="m", test_domain="d", num_classes=2)

    def test_empty_neighborhood_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            log_from_rows(NeighborhoodPredictionLog, (ExampleEntry("e", ()),),
                          model_id="m", test_domain="d", num_classes=2)

    def test_num_classes_lower_bound(self):
        with pytest.raises(SchemaError):
            log_from_rows(NeighborhoodPredictionLog, (),
                          model_id="m", test_domain="d", num_classes=1)


def dumps_sorted(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_lines(objs):
    """JSON Lines of the objects; a string is a line's text as it is."""
    return "".join((o if isinstance(o, str) else dumps_sorted(o)) + "\n" for o in objs)


def write_log_lines(path, examples, num_classes=3):
    header = {"type": "prediction_log", "model_id": "m", "test_domain": "d",
              "num_classes": num_classes}
    path.write_text(render_lines([header, *examples]))


GOOD_EXAMPLE = {"example_id": "ex0", "neighborhood_predictions": [0, 1],
                "true_label": 0, "base_prediction": 1}


def write_faulty_lines(path, write_lines, good, faults):
    """A log of a good line, then one line per fault: the fields to change in
    ``good``, or the text of a malformed line."""
    write_lines(path, [good] + [f if isinstance(f, str) else {**good, **f} for f in faults])


class TestPredictionLogTypes:
    @pytest.mark.parametrize("field, value, message", [
        ("neighborhood_predictions", [1.5, 0], "not an integer"),
        ("neighborhood_predictions", [1, 2.0], "not an integer"),
        ("neighborhood_predictions", [True, 0], "not an integer"),
        ("neighborhood_predictions", [0, None], "not an integer"),
        ("neighborhood_predictions", [[1], 0], "not an integer"),
        ("neighborhood_predictions", ["1"], "not an integer"),
        ("neighborhood_predictions", [0, 3], "out of range"),
        ("neighborhood_predictions", [-1], "out of range"),
        ("neighborhood_predictions", [10**30], "out of range"),
        ("neighborhood_predictions", [], "empty"),
        ("neighborhood_predictions", "01", "wrong type"),
        ("neighborhood_predictions", {"0": 1}, "wrong type"),
        ("neighborhood_predictions", 1, "wrong type"),
        ("true_label", True, "not an integer"),
        ("true_label", 1.0, "not an integer"),
        ("true_label", "1", "not an integer"),
        ("true_label", -1, "out of range"),
        ("true_label", 3, "out of range"),
        ("base_prediction", False, "not an integer"),
        ("base_prediction", 0.5, "not an integer"),
        ("base_prediction", -2, "out of range"),
        ("example_id", 5, "wrong type"),
        ("example_id", None, "wrong type"),
    ])
    def test_bad_value_names_path_and_line(self, tmp_path, field, value, message):
        path = tmp_path / "log.jsonl"
        write_log_lines(path, [GOOD_EXAMPLE, {**GOOD_EXAMPLE, "example_id": "ex1"},
                               {**GOOD_EXAMPLE, "example_id": "ex2", field: value}])
        with pytest.raises(SchemaError, match=message) as exc:
            parse_prediction_log(path)
        assert (exc.value.path, exc.value.line) == (path, 4)
        assert str(exc.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize("field", ["example_id", "neighborhood_predictions"])
    def test_missing_field_names_path_and_line(self, tmp_path, field):
        path = tmp_path / "log.jsonl"
        example = {k: v for k, v in GOOD_EXAMPLE.items() if k != field}
        write_log_lines(path, [GOOD_EXAMPLE, example])
        with pytest.raises(SchemaError, match="missing required field") as exc:
            parse_prediction_log(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"a": 1} {"b": 2}', '{"a": ' + "1" * 5000 + "}",
        "[" * 100_000])
    def test_malformed_line_names_path_and_line(self, tmp_path, text):
        path = tmp_path / "log.jsonl"
        write_log_lines(path, [GOOD_EXAMPLE])
        path.write_text(path.read_text() + "\n" + text + "\n")
        with pytest.raises(SchemaError) as exc:
            parse_prediction_log(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("range_fault, range_message", [
        ({"neighborhood_predictions": [0, 3]}, "prediction 3 out of range"),
        ({"true_label": 3}, "true_label 3 out of range"),
        ({"base_prediction": -2}, "base_prediction -2 out of range"),
        ({"neighborhood_predictions": [1, 10**30]}, "out of range"),
        ({"neighborhood_predictions": []}, "empty"),
    ])
    @pytest.mark.parametrize("type_fault, type_message", [
        ({"true_label": "x"}, "not an integer"),
        ({"neighborhood_predictions": [0, 1.5]}, "not an integer"),
        ({"neighborhood_predictions": "01"}, "wrong type"),
        ({"example_id": None}, "wrong type"),
        ("{not json", "malformed JSON"),
    ])
    @pytest.mark.parametrize("range_first", [True, False], ids=["range_first", "type_first"])
    def test_first_faulty_line_is_named(self, tmp_path, range_fault, range_message,
                                        type_fault, type_message, range_first):
        path = tmp_path / "log.jsonl"
        faults = [(range_fault, range_message), (type_fault, type_message)]
        if not range_first:
            faults.reverse()
        write_faulty_lines(path, write_log_lines, GOOD_EXAMPLE, [f for f, _ in faults])
        with pytest.raises(SchemaError, match=faults[0][1]) as exc:
            parse_prediction_log(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("range_first", [True, False], ids=["range_first", "type_first"])
    def test_first_faulty_line_of_a_long_log_is_named(self, tmp_path, range_first):
        path = tmp_path / "log.jsonl"
        faults = [({"neighborhood_predictions": [0, 3]}, "prediction 3 out of range"),
                  ({"true_label": "x"}, "true_label 'x' is not an integer")]
        if not range_first:
            faults.reverse()
        examples = [{**GOOD_EXAMPLE, "example_id": f"ex{i}"} for i in range(1000)]
        examples[700].update(faults[0][0])
        examples[900].update(faults[1][0])
        write_log_lines(path, examples)
        with pytest.raises(SchemaError, match=f"'ex700': {faults[0][1]}") as exc:
            parse_prediction_log(path)
        assert exc.value.line == 702  # the header, then entries 0 to 700

    def test_boolean_num_classes_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log_lines(path, [GOOD_EXAMPLE], num_classes=True)
        with pytest.raises(SchemaError, match="num_classes") as exc:
            parse_prediction_log(path)
        assert exc.value.line == 1

    def test_absent_and_null_labels_are_missing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_log_lines(path, [
            {"example_id": "a", "neighborhood_predictions": [0]},
            {"example_id": "b", "neighborhood_predictions": [1], "true_label": None},
        ])
        log = parse_prediction_log(path)
        assert log.true_labels.tolist() == [-1, -1]


RAGGED_LOG = log_from_rows(
    NeighborhoodPredictionLog,
    model_id="m\u00e9",
    test_domain="d1",
    num_classes=4,
    rows=(
        ExampleEntry("ex0", (3,), true_label=0, base_prediction=3),
        ExampleEntry('odd "id"\\\n\u00e9', (0, 1, 2, 3, 3, 3, 1), true_label=3),
        ExampleEntry("ex2", (2, 2), base_prediction=0),
        ExampleEntry("ex3", (1, 0, 1)),
    ),
    meta={"neighborhood": "custom"},
)


TWO_EXAMPLES_OF_ONE_ID = {"example_ids": ("a", "a"), "lengths": [2, 1], "true_labels": [1, 1],
                          "base_predictions": [-1, -1]}


class TestPredictionLogArrays:
    def test_ragged_log_with_missing_labels_round_trips_byte_identical(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_prediction_log(RAGGED_LOG, path)
        parsed = parse_prediction_log(path)
        assert parsed == RAGGED_LOG
        assert path.read_bytes() == serialize_prediction_log(parsed).encode()

    @pytest.mark.parametrize("log", [PRED_LOG, RAGGED_LOG], ids=["uniform", "ragged"])
    def test_template_matches_sorted_json(self, log):
        header = {"type": "prediction_log", "model_id": log.model_id,
                  "test_domain": log.test_domain, "num_classes": log.num_classes,
                  "meta": log.meta}
        examples = [
            {k: v for k, v in (("example_id", ex.example_id),
                               ("neighborhood_predictions", list(ex.neighborhood_predictions)),
                               ("true_label", ex.true_label),
                               ("base_prediction", ex.base_prediction)) if v is not None}
            for ex in log_rows(log)
        ]
        expected = "".join(dumps_sorted(o) + "\n" for o in [header, *examples])
        assert serialize_prediction_log(log) == expected

    def test_arrays_of_a_ragged_log(self):
        assert RAGGED_LOG.predictions.dtype == np.uint8  # holds classes 0..3
        assert RAGGED_LOG.lengths.tolist() == [1, 7, 2, 3]
        assert RAGGED_LOG.offsets.tolist() == [0, 1, 8, 10, 13]
        assert RAGGED_LOG.true_labels.tolist() == [0, 3, -1, -1]
        assert RAGGED_LOG.base_predictions.tolist() == [3, -1, 0, -1]
        assert RAGGED_LOG.predictions[1:8].tolist() == [0, 1, 2, 3, 3, 3, 1]
        assert RAGGED_LOG.example_ids[-1] == "ex3"
        assert len(RAGGED_LOG.example_ids) == 4

    def test_arrays_are_read_only_copies(self):
        preds = np.array([0, 1, 1])
        log = NeighborhoodPredictionLog(
            model_id="m", test_domain="d", num_classes=2, example_ids=("a",),
            predictions=preds, lengths=[3], true_labels=[1], base_predictions=[-1])
        preds[0] = 1
        assert log.predictions.tolist() == [0, 1, 1]
        with pytest.raises(ValueError):
            log.predictions[0] = 1

    def test_read_only_arrays_of_the_final_types_are_kept(self):
        arrays = [ingest.read_only(np.array(values, dtype=dtype)) for values, dtype in (
            ([0, 1, 1, 0], np.uint8), ([3, 1], np.int64), ([1, -1], np.int64),
            ([-1, 0], np.int64))]
        log = NeighborhoodPredictionLog("m", "d", 2, ("a", "b"), *arrays)
        assert all(getattr(log, name) is arr for name, arr in zip(ingest._LOG_ARRAYS, arrays))

    @pytest.mark.parametrize("change, message", [
        ({"predictions": [0.0, 1.0, 1.0]}, "integer array"),
        ({"lengths": [2]}, "sum to the number of predictions"),
        ({"true_labels": [1, 1]}, "one entry per example"),
        ({"base_predictions": [-2]}, "base_prediction -2 out of range"),
        ({"predictions": [0, 2, 1]}, "prediction 2 out of range"),
        (TWO_EXAMPLES_OF_ONE_ID, "example 'a': duplicate example_id"),
        ({**TWO_EXAMPLES_OF_ONE_ID, "predictions": [0, 1, 2]},
         "example 'a': prediction 2 out of range"),
    ])
    def test_array_validation(self, change, message):
        fields = dict(model_id="m", test_domain="d", num_classes=2, example_ids=("a",),
                      predictions=[0, 1, 1], lengths=[3], true_labels=[1],
                      base_predictions=[-1])
        with pytest.raises(SchemaError, match=message):
            NeighborhoodPredictionLog(**{**fields, **change})


def reference_serialize_prediction_log(log):
    """The log as serialize_prediction_log rendered it with one
    ``str(list).replace(" ", "")`` per example."""
    header = {"type": "prediction_log", "model_id": log.model_id,
              "test_domain": log.test_domain, "num_classes": log.num_classes}
    if log.meta:
        header["meta"] = log.meta
    flat = log.predictions.tolist()
    offsets = log.offsets.tolist()
    lines = [dumps_sorted(header)]
    for ex_id, start, end, base, true in zip(
        log.example_ids, offsets, offsets[1:],
        log.base_predictions.tolist(), log.true_labels.tolist()
    ):
        base_field = "" if base < 0 else f'"base_prediction":{base},'
        true_field = "" if true < 0 else f',"true_label":{true}'
        lines.append(
            f'{{{base_field}"example_id":{json.dumps(ex_id)},'
            f'"neighborhood_predictions":{str(flat[start:end]).replace(" ", "")}'
            f"{true_field}}}"
        )
    return "\n".join(lines) + "\n"


def random_log(k, lengths, seed=0, first=()):
    """A log of k classes with the given neighborhood lengths, random
    predictions starting with ``first``, and about a third of the labels absent."""
    rng = np.random.default_rng(seed)
    m = len(lengths)
    predictions = rng.integers(0, k, size=sum(lengths), dtype=np.int64)
    predictions[: len(first)] = first
    labels = rng.integers(0, k, size=(2, m), dtype=np.int64)
    labels[rng.random((2, m)) < 0.3] = -1
    return NeighborhoodPredictionLog(
        model_id="m", test_domain="d", num_classes=k,
        example_ids=tuple(f"ex{i:05d}" for i in range(m)), predictions=predictions,
        lengths=lengths, true_labels=labels[0], base_predictions=labels[1],
        meta={"neighborhood": "manifold-r0.5-n10"})


DIGIT_AND_DTYPE_EDGES = [9, 10, 99, 100, 255, 256, 65_535, 65_536]


class TestPredictionLogRendererOracle:
    @pytest.mark.parametrize("k, dtype", [
        (2, np.uint8), (10, np.uint8), (11, np.uint8), (256, np.uint8),
        (257, np.uint16), (65_537, np.uint32), (2**63 - 1, np.uint64),
    ])
    def test_class_counts(self, k, dtype):
        lengths = np.random.default_rng(k % 1000).integers(1, 30, size=60)
        log = random_log(k, lengths, seed=1, first=[0, k - 1, k - 1, 0])
        assert log.predictions.dtype == dtype
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)

    def test_digit_and_dtype_edges(self):
        edges = DIGIT_AND_DTYPE_EDGES
        # Each edge value alone, then all of them in one neighborhood.
        lengths = [1] * len(edges) + [len(edges), 3]
        log = random_log(65_537, lengths, seed=2, first=edges + edges[::-1])
        assert log.predictions[: 2 * len(edges)].tolist() == edges + edges[::-1]
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)

    @pytest.mark.parametrize("k", [3, 10, 257, 2**63 - 1])
    def test_one_digit_values(self, k):
        # Every value below 10 (the renderer's one-digit path) in each dtype.
        lengths = np.random.default_rng(k % 1000).integers(1, 30, size=60)
        log = dataclasses.replace(random_log(min(k, 10), lengths, seed=3), num_classes=k)
        assert log.predictions.max() == min(k, 10) - 1
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)
        buf, ends = ingest._render_csv_ints(log.predictions)
        assert buf.tobytes() == "".join(f"{v}," for v in log.predictions.tolist()).encode()
        assert ends.tolist() == list(range(2, 2 * len(log.predictions) + 1, 2))

    @pytest.mark.parametrize("wide, at", [(10, 0), (99, 77), (100, -1), (65_536, 100)])
    def test_one_digit_values_with_one_wider(self, wide, at):
        log = random_log(10, np.full(40, 5), seed=4)
        predictions = log.predictions.astype(np.int64)
        predictions[at] = wide
        log = dataclasses.replace(log, num_classes=65_537, predictions=predictions)
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)

    @pytest.mark.parametrize("log", [PRED_LOG, RAGGED_LOG], ids=["uniform", "ragged"])
    def test_fixed_logs(self, log):
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)

    def test_log_with_zero_examples(self):
        log = random_log(3, [])
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)
        assert serialize_prediction_log(log).count("\n") == 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.one_of(st.integers(2, 300), st.integers(2, 70_000),
                                       st.integers(2, 2**63 - 1)))
    def test_random_logs(self, data, k):
        value = st.one_of(st.integers(0, k - 1), st.sampled_from(
            [v for v in DIGIT_AND_DTYPE_EDGES if v < k] + [k - 1]))
        label = st.one_of(st.none(), st.integers(0, k - 1))
        examples = data.draw(st.lists(
            st.tuples(st.lists(value, min_size=1, max_size=15), label, label), max_size=12))
        log = log_from_rows(
            NeighborhoodPredictionLog,
            [ExampleEntry(f"ex{i}", tuple(preds), true_label=true, base_prediction=base)
             for i, (preds, true, base) in enumerate(examples)],
            model_id="m", test_domain="d", num_classes=k)
        assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)


def score_log_oracle(log):
    """The score log as sorted-key json.dumps renders each line."""
    header = {"type": "score_log", "model_id": log.model_id, "domain": log.domain,
              "split": log.split}
    if log.num_classes is not None:
        header["num_classes"] = log.num_classes
    if log.meta:
        header["meta"] = log.meta
    entries = [{k: v for k, v in vars(e).items() if v is not None} for e in log_rows(log)]
    return "".join(dumps_sorted(o) + "\n" for o in [header, *entries])


# Ids that JSON escapes, or that are not ASCII.
ODD_IDS = ('quote"d', "back\\slash", "tab\there", "nl\nx", "\x00", "", "café",
           "日本", " ", "\U0001f600", "/slash", "ex0")


def odd_prediction_log(ids, seed):
    """A log of 12 classes over ``ids``, with ragged neighbourhoods and about a
    third of the labels absent."""
    lengths = np.random.default_rng(seed).integers(1, 14, size=len(ids))
    log = random_log(12, lengths, seed=seed, first=[11, 10, 9, 0])
    return dataclasses.replace(log, example_ids=ids)


def odd_score_log(ids, seed):
    rng = np.random.default_rng(seed)
    m = len(ids)
    labels = rng.integers(0, 12, size=(2, m))
    labels[1][rng.random(m) < 0.3] = -1
    return ScoreLog(model_id="m", domain="d", split="validation", example_ids=ids,
                    predicted_labels=labels[0], max_confidence=rng.uniform(1 / 12, 1.0, m),
                    neg_entropy=-rng.uniform(0.0, math.log(12), m), true_labels=labels[1],
                    num_classes=12, meta={"seed": seed})


class TestFramedWriters:
    """Each example's constant text is rendered once per tuple of example ids
    and shared by every log of those ids; its labels are each log's own."""

    def test_prediction_logs_sharing_ids_keep_their_own_labels(self):
        ids = tuple(f"ex{i:05d}" for i in range(40))
        lengths = np.full(len(ids), 5)
        first = random_log(3, lengths, seed=1)
        first = dataclasses.replace(first, example_ids=ids,
                                    true_labels=np.zeros(len(ids), dtype=np.int64),
                                    base_predictions=np.ones(len(ids), dtype=np.int64))
        second = dataclasses.replace(random_log(3, lengths, seed=2), example_ids=ids)
        assert (second.true_labels == -1).any() and (second.base_predictions == -1).any()
        for log in (first, second, first):
            assert serialize_prediction_log(log) == reference_serialize_prediction_log(log)

    def test_score_logs_sharing_ids_keep_their_own_labels(self):
        ids = tuple(f"ex{i:05d}" for i in range(40))
        first, second = odd_score_log(ids, seed=1), odd_score_log(ids, seed=2)
        assert not np.array_equal(first.true_labels, second.true_labels)
        for log in (first, second, first):
            assert serialize_score_log(log) == score_log_oracle(log)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_odd_ids_ragged_lists_and_many_classes(self, seed):
        # The same bytes from a new frame and from a reused one, for a tuple
        # of ids that is not the one the frame was built from.
        ids = ODD_IDS[seed:] + ODD_IDS[:seed]
        pred, score = odd_prediction_log(ids, seed), odd_score_log(ids, seed)
        assert (pred.lengths != pred.lengths[0]).any() and pred.predictions.max() > 9
        ingest._prediction_prefixes.cache_clear()
        ingest._score_prefixes.cache_clear()
        new = serialize_prediction_log(pred), serialize_score_log(score)
        pred_copy = dataclasses.replace(pred, example_ids=tuple(list(ids)))
        score_copy = dataclasses.replace(score, example_ids=tuple(list(ids)))
        reused = serialize_prediction_log(pred_copy), serialize_score_log(score_copy)
        assert ingest._prediction_prefixes.cache_info().hits == 1
        assert ingest._score_prefixes.cache_info().hits == 1
        assert new == reused
        assert new[0] == reference_serialize_prediction_log(pred)
        assert new[1] == score_log_oracle(score)
        objs = [json.loads(line) for line in new[0].splitlines()[1:]]
        assert [o["example_id"] for o in objs] == list(ids)


def strict_path():
    """A patch under which every log takes the JSON decode of each line."""
    return mock.patch.multiple(ingest, _scan_prediction_log=lambda path, data: None,
                               _scan_score_log=lambda path, data: None)


def scan_only():
    """A patch under which a log that the line pattern declines, or any
    render of a log, fails the test."""
    fail = mock.Mock(side_effect=AssertionError("declined or rendered"))
    return mock.patch.multiple(ingest, _read_log=fail, serialize_prediction_log=fail,
                               serialize_score_log=fail)


def parse_outcome(path, parse=parse_prediction_log):
    """The log parsed from ``path`` with the bytes of its score arrays (so
    that -0.0 and 0.0 differ), or the message, path and line of its
    SchemaError."""
    try:
        log = parse(path)
    except SchemaError as e:
        return str(e), e.path, e.line
    if isinstance(log, ScoreLog):
        return log, [log.max_confidence.tobytes(), log.neg_entropy.tobytes()]
    return log, []


def check_variant(tmp_path, parse, text, old, new):
    """Parsing ``text`` with ``old`` changed to ``new`` gives the strict
    outcome; an error names the changed line."""
    path = tmp_path / "log.jsonl"
    assert old in text
    path.write_text(text.replace(old, new, 1), newline="")
    with strict_path():
        expected = parse_outcome(path, parse)
    got = parse_outcome(path, parse)
    assert got == expected
    if isinstance(got[0], str):
        assert got[1:] == (path, text[:text.index(old)].count("\n") + 1)


def whitespace_variants(header, line):
    """(old, new) pairs that put whitespace around the ``header`` line or a
    body ``line``: JSON's own (space, tab, CR), which a line may carry and
    which alone makes a blank line, and whitespace that JSON does not allow."""
    return [
        (line, " \t" + line + " \r"),
        (line, " \t\r\n" + line),
        *((line, char + "\n" + line) for char in NON_JSON_SPACES),
        (line, "\u2028" + line),
        (line, line + "\x1c"),
        (header, header + "\x1f"),
    ]


WHITESPACE_IDS = ["json_spaces", "json_blank_line",
                  *(f"line_of_{ord(c):#x}" for c in NON_JSON_SPACES),
                  "leading_u2028", "trailing_0x1c", "header_0x1f"]


def check_byte_edit(tmp_path, parse, text, at, cut, insert):
    """Parsing ``text`` with ``cut`` bytes at ``at`` replaced by ``insert``
    gives the strict outcome."""
    data = text.encode()
    path = tmp_path / "log.jsonl"
    path.write_bytes(data[:at] + insert + data[at + cut:])
    with strict_path():
        expected = parse_outcome(path, parse)
    assert parse_outcome(path, parse) == expected


SCAN_LOG = log_from_rows(
    NeighborhoodPredictionLog,
    model_id="m",
    test_domain="d",
    num_classes=3,
    rows=(
        ExampleEntry("ex0", (0, 1, 2), true_label=0, base_prediction=1),
        ExampleEntry("ex1", (2,), base_prediction=2),
        ExampleEntry("ex2", (1, 1), true_label=1),
        ExampleEntry("ex3", (0, 2, 2, 2)),
    ),
    meta={"neighborhood": "manifold-r0.5-n10"},
)
SCAN_TEXT = serialize_prediction_log(SCAN_LOG)
SCAN_HEADER = SCAN_TEXT.splitlines()[0]
ESCAPED_HEADER_LOG = dataclasses.replace(SCAN_LOG, model_id='a\\b"c', meta={"note": "x\ty"})

# A log as synth writes one: every line of one length (ids of one width, one
# neighbourhood size, one-digit classes and both labels). Its header and
# first example are SCAN_TEXT's.
STRIDE_LOG = log_from_rows(
    NeighborhoodPredictionLog,
    model_id="m",
    test_domain="d",
    num_classes=3,
    rows=(
        ExampleEntry("ex0", (0, 1, 2), true_label=0, base_prediction=1),
        ExampleEntry("ex1", (2, 2, 1), true_label=2, base_prediction=2),
        ExampleEntry("ex2", (1, 1, 0), true_label=1, base_prediction=0),
        ExampleEntry("ex3", (0, 2, 2), true_label=2, base_prediction=2),
    ),
    meta={"neighborhood": "manifold-r0.5-n10"},
)
STRIDE_TEXT = serialize_prediction_log(STRIDE_LOG)


def mixed_endings(text):
    """``text`` with its header and first body line ending in LF and every
    later line in CRLF: the first line matches the pattern, the rest do not."""
    header, first, rest = text.split("\n", 2)
    return f"{header}\n{first}\n" + rest.replace("\n", "\r\n")


class _NoFindall:
    """A compiled pattern whose ``findall``, the line pattern's pass over a
    whole body, fails the test."""

    def __init__(self, pattern):
        self.pattern = pattern

    def __getattr__(self, name):
        return getattr(self.pattern, name)

    def findall(self, *args):
        raise AssertionError("the line pattern's findall")


def matrix_only():
    """A patch under which a prediction log that the fixed-stride read
    declines fails the test."""
    return mock.patch.object(ingest, "_PREDICTION_LINE", _NoFindall(ingest._PREDICTION_LINE))


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan-pool")
    run_pool(small_experiment(), out)
    return out


@pytest.mark.parametrize("parse, folders", [
    (parse_prediction_log, ("predictions", "ablation")),
    (parse_score_log, ("scores",)),
], ids=["prediction_logs", "score_logs"])
def test_every_log_of_a_pool_takes_the_fast_read(small_tree, parse, folders):
    paths = [p for folder in folders for p in sorted((small_tree / folder).glob("*.jsonl"))]
    assert len(paths) > 20
    # Every prediction log of a pool has one line length and one-digit
    # values, so it is read as a byte matrix.
    with scan_only(), matrix_only() if parse is parse_prediction_log else nullcontext():
        outcomes = [parse_outcome(p, parse) for p in paths]
    with strict_path():
        assert outcomes == [parse_outcome(p, parse) for p in paths]


def assert_read_only(log):
    """Every array of ``log`` is read-only and of the log's type for it."""
    if isinstance(log, ScoreLog):
        types = ingest._SCORE_ARRAYS
    else:
        types = {name: np.int64 for name in ingest._LOG_ARRAYS}
        types["predictions"] = np.min_scalar_type(log.num_classes - 1)
        types["offsets"] = np.int64
    for name, dtype in types.items():
        arr = getattr(log, name)
        assert not arr.flags.writeable and arr.dtype == dtype, name


@pytest.mark.parametrize("read_path", [nullcontext, strict_path], ids=["fast", "strict"])
def test_every_parsed_log_is_read_only(small_tree, tmp_path, read_path):
    ragged = tmp_path / "ragged.jsonl"  # a log the line pattern reads
    ragged.write_text(SCAN_TEXT)
    wide = tmp_path / "wide.jsonl"  # a fixed-stride log of uint16 predictions
    write_prediction_log(dataclasses.replace(STRIDE_LOG, num_classes=300), wide)
    paths = [(parse_prediction_log, ragged), (parse_prediction_log, wide), *(
        (parse, p) for parse, folder in ((parse_prediction_log, "predictions"),
                                         (parse_prediction_log, "ablation"),
                                         (parse_score_log, "scores"))
        for p in sorted((small_tree / folder).glob("*.jsonl")))]
    with read_path():
        logs = [parse(p) for parse, p in paths]
    for log in logs:
        assert_read_only(log)
        if isinstance(log, NeighborhoodPredictionLog):
            assert_read_only(subsample_examples(log, 2, seed=0))
            assert_read_only(truncate_neighborhood(log, 1))


class TestBenchCounters:
    """The benchmark's tracer counts ``len(log.examples)`` of a prediction log
    and ``len(log.entries)`` of a score log: each is the log's number of
    examples, on either read path."""

    @pytest.mark.parametrize("read_path", [scan_only, strict_path], ids=["fast", "strict"])
    def test_prediction_log_examples(self, small_tree, read_path):
        path = sorted((small_tree / "predictions").glob("*.jsonl"))[0]
        with read_path():
            log = parse_prediction_log(path)
        m = len(log.example_ids)
        assert m >= 2
        for each in (log, subsample_examples(log, m // 2, seed=0),
                     truncate_neighborhood(log, 1)):
            assert len(each.examples) == len(each.example_ids)

    @pytest.mark.parametrize("read_path", [scan_only, strict_path], ids=["fast", "strict"])
    def test_score_log_entries(self, small_tree, read_path):
        path = sorted((small_tree / "scores").glob("*.jsonl"))[0]
        with read_path():
            log = parse_score_log(path)
        assert len(log.example_ids) >= 2
        assert len(log.entries) == len(log.example_ids)


def prediction_variants(text):
    """(old, new) edits of the prediction log ``text``, which has SCAN_TEXT's
    header and first example: each a layout the line pattern does not take, a
    value the log does not hold or, in a later line, an edit that keeps or
    breaks the fixed stride."""
    header, first, second = text.splitlines()[:3]
    return [
        ("[0,1,2]", "[0, 1, 2]"),
        (first, '{"example_id":"ex0","base_prediction":1,'
                '"neighborhood_predictions":[0,1,2],"true_label":0}'),
        ("[0,1,2]", "[0,01,2]"),
        ("[0,1,2]", "[0,1.0,2]"),
        ("[0,1,2]", "[0,true,2]"),
        ("[0,1,2]", "[0,,2]"),
        ("[0,1,2]", "[0,1,2,]"),
        ("[0,1,2]", "[,0,1,2]"),
        ('"ex1"', '"\\u0065x1"'),
        ('"ex1"', '"ex\t1"'),
        ('"ex1"', '"ex\x7f1"'),
        ('"ex1"', '"ex\u00e91"'),
        ("\n", "\r\n"),
        (first + "\n", first + "\n\n"),
        ("[0,1,2]", "[0,12345678901234567890,2]"),
        ("[0,1,2]", "[0,1234567890123456789,2]"),
        ('"true_label":0', '"true_label":9999999999999999999'),
        ('"true_label":0', '"true_label":00'),
        ('"num_classes":3', '"num_classes":3.0'),
        ('"num_classes":3', '"num_classes":true'),
        ("[0,1,2]", "[0,3,2]"),
        ('"true_label":0', '"true_label":3'),
        ('"base_prediction":1', '"base_prediction":-1'),
        ("[0,1,2]", "[]"),
        ('"ex3"', '"ex[3]"'),
        ('"ex3"', '"ex,3"'),
        ('"ex1"', '"ex7"'),
        ('"ex1"', '"exq"'),
        ('"ex1"', '"ex11"'),
        ("[0,2,2", "[0,222"),
        *(('"base_prediction":2,"example_id":"ex1"', new) for new in (
            '"base_prediction":/,"example_id":"ex1"', '"base_prediction"::,"example_id":"ex1"',
            '"base_prediction":27"example_id":"ex1"')),
        ('"ex1"', '"ex/"'),
        ('"ex1"', '"ex:"'),
        *whitespace_variants(header, second),
    ]


PREDICTION_VARIANT_IDS = [
    "spaces", "key_order", "leading_zero", "float", "boolean", "empty_token",
    "trailing_comma", "leading_comma", "escaped_id", "control_char_in_id",
    "del_in_id", "non_ascii_id", "crlf", "blank_line", "20_digits", "19_digits",
    "int64_overflow_label", "leading_zero_label", "float_num_classes",
    "boolean_num_classes", "prediction_out_of_range", "true_label_out_of_range",
    "negative_base", "empty_neighborhood", "bracket_in_id", "comma_in_id",
    "digit_in_id", "letter_for_id_digit", "longer_id", "merged_predictions",
    "slash_for_label_digit", "colon_for_label_digit", "digit_for_comma",
    "slash_for_id_digit", "colon_for_id_digit", *WHITESPACE_IDS,
]


class TestPredictionLogScan:
    """A canonical log is read as a byte matrix or by the line pattern; every
    other file gives what the JSON decode of each line gives, a log or its
    SchemaError."""

    def test_canonical_log_takes_the_scan(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(SCAN_TEXT)
        with scan_only():
            assert parse_prediction_log(path) == SCAN_LOG

    @pytest.mark.parametrize("header, log", [
        (serialize_prediction_log(ESCAPED_HEADER_LOG).splitlines()[0], ESCAPED_HEADER_LOG),
        (SCAN_HEADER.replace(",", ", "), SCAN_LOG),
        (json.dumps(dict(reversed(json.loads(SCAN_HEADER).items()))), SCAN_LOG),
        (SCAN_HEADER + "\r", SCAN_LOG),
    ], ids=["escaped", "spaced", "unsorted", "crlf"])
    def test_any_header_layout_takes_the_scan(self, tmp_path, header, log):
        path = tmp_path / "log.jsonl"
        path.write_text(header + SCAN_TEXT[len(SCAN_HEADER):], newline="")
        with scan_only():
            assert parse_prediction_log(path) == log

    @pytest.mark.parametrize("text, old, new", [
        pytest.param(text, old, new, id=case + suffix)
        for text, suffix in ((SCAN_TEXT, ""), (STRIDE_TEXT, "-fixed_stride"))
        for case, (old, new) in zip(PREDICTION_VARIANT_IDS, prediction_variants(text),
                                    strict=True)
    ])
    def test_variant_gives_the_strict_outcome(self, tmp_path, text, old, new):
        check_variant(tmp_path, parse_prediction_log, text, old, new)

    @pytest.mark.parametrize("new", ["[0,,,2]", "[,]", "[,,,]"])
    def test_empty_tokens_give_the_strict_outcome_with_many_classes(self, tmp_path, new):
        # A comma read as a digit would be 252, a class of a log with more
        # than 252 classes.
        text = SCAN_TEXT.replace('"num_classes":3', '"num_classes":300')
        check_variant(tmp_path, parse_prediction_log, text, "[0,1,2]", new)

    @pytest.mark.parametrize("new", ["[2,/,1]", "[2,:,1]", "[2,221]", "[2,2,1 "])
    def test_boundary_bytes_give_the_strict_outcome_with_many_classes(self, tmp_path, new):
        # With 300 classes a ":" read as a digit would be class 10, and "[2,221]"
        # read at the first line's columns would be [2, 2, 1].
        text = STRIDE_TEXT.replace('"num_classes":3', '"num_classes":300')
        check_variant(tmp_path, parse_prediction_log, text, "[2,2,1]", new)

    @pytest.mark.parametrize("text", [
        SCAN_TEXT.replace(",", ", "),
        SCAN_TEXT.replace("\n", "\r\n"),
        mixed_endings(SCAN_TEXT),
        SCAN_TEXT.replace('"ex1"', '"\\u0065x1"'),
    ], ids=["spaced", "crlf", "lf_then_crlf", "escaped_id"])
    def test_other_layouts_take_the_strict_decode(self, tmp_path, text):
        path = tmp_path / "log.jsonl"
        path.write_text(text, newline="")
        assert ingest._scan_prediction_log(path, path.read_bytes()) is None
        assert parse_prediction_log(path) == SCAN_LOG

    def test_missing_final_newline_gives_the_strict_outcome(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(SCAN_TEXT[:-1])
        assert parse_prediction_log(path) == SCAN_LOG

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(at=st.integers(0, 10**6), cut=st.integers(0, 2),
           insert=st.sampled_from([b"", b"0", b"1", b"9", b",", b"[", b"]", b"{", b"}", b'"',
                                   b"\\", b"\n", b" ", b"x", b"-", b"\xff"]))
    @pytest.mark.parametrize("text", [SCAN_TEXT, STRIDE_TEXT], ids=["ragged", "fixed_stride"])
    def test_changed_bytes_give_the_strict_outcome(self, tmp_path, text, at, cut, insert):
        check_byte_edit(tmp_path, parse_prediction_log, text, at % (len(text) + 1), cut, insert)

    @pytest.mark.parametrize("log", [
        STRIDE_LOG,
        log_from_rows(NeighborhoodPredictionLog, [ExampleEntry("", (0, 1, 2), true_label=0)],
                      model_id="m", test_domain="d", num_classes=3),
        dataclasses.replace(STRIDE_LOG, example_ids=("x1", "x9", "x0", "x2"), num_classes=300),
        dataclasses.replace(STRIDE_LOG, true_labels=np.full(4, -1)),
        dataclasses.replace(STRIDE_LOG, true_labels=np.full(4, -1),
                            base_predictions=np.full(4, -1)),
        log_from_rows(NeighborhoodPredictionLog, [ExampleEntry("x", (9,))], model_id="m",
                      test_domain="d", num_classes=10),
    ], ids=["synth_form", "empty_ids", "uint16_predictions", "no_true_labels", "no_labels",
            "one_line"])
    def test_fixed_stride_log_is_read_without_the_pattern_pass(self, tmp_path, log):
        path = tmp_path / "log.jsonl"
        write_prediction_log(log, path)
        with scan_only(), matrix_only():
            assert parse_prediction_log(path) == log

    def test_a_ragged_log_takes_the_pattern_pass(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(SCAN_TEXT)
        with matrix_only(), pytest.raises(AssertionError, match="findall"):
            parse_prediction_log(path)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), k=st.sampled_from([2, 3, 10, 300]), m=st.integers(1, 12),
           n=st.integers(1, 6), prefix=st.text("abz-_ .", max_size=3),
           id_digits=st.integers(0, 3), labels=st.booleans())
    def test_fixed_stride_round_trip(self, tmp_path, data, k, m, n, prefix, id_digits, labels):
        # Distinct ids of one width that differ only in their digits, as synth's do.
        m = min(m, 10**id_digits)
        ids = [prefix + "".join(map(str, d)) for d in data.draw(st.lists(
            st.lists(st.integers(0, 9), min_size=id_digits, max_size=id_digits),
            min_size=m, max_size=m, unique_by=tuple))]
        digit = st.integers(0, min(k, 10) - 1)
        label = digit if labels else st.none()
        rows = data.draw(st.lists(st.tuples(st.lists(digit, min_size=n, max_size=n), label,
                                            label), min_size=m, max_size=m))
        log = log_from_rows(
            NeighborhoodPredictionLog,
            [ExampleEntry(i, tuple(preds), true_label=true, base_prediction=base)
             for i, (preds, true, base) in zip(ids, rows)],
            model_id="m", test_domain="d", num_classes=k)
        path = tmp_path / "log.jsonl"
        write_prediction_log(log, path)
        with scan_only(), matrix_only():
            assert parse_prediction_log(path) == log

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), k=st.sampled_from([2, 11, 256, 65_537, 2**63 - 1]),
           labelled=st.booleans(),
           meta=st.sampled_from([{}, {"neighborhood": "manifold-r0.5-n10"}]))
    def test_round_trip_takes_the_scan(self, tmp_path, data, k, labelled, meta):
        value = st.one_of(st.integers(0, k - 1), st.sampled_from(
            [v for v in DIGIT_AND_DTYPE_EDGES if v < k] + [k - 1]))
        label = st.one_of(st.none(), st.integers(0, k - 1)) if labelled else st.none()
        ex_id = st.text("abcxyz019-_ ,.:", max_size=8)
        examples = data.draw(st.lists(
            st.tuples(ex_id, st.lists(value, min_size=1, max_size=15), label, label),
            max_size=12, unique_by=lambda example: example[0]))
        log = log_from_rows(
            NeighborhoodPredictionLog,
            [ExampleEntry(i, tuple(preds), true_label=true, base_prediction=base)
             for i, preds, true, base in examples],
            model_id="m", test_domain="d", num_classes=k, meta=meta)
        path = tmp_path / "log.jsonl"
        write_prediction_log(log, path)
        with scan_only():
            assert parse_prediction_log(path) == log


# (old, new, message): an id fault of the fourth line (ex2's) of a log, and
# its message.
ID_FAULTS = {
    "duplicate": ('"ex2"', '"ex0"', "example 'ex0': duplicate example_id"),
    "not_a_string": ('"example_id":"ex2"', '"example_id":2',
                     "field 'example_id' has wrong type"),
}
# (text, old, new): a valid log of each fast read, and a prediction fault of
# its fourth line.
READS = {"stride": (STRIDE_TEXT, "[1,1,0]", "[1,1,3]"),
         "pattern": (SCAN_TEXT, "[1,1]", "[1,3]")}


def renamed_ids(text):
    """``text`` with the ids ex0..ex3 renamed ey0..ey3, of the same width."""
    for i in range(4):
        text = text.replace(f'"ex{i}"', f'"ey{i}"')
    return text


class TestIdsCheckedOnce:
    """A log's constructor checks a tuple of ids once: the ids of a built log,
    a subsequence of them, and the ids of a fixed-stride read whose id column
    is byte-equal to that of the last log that read accepted are taken as
    they are. Every fault is still named as before."""

    @pytest.mark.parametrize("after_valid", [False, True], ids=["first", "after_valid"])
    @pytest.mark.parametrize("fault", [*ID_FAULTS, "prediction"])
    @pytest.mark.parametrize("read, strict", [("stride", False), ("pattern", False),
                                              ("stride", True)],
                             ids=["stride", "pattern", "strict"])
    def test_a_fault_keeps_its_message_and_line(self, tmp_path, read, strict, fault,
                                                after_valid):
        text, old, new = READS[read]
        message = "example 'ex2': prediction 3 out of range [0, 3)"
        if fault != "prediction":
            old, new, message = ID_FAULTS[fault]
        valid, faulty = tmp_path / "valid.jsonl", tmp_path / "faulty.jsonl"
        valid.write_text(text)
        faulty.write_text(text.replace(old, new))
        assert text.replace(old, new).count("\n") == text.count("\n")
        with strict_path() if strict else nullcontext():
            if after_valid:
                # A log of the same id width, or of the very same ids.
                assert parse_prediction_log(valid) == parse_prediction_log(valid)
            with pytest.raises(SchemaError) as exc:
                parse_prediction_log(faulty)
        assert (str(exc.value), exc.value.line) == (f"{faulty}:4: {message}", 4)

    @pytest.mark.parametrize("cls, fields, noun", [
        (NeighborhoodPredictionLog,
         dict(model_id="m", test_domain="d", num_classes=2, predictions=[0, 1, 1],
              lengths=[2, 1], true_labels=[1, -1], base_predictions=[-1, 0]), "example"),
        (ScoreLog,
         dict(model_id="m", domain="d", split="test", predicted_labels=[0, 1],
              max_confidence=[0.5, 0.75], neg_entropy=[-0.5, -0.25], true_labels=[1, -1],
              num_classes=2), "entry"),
    ], ids=["prediction_log", "score_log"])
    @pytest.mark.parametrize("container", [tuple, list])
    def test_constructors_check_new_ids(self, cls, fields, noun, container):
        valid = cls(example_ids=container(["a", "b"]), **fields)
        assert valid.example_ids == ("a", "b") and type(valid.example_ids) is ingest._CheckedIds
        for ids, message in [(["b", "b"], f"{noun} 'b': duplicate example_id"),
                             (["a", 2], "example ids must be strings")]:
            with pytest.raises(SchemaError, match=message):
                cls(example_ids=container(ids), **fields)
        # A built log's ids are taken as they are; every other check stays.
        again = cls(example_ids=valid.example_ids, **fields)
        assert again.example_ids is valid.example_ids
        labels = {"true_labels": [1, 2]}
        with pytest.raises(SchemaError, match=f"{noun} 'b': true_label 2 out of range"):
            cls(**{**fields, "example_ids": valid.example_ids, **labels})

    def test_truncation_and_subsample_keep_checked_ids(self):
        log = STRIDE_LOG
        assert truncate_neighborhood(log, 2).example_ids is log.example_ids
        sub = subsample_examples(log, 2, seed=0)
        assert type(sub.example_ids) is ingest._CheckedIds
        assert set(sub.example_ids) < set(log.example_ids)
        # Ids no constructor checked stay unchecked.
        assert type(ingest.kept_ids(("a", "a"), [True, True])) is tuple

    def test_stride_logs_of_one_id_column_share_their_ids(self, tmp_path):
        paths = [tmp_path / f"{name}.jsonl" for name in ("a", "b", "c", "d")]
        other_ids = ("ey0", "ey1", "ey2", "ey3")
        for path, log in zip(paths, [
            STRIDE_LOG,
            dataclasses.replace(STRIDE_LOG, predictions=STRIDE_LOG.predictions[::-1].copy()),
            dataclasses.replace(STRIDE_LOG, example_ids=other_ids),
            dataclasses.replace(STRIDE_LOG, example_ids=other_ids, model_id="m2"),
        ]):
            write_prediction_log(log, path)
        with scan_only(), matrix_only():
            a, b, c, d = map(parse_prediction_log, paths)
        assert a.example_ids is b.example_ids
        assert c.example_ids == other_ids and c.example_ids is not a.example_ids
        assert d.example_ids is c.example_ids
        assert b.predictions.tolist() == STRIDE_LOG.predictions[::-1].tolist()

    def test_a_rejected_log_leaves_the_kept_ids(self, tmp_path):
        valid, same_ids, other_ids = (tmp_path / f"{name}.jsonl"
                                      for name in ("valid", "same", "other"))
        valid.write_text(STRIDE_TEXT)
        bad = STRIDE_TEXT.replace("[1,1,0]", "[1,1,3]")
        same_ids.write_text(bad)
        other_ids.write_text(renamed_ids(bad))
        log = parse_prediction_log(valid)
        kept = ingest._stride_ids
        assert kept[1] is log.example_ids
        for path in (same_ids, other_ids):
            with pytest.raises(SchemaError, match="prediction 3 out of range"):
                parse_prediction_log(path)
            assert ingest._stride_ids is kept
        other_ids.write_text(renamed_ids(STRIDE_TEXT))
        log = parse_prediction_log(other_ids)
        assert log.example_ids == ("ey0", "ey1", "ey2", "ey3")
        assert ingest._stride_ids[1] is log.example_ids


SCORE_SCAN_LOG = log_from_rows(
    ScoreLog,
    model_id="m",
    domain="d",
    split="validation",
    num_classes=3,
    rows=(
        ScoreEntry("ex0", 0, 0.75, -0.5, true_label=0),
        ScoreEntry("ex1", 2, 1.0, -0.0),
        ScoreEntry("ex2", 1, 0.5, -1.0986122886681098, true_label=2),
    ),
    meta={"seed": 0},
)
SCORE_SCAN_TEXT = serialize_score_log(SCORE_SCAN_LOG)
SCORE_FIRST_ENTRY = SCORE_SCAN_TEXT.splitlines()[1]
SCORE_SECOND_ENTRY = SCORE_SCAN_TEXT.splitlines()[2]

# Scores at the edges of the shortest float forms: the least subnormal, the
# switch to exponent form at both ends, and a negative zero.
FLOAT_FORM_EDGES = [5e-324, 1e-05, 1e+16, -0.0]


class TestScoreLogScan:
    """A canonical score log is read by the line pattern; every other file
    gives what the JSON decode of each line gives, a log or its SchemaError,
    down to the sign of a zero."""

    def test_canonical_log_takes_the_scan(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(SCORE_SCAN_TEXT)
        with scan_only():
            assert parse_outcome(path, parse_score_log) == (
                SCORE_SCAN_LOG, [SCORE_SCAN_LOG.max_confidence.tobytes(),
                                 SCORE_SCAN_LOG.neg_entropy.tobytes()])

    def test_log_without_num_classes_or_entries_takes_the_scan(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        for log in (dataclasses.replace(SCORE_SCAN_LOG, num_classes=None, meta={}),
                    log_from_rows(ScoreLog, (), model_id="m", domain="d", split="test")):
            write_score_log(log, path)
            with scan_only():
                assert parse_score_log(path) == log

    @pytest.mark.parametrize("old, new", [
        ('"neg_entropy":-0.0', '"neg_entropy":-0'),
        ('"neg_entropy":-0.0', '"neg_entropy":0'),
        ('"max_confidence":1.0', '"max_confidence":1'),
        ('"max_confidence":0.75', '"max_confidence":1e400'),
        ('"neg_entropy":-0.5', '"neg_entropy":-1e400'),
        ('"neg_entropy":-0.5', '"neg_entropy":-1e-400'),
        ('"max_confidence":0.75', '"max_confidence":7.5E-1'),
        ('"max_confidence":0.75', '"max_confidence":0.75e+0'),
        ('"max_confidence":0.75', '"max_confidence":00.75'),
        ('"max_confidence":0.75', '"max_confidence":.75'),
        ('"max_confidence":0.75', '"max_confidence":0.'),
        ('"max_confidence":0.75', '"max_confidence":NaN'),
        ('"max_confidence":0.75', '"max_confidence":1.5'),
        ('"max_confidence":0.75', '"max_confidence":"0.75"'),
        ('"neg_entropy":-0.5', '"neg_entropy":0.5'),
        ('"neg_entropy":-0.5', '"neg_entropy":--0.5'),
        (SCORE_FIRST_ENTRY, '{"max_confidence":0.75,"example_id":"ex0","neg_entropy":-0.5,'
                            '"predicted_label":0,"true_label":0}'),
        (',"max_confidence"', ', "max_confidence"'),
        ('"ex1"', '"\\u0065x1"'),
        ('"ex1"', '"ex\t1"'),
        ('"ex1"', '"ex\x7f1"'),
        ('"ex1"', '"ex\u00e91"'),
        ("\n", "\r\n"),
        (SCORE_FIRST_ENTRY + "\n", SCORE_FIRST_ENTRY + "\n\n"),
        ('"predicted_label":2', '"predicted_label":02'),
        ('"predicted_label":2', '"predicted_label":2.0'),
        ('"predicted_label":2', '"predicted_label":true'),
        ('"predicted_label":2', '"predicted_label":3'),
        ('"predicted_label":2', '"predicted_label":1234567890123456789'),
        ('"predicted_label":2', '"predicted_label":9999999999999999999'),
        ('"predicted_label":2', '"predicted_label":12345678901234567890'),
        ('"true_label":0', '"true_label":-1'),
        ('"true_label":0', '"true_label":null'),
        (',"predicted_label":0', ""),
        ('"split":"validation"', '"split":"train"'),
        ('"num_classes":3', '"num_classes":3.0'),
        *whitespace_variants(SCORE_SCAN_TEXT.splitlines()[0], SCORE_SECOND_ENTRY),
    ], ids=["negative_int_zero", "int_zero", "int_one", "1e400", "minus_1e400",
            "underflow_to_minus_zero", "capital_exponent", "zero_exponent", "leading_zero",
            "no_integer_part", "no_fraction_digits", "nan", "out_of_range", "string_score",
            "positive_neg_entropy", "double_minus", "key_order", "spaces", "escaped_id",
            "control_char_in_id", "del_in_id", "non_ascii_id", "crlf", "blank_line",
            "leading_zero_label", "float_label", "boolean_label", "label_out_of_range",
            "19_digits", "int64_overflow_label", "20_digits", "negative_true_label",
            "null_true_label", "missing_field", "bad_split", "float_num_classes",
            *WHITESPACE_IDS])
    def test_variant_gives_the_strict_outcome(self, tmp_path, old, new):
        check_variant(tmp_path, parse_score_log, SCORE_SCAN_TEXT, old, new)

    @pytest.mark.parametrize("log", [
        dataclasses.replace(SCORE_SCAN_LOG, true_labels=np.full(3, -1)),
        log_from_rows(ScoreLog, (
            ScoreEntry("ex0", 10, 0.5, -1.0, true_label=11),
            ScoreEntry("ex1", 11, 0.25, -2.0, true_label=10),
            ScoreEntry("ex2", 3, 0.75, -0.5),
        ), model_id="m", domain="d", split="test", num_classes=12),
    ], ids=["no_true_labels", "labels_10_and_11"])
    def test_label_columns_give_the_strict_log(self, tmp_path, log):
        path = tmp_path / "scores.jsonl"
        write_score_log(log, path)
        with scan_only():
            got = parse_outcome(path, parse_score_log)
        with strict_path():
            assert got == parse_outcome(path, parse_score_log)
        assert got[0] == log

    @pytest.mark.parametrize("text", [
        SCORE_SCAN_TEXT.replace(",", ", "),
        SCORE_SCAN_TEXT.replace("\n", "\r\n"),
        mixed_endings(SCORE_SCAN_TEXT),
        SCORE_SCAN_TEXT.replace('"ex1"', '"\\u0065x1"'),
    ], ids=["spaced", "crlf", "lf_then_crlf", "escaped_id"])
    def test_other_layouts_take_the_strict_decode(self, tmp_path, text):
        path = tmp_path / "scores.jsonl"
        path.write_text(text, newline="")
        assert ingest._scan_score_log(path, path.read_bytes()) is None
        assert parse_score_log(path) == SCORE_SCAN_LOG

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(at=st.integers(0, len(SCORE_SCAN_TEXT)), cut=st.integers(0, 2),
           insert=st.sampled_from([b"", b"0", b"1", b"9", b",", b".", b"e", b"E", b"+", b"-",
                                   b"{", b"}", b'"', b"\\", b"\n", b" ", b"x", b"\xff"]))
    def test_changed_bytes_give_the_strict_outcome(self, tmp_path, at, cut, insert):
        check_byte_edit(tmp_path, parse_score_log, SCORE_SCAN_TEXT, at, cut, insert)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), labelled=st.booleans())
    def test_round_trip_takes_the_scan(self, tmp_path, data, labelled):
        edges = st.sampled_from(FLOAT_FORM_EDGES)
        conf = st.floats(0.0, 1.0) | edges.filter(lambda v: v <= 1.0)
        negent = st.floats(max_value=0.0, allow_infinity=False) | edges.map(lambda v: -v)
        label = st.one_of(st.none(), st.integers(0, 2**63 - 1)) if labelled else st.none()
        entries = data.draw(st.lists(st.tuples(
            st.text("abcxyz019-_ ,.:", max_size=8), st.integers(0, 2**63 - 1), conf, negent,
            label), max_size=12, unique_by=lambda entry: entry[0]))
        log = log_from_rows(ScoreLog, [ScoreEntry(*entry) for entry in entries],
                            model_id="m", domain="d", split="test")
        path = tmp_path / "scores.jsonl"
        write_score_log(log, path)
        with scan_only():
            got = parse_outcome(path, parse_score_log)
        assert got == (log, [log.max_confidence.tobytes(), log.neg_entropy.tobytes()])


class TestLabelColumns:
    """``_labels`` reads a column of one-digit labels as one byte buffer and
    any other column text by text; both give each label, -1 where absent."""

    @pytest.mark.parametrize("texts, labels", [
        (("", "12"), [-1, 12]),  # its joined length equals its count
        (("12", ""), [12, -1]),
        (("0", "9", "5", "1"), [0, 9, 5, 1]),
        (("0", "10", "3"), [0, 10, 3]),
        (("", "", ""), [-1, -1, -1]),
        ((), []),
        (("9223372036854775807", "0"), [2**63 - 1, 0]),
    ], ids=["absent_then_two_digits", "two_digits_then_absent", "one_digit", "mixed_widths",
            "all_absent", "empty", "int64_max"])
    def test_labels(self, texts, labels):
        got = ingest._labels(texts)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == labels

    @pytest.mark.parametrize("texts", [("1", "12345678901234567890"), ("9223372036854775808",)],
                             ids=["20_digits", "int64_max_plus_one"])
    def test_labels_beyond_int64_give_none(self, texts):
        assert ingest._labels(texts) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(""), st.integers(0, 9).map(str),
                              st.integers(0, 2**63 - 1).map(str)), max_size=8))
    def test_any_column(self, texts):
        assert ingest._labels(tuple(texts)).tolist() == [int(t) if t else -1 for t in texts]


class TestScoreLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_log(SCORE_LOG, path)
        assert parse_score_log(path) == SCORE_LOG

    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_log(SCORE_LOG, path)
        assert path.read_bytes() == serialize_score_log(
            parse_score_log(path)).encode()

    def test_split_validated(self):
        with pytest.raises(SchemaError):
            log_from_rows(ScoreLog, (), model_id="m", domain="d", split="train")

    def test_confidence_below_uniform_rejected(self):
        # with k classes the softmax max cannot drop under 1/k
        with pytest.raises(SchemaError, match="max_confidence"):
            log_from_rows(ScoreLog, (ScoreEntry("e", 0, 0.2, -0.5),),
                          model_id="m", domain="d", split="test", num_classes=4)

    def test_neg_entropy_range_rejected(self):
        with pytest.raises(SchemaError, match="neg_entropy"):
            log_from_rows(ScoreLog, (ScoreEntry("e", 0, 0.9, -5.0),),
                          model_id="m", domain="d", split="test", num_classes=2)

    def test_positive_neg_entropy_rejected(self):
        with pytest.raises(SchemaError, match="neg_entropy"):
            log_from_rows(ScoreLog, (ScoreEntry("e", 0, 0.9, 0.5),),
                          model_id="m", domain="d", split="test")

    def test_no_num_classes_skips_range_check(self):
        log = log_from_rows(ScoreLog, (ScoreEntry("e", 7, 0.2, -5.0),),
                            model_id="m", domain="d", split="test")
        assert log.num_classes is None


def write_score_lines(path, entries, **header_fields):
    header = {"type": "score_log", "model_id": "m", "domain": "d", "split": "test",
              "num_classes": 3, **header_fields}
    path.write_text(render_lines([header, *entries]))


GOOD_ENTRY = {"example_id": "ex0", "predicted_label": 1, "max_confidence": 0.75,
              "neg_entropy": -0.5, "true_label": 1}


class TestScoreLogTypes:
    @pytest.mark.parametrize("field, value, message", [
        ("predicted_label", True, "wrong type"),
        ("predicted_label", 1.0, "wrong type"),
        ("predicted_label", "1", "wrong type"),
        ("predicted_label", None, "wrong type"),
        ("predicted_label", -1, "out of range"),
        ("predicted_label", 3, "out of range"),
        ("predicted_label", 10**30, "out of range"),
        ("true_label", True, "not an integer"),
        ("true_label", 1.0, "not an integer"),
        ("true_label", "x", "not an integer"),
        ("true_label", [1], "not an integer"),
        ("true_label", -1, "out of range"),
        ("true_label", 3, "out of range"),
        ("max_confidence", True, "wrong type"),
        ("max_confidence", "0.5", "wrong type"),
        ("max_confidence", math.nan, "out of range"),
        ("max_confidence", math.inf, "out of range"),
        ("max_confidence", 1.5, "out of range"),
        ("max_confidence", 0.2, "out of range"),  # below 1/k
        ("max_confidence", 10**400, "out of range"),
        ("neg_entropy", False, "wrong type"),
        ("neg_entropy", math.nan, "out of range"),
        ("neg_entropy", -math.inf, "out of range"),
        ("neg_entropy", 0.5, "out of range"),
        ("neg_entropy", -(10**400), "out of range"),
        ("example_id", 5, "wrong type"),
    ])
    def test_bad_value_names_path_and_line(self, tmp_path, field, value, message):
        path = tmp_path / "scores.jsonl"
        write_score_lines(path, [GOOD_ENTRY, {**GOOD_ENTRY, "example_id": "ex1"},
                                 {**GOOD_ENTRY, "example_id": "ex2", field: value}])
        with pytest.raises(SchemaError, match=message) as exc:
            parse_score_log(path)
        assert (exc.value.path, exc.value.line) == (path, 4)
        assert str(exc.value).startswith(f"{path}:4: ")

    @pytest.mark.parametrize("range_fault, range_message", [
        ({"max_confidence": 1.5}, "max_confidence 1.5 out of range"),
        ({"predicted_label": 3}, "predicted_label 3 out of range"),
        ({"predicted_label": -1}, "predicted_label -1 out of range"),
        ({"neg_entropy": -(10**400)}, "neg_entropy -1000* out of range"),
    ])
    @pytest.mark.parametrize("type_fault, type_message", [
        ({"true_label": "x"}, "not an integer"),
        ({"predicted_label": True}, "wrong type"),
        ({"max_confidence": "0.5"}, "wrong type"),
        ("{not json", "malformed JSON"),
    ])
    @pytest.mark.parametrize("range_first", [True, False], ids=["range_first", "type_first"])
    def test_first_faulty_line_is_named(self, tmp_path, range_fault, range_message,
                                        type_fault, type_message, range_first):
        path = tmp_path / "scores.jsonl"
        faults = [(range_fault, range_message), (type_fault, type_message)]
        if not range_first:
            faults.reverse()
        write_faulty_lines(path, write_score_lines, GOOD_ENTRY, [f for f, _ in faults])
        with pytest.raises(SchemaError, match=faults[0][1]) as exc:
            parse_score_log(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("range_first", [True, False], ids=["range_first", "type_first"])
    def test_first_faulty_line_of_a_long_log_is_named(self, tmp_path, range_first):
        path = tmp_path / "scores.jsonl"
        faults = [({"max_confidence": 1.5}, "max_confidence 1.5 out of range"),
                  ({"true_label": "x"}, "true_label 'x' is not an integer")]
        if not range_first:
            faults.reverse()
        entries = [{**GOOD_ENTRY, "example_id": f"ex{i}"} for i in range(1000)]
        entries[700].update(faults[0][0])
        entries[900].update(faults[1][0])
        write_score_lines(path, entries)
        with pytest.raises(SchemaError, match=f"'ex700': {faults[0][1]}") as exc:
            parse_score_log(path)
        assert exc.value.line == 702  # the header, then entries 0 to 700

    @pytest.mark.parametrize("field", [
        "example_id", "predicted_label", "max_confidence", "neg_entropy"])
    def test_missing_field_names_path_and_line(self, tmp_path, field):
        path = tmp_path / "scores.jsonl"
        entry = {k: v for k, v in GOOD_ENTRY.items() if k != field}
        write_score_lines(path, [GOOD_ENTRY, entry])
        with pytest.raises(SchemaError, match="missing required field") as exc:
            parse_score_log(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("field, value, message", [
        ("num_classes", True, "num_classes"),
        ("num_classes", "3", "num_classes"),
        ("num_classes", 1, "num_classes"),
        ("num_classes", 2**64, "num_classes"),
        ("split", "train", "split"),
        ("meta", [1], "meta"),
        ("model_id", None, "model_id"),
    ])
    def test_bad_header_names_line_one(self, tmp_path, field, value, message):
        path = tmp_path / "scores.jsonl"
        write_score_lines(path, [GOOD_ENTRY], **{field: value})
        with pytest.raises(SchemaError, match=message) as exc:
            parse_score_log(path)
        assert (exc.value.path, exc.value.line) == (path, 1)

    def test_boolean_and_float_labels_do_not_count_as_correct(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_lines(path, [{**GOOD_ENTRY, "predicted_label": True, "true_label": 1.0}])
        with pytest.raises(SchemaError, match="predicted_label"):
            parse_score_log(path)

    def test_absent_and_null_true_labels_are_missing(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        entry = {k: v for k, v in GOOD_ENTRY.items() if k != "true_label"}
        write_score_lines(path, [entry, {**entry, "example_id": "ex1", "true_label": None}])
        log = parse_score_log(path)
        assert log.true_labels.tolist() == [-1, -1]
        with pytest.raises(SchemaError, match="missing true_label"):
            atc_fit(log, "max_confidence")


PREDICTION_ROW = {"base_prediction": 1, "example_id": "ex", "neighborhood_predictions": [0, 1, 2],
                  "true_label": 0}
SCORE_ROW = {"example_id": "ex", "max_confidence": 0.75, "neg_entropy": -0.5,
             "predicted_label": 1, "true_label": 1}
DROP = object()  # a field value that leaves the field out

# (log type, fields changed in the third entry, ex2, the message of its fault).
# The fourth entry holds a fault as well, so the message is also the first.
STRICT_FAULTS = {
    "missing_list": ("prediction", {"neighborhood_predictions": DROP},
                     "missing required field 'neighborhood_predictions'"),
    "missing_id": ("prediction", {"example_id": DROP}, "missing required field 'example_id'"),
    "container_object": ("prediction", {"neighborhood_predictions": {"0": 1}},
                         "field 'neighborhood_predictions' has wrong type"),
    "container_string": ("prediction", {"neighborhood_predictions": "01"},
                         "field 'neighborhood_predictions' has wrong type"),
    "float_prediction": ("prediction", {"neighborhood_predictions": [0, 1.5]},
                         "example 'ex2': prediction 1.5 is not an integer"),
    "boolean_prediction": ("prediction", {"neighborhood_predictions": [True]},
                           "example 'ex2': prediction True is not an integer"),
    "boolean_true_label": ("prediction", {"true_label": True},
                           "example 'ex2': true_label True is not an integer"),
    "float_base": ("prediction", {"base_prediction": 0.5},
                   "example 'ex2': base_prediction 0.5 is not an integer"),
    "negative_prediction": ("prediction", {"neighborhood_predictions": [0, -1]},
                            "example 'ex2': prediction -1 out of range [0, 3)"),
    "negative_base": ("prediction", {"base_prediction": -2},
                      "example 'ex2': base_prediction -2 out of range [0, 3)"),
    "huge_prediction": ("prediction", {"neighborhood_predictions": [2**63]},
                        f"example 'ex2': prediction {2**63} out of range [0, 3)"),
    "huge_true_label": ("prediction", {"true_label": 2**64},
                        f"example 'ex2': true_label {2**64} out of range [0, 3)"),
    "empty_neighborhood": ("prediction", {"neighborhood_predictions": []},
                           "example 'ex2': empty neighborhood_predictions"),
    "prediction_range": ("prediction", {"neighborhood_predictions": [0, 3]},
                         "example 'ex2': prediction 3 out of range [0, 3)"),
    "true_label_range": ("prediction", {"true_label": 3},
                         "example 'ex2': true_label 3 out of range [0, 3)"),
    "type_before_label": ("prediction", {"neighborhood_predictions": [0, 1.5],
                                         "true_label": "x"},
                          "example 'ex2': prediction 1.5 is not an integer"),
    "empty_before_label": ("prediction", {"neighborhood_predictions": [], "true_label": 3},
                           "example 'ex2': empty neighborhood_predictions"),
    "missing_score": ("score", {"max_confidence": DROP},
                      "missing required field 'max_confidence'"),
    "string_label": ("score", {"predicted_label": "1"},
                     "field 'predicted_label' has wrong type"),
    "boolean_label": ("score", {"predicted_label": True},
                      "field 'predicted_label' has wrong type"),
    "list_score": ("score", {"neg_entropy": [0]}, "field 'neg_entropy' has wrong type"),
    "float_true_label": ("score", {"true_label": 1.5},
                         "entry 'ex2': true_label 1.5 is not an integer"),
    "boolean_true_label_score": ("score", {"true_label": False},
                                 "entry 'ex2': true_label False is not an integer"),
    "negative_label": ("score", {"predicted_label": -1},
                       "entry 'ex2': predicted_label -1 out of range [0, 3)"),
    "negative_true_label": ("score", {"true_label": -1},
                            "entry 'ex2': true_label -1 out of range [0, 3)"),
    "huge_label": ("score", {"predicted_label": 2**63},
                   f"entry 'ex2': predicted_label {2**63} out of range [0, 3)"),
    "integer_score_overflow": ("score", {"max_confidence": 10**400},
                               f"entry 'ex2': max_confidence {10**400} out of range"),
    "negative_integer_score_overflow": ("score", {"neg_entropy": -(10**400)},
                                        f"entry 'ex2': neg_entropy {-(10**400)} out of range"),
    "confidence_range": ("score", {"max_confidence": 1.5},
                         "entry 'ex2': max_confidence 1.5 out of range"),
    "nan_confidence": ("score", {"max_confidence": math.nan},
                       "entry 'ex2': max_confidence nan out of range"),
    "entropy_range": ("score", {"neg_entropy": 0.5},
                      "entry 'ex2': neg_entropy 0.5 out of range"),
    "label_range": ("score", {"predicted_label": 3},
                    "entry 'ex2': predicted_label 3 out of range [0, 3)"),
    "label_before_true_label": ("score", {"predicted_label": 2**63, "true_label": 1.5},
                                f"entry 'ex2': predicted_label {2**63} out of range [0, 3)"),
    "confidence_before_label": ("score", {"max_confidence": 1.5, "predicted_label": 3},
                                "entry 'ex2': max_confidence 1.5 out of range"),
}


class TestStrictDecodeMessages:
    """The full error of each fault kind the strict decode finds, in the
    writers' layout and in a spaced one: the message names the entry's id
    where a value is at fault, and the error names the entry's line."""

    @pytest.mark.parametrize("layout", ["canonical", "spaced"])
    @pytest.mark.parametrize("fault", sorted(STRICT_FAULTS))
    def test_message_and_line(self, tmp_path, fault, layout):
        kind, change, message = STRICT_FAULTS[fault]
        if kind == "prediction":
            header = {"type": "prediction_log", "model_id": "m", "test_domain": "d",
                      "num_classes": 3}
            row, parse, later_fault = PREDICTION_ROW, parse_prediction_log, {"true_label": 7}
        else:
            header = {"type": "score_log", "model_id": "m", "domain": "d", "split": "test",
                      "num_classes": 3}
            row, parse, later_fault = SCORE_ROW, parse_score_log, {"neg_entropy": 1.0}
        entries = [{**row, "example_id": f"ex{i}"} for i in range(5)]
        entries[2].update(change)
        entries[3].update(later_fault)
        entries[2] = {k: v for k, v in entries[2].items() if v is not DROP}
        separators = (",", ":") if layout == "canonical" else (", ", ": ")
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(obj, sort_keys=True, separators=separators) + "\n"
                                for obj in [header, *entries]))
        with pytest.raises(SchemaError) as exc:
            parse(path)
        assert (str(exc.value), exc.value.path, exc.value.line) == (
            f"{path}:4: {message}", path, 4)


ODD_SCORE_LOG = log_from_rows(
    ScoreLog,
    model_id="mé",
    domain="d1",
    split="validation",
    num_classes=4,
    rows=(
        ScoreEntry("ex0", 3, 1.0, -0.0, true_label=0),
        ScoreEntry('odd "id"\\\né', 0, 0.25, -math.log(4), true_label=3),
        ScoreEntry("ex2", 2, 0.9999999999999999, -1e-300),
        ScoreEntry("ex3", 1, 1 / 3, -1.2345678901234567e-5, true_label=1),
    ),
    meta={"seed": 0},
)


class TestScoreLogArrays:
    @pytest.mark.parametrize("log", [SCORE_LOG, ODD_SCORE_LOG], ids=["plain", "odd"])
    def test_template_matches_sorted_json(self, log):
        header = {"type": "score_log", "model_id": log.model_id, "domain": log.domain,
                  "split": log.split, "num_classes": log.num_classes}
        if log.meta:
            header["meta"] = log.meta
        entries = [
            {k: v for k, v in vars(e).items() if v is not None} for e in log_rows(log)
        ]
        expected = "".join(dumps_sorted(o) + "\n" for o in [header, *entries])
        assert serialize_score_log(log) == expected

    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_log(ODD_SCORE_LOG, path)
        parsed = parse_score_log(path)
        assert parsed == ODD_SCORE_LOG
        assert path.read_bytes() == serialize_score_log(parsed).encode()
        assert math.copysign(1.0, parsed.neg_entropy[0]) == -1.0

    def test_arrays_and_entries(self):
        log = ODD_SCORE_LOG
        assert log.predicted_labels.dtype == np.int64
        assert log.max_confidence.dtype == np.float64
        assert log.true_labels.tolist() == [0, 3, -1, 1]
        assert len(log.example_ids) == 4
        assert log_rows(log)[-1] == ScoreEntry("ex3", 1, 1 / 3, -1.2345678901234567e-5, 1)

    def test_arrays_are_read_only_copies(self):
        conf = np.array([0.5, 0.75])
        log = ScoreLog(
            model_id="m", domain="d", split="test", example_ids=("a", "b"),
            predicted_labels=[0, 1], max_confidence=conf, neg_entropy=[-0.5, -0.25],
            true_labels=[1, -1], num_classes=2)
        conf[0] = 0.9
        assert log.max_confidence.tolist() == [0.5, 0.75]
        with pytest.raises(ValueError):
            log.max_confidence[0] = 0.9

    def test_read_only_arrays_of_the_final_types_are_kept(self):
        arrays = [ingest.read_only(np.array(values, dtype=dtype)) for values, dtype in (
            ([0, 1], np.int64), ([0.5, 0.75], np.float64), ([-0.5, -0.25], np.float64),
            ([1, -1], np.int64))]
        log = ScoreLog("m", "d", "test", ("a", "b"), *arrays, num_classes=2)
        assert all(getattr(log, name) is arr
                   for name, arr in zip(ingest._SCORE_ARRAYS, arrays))

    @pytest.mark.parametrize("change, message", [
        ({"predicted_labels": [0.0, 1.0]}, "predicted_labels must be"),
        ({"true_labels": [1]}, "true_labels must be"),
        ({"max_confidence": [[0.5, 0.5]]}, "max_confidence must be"),
        ({"true_labels": [1, -2]}, "entry 'b': true_label -2 out of range"),
        ({"predicted_labels": [0, 2]}, "entry 'b': predicted_label 2 out of range"),
        ({"neg_entropy": [np.nan, -0.5]}, "entry 'a': neg_entropy nan out of range"),
        ({"example_ids": ("a", 2)}, "strings"),
        ({"example_ids": ("a", "a")}, "entry 'a': duplicate example_id"),
        ({"example_ids": ("a", "a"), "predicted_labels": [0, 2]},
         "entry 'a': predicted_label 2 out of range"),
    ])
    def test_array_validation(self, change, message):
        fields = dict(model_id="m", domain="d", split="test", example_ids=("a", "b"),
                      predicted_labels=[0, 1], max_confidence=[0.5, 0.75],
                      neg_entropy=[-0.5, -0.25], true_labels=[1, -1], num_classes=2)
        with pytest.raises(SchemaError, match=message):
            ScoreLog(**{**fields, **change})


class TestWeightDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        dump = WeightDump(
            model_id="d0-c000",
            layers=(rng.normal(size=(2, 8)), rng.normal(size=(8, 3))),
        )
        path = tmp_path / "w.bin"
        write_weight_dump(dump, path)
        back = read_weight_dump(path)
        assert back.model_id == dump.model_id
        assert len(back.layers) == 2
        for a, b in zip(back.layers, dump.layers):
            assert np.array_equal(a, b)

    def test_round_trip_is_byte_identical(self, tmp_path):
        dump = WeightDump(model_id="m", layers=(np.eye(3),))
        path = tmp_path / "w.bin"
        write_weight_dump(dump, path)
        assert path.read_bytes() == serialize_weight_dump(read_weight_dump(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(SchemaError, match="magic"):
            read_weight_dump(path)

    def test_truncated(self, tmp_path):
        dump = WeightDump(model_id="m", layers=(np.eye(3),))
        path = tmp_path / "w.bin"
        path.write_bytes(serialize_weight_dump(dump)[:-4])
        with pytest.raises(SchemaError, match="truncated"):
            read_weight_dump(path)

    def test_trailing_bytes(self, tmp_path):
        dump = WeightDump(model_id="m", layers=(np.eye(3),))
        path = tmp_path / "w.bin"
        path.write_bytes(serialize_weight_dump(dump) + b"\x00")
        with pytest.raises(SchemaError, match="trailing"):
            read_weight_dump(path)

    def test_validation(self):
        with pytest.raises(SchemaError):
            WeightDump(model_id="m", layers=())
        with pytest.raises(SchemaError):
            WeightDump(model_id="m", layers=(np.ones(3),))
        with pytest.raises(SchemaError):
            WeightDump(model_id="m", layers=(np.array([[np.nan]]),))


class TestComputeAccuracy:
    def test_prediction_log(self):
        assert compute_accuracy(PRED_LOG) == 0.5

    def test_missing_label_rejected(self):
        log = log_from_rows(NeighborhoodPredictionLog, (ExampleEntry("e", (0,)),),
                            model_id="m", test_domain="d", num_classes=2)
        with pytest.raises(SchemaError, match="missing label"):
            compute_accuracy(log)


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(10**30), 10**30)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
OUT_OF_RANGE = st.sampled_from(
    [-1, 0, 1, 2, 3, 2**63, 2**64, 10**400, -(10**400), -0.0, 1e308, math.nan, math.inf,
     -math.inf]
) | st.integers() | st.floats()

VALID_PREDICTION_LINES = [
    {"type": "prediction_log", "model_id": "m", "test_domain": "d", "num_classes": 3,
     "meta": {"neighborhood": "manifold-r0.5-n3"}},
    {"example_id": "ex0", "neighborhood_predictions": [0, 1, 1], "true_label": 0,
     "base_prediction": 1},
    {"example_id": "ex1", "neighborhood_predictions": [2, 2, 2], "true_label": 2,
     "base_prediction": 2},
]
VALID_SCORE_LINES = [
    {"type": "score_log", "model_id": "m", "domain": "d", "split": "validation",
     "num_classes": 3, "meta": {"seed": 0}},
    {"example_id": "ex0", "predicted_label": 0, "max_confidence": 0.75,
     "neg_entropy": -0.6, "true_label": 0},
    {"example_id": "ex1", "predicted_label": 2, "max_confidence": 0.5,
     "neg_entropy": -1.0, "true_label": 1},
]


@st.composite
def one_field_mutation(draw, lines):
    """The bytes of a valid log with one line changed in one field: a value of
    another type, a missing key, an out-of-range value or broken JSON."""
    texts = [json.dumps(obj) for obj in lines]
    i = draw(st.integers(0, len(lines) - 1))
    obj = dict(lines[i])
    key = draw(st.sampled_from(sorted(obj)))
    kind = draw(st.sampled_from(["type", "missing", "range", "broken json", "bad utf-8"]))
    if kind == "type":
        obj[key] = draw(JSON_VALUES)
    elif kind == "missing":
        del obj[key]
    elif kind == "range":
        value = draw(OUT_OF_RANGE)
        if isinstance(obj[key], list):
            obj[key] = [*obj[key][:-1], value]
        else:
            obj[key] = value
    if kind in ("type", "missing", "range"):
        texts[i] = json.dumps(obj)
    data = [t.encode() for t in texts]
    if kind in ("broken json", "bad utf-8"):
        cut = draw(st.integers(0, len(data[i])))
        insert = draw(st.sampled_from([b"", b"{", b"}", b"]", b",", b'"', b"x"]))
        if kind == "bad utf-8":
            insert = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        data[i] = data[i][:cut] + insert + data[i][cut + 1:]
    return b"\n".join(data) + b"\n"


class TestParserFuzz:
    """A one-field change to a valid log ends in a parsed log or in a
    SchemaError naming path:line, never in another exception."""

    @pytest.mark.parametrize("parse, lines", [
        (parse_prediction_log, VALID_PREDICTION_LINES),
        (parse_score_log, VALID_SCORE_LINES),
    ], ids=["prediction_log", "score_log"])
    def test_valid_lines_parse(self, tmp_path, parse, lines):
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        assert len(parse(path).example_ids) == 2

    @staticmethod
    def check(parse, tmp_path, data):
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        try:
            parse(path)
        except SchemaError as e:
            assert e.path == path and e.line is not None, str(e)
            assert str(e).startswith(f"{path}:{e.line}: ")

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=one_field_mutation(VALID_PREDICTION_LINES))
    def test_prediction_log(self, tmp_path, data):
        self.check(parse_prediction_log, tmp_path, data)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=one_field_mutation(VALID_SCORE_LINES))
    def test_score_log(self, tmp_path, data):
        self.check(parse_score_log, tmp_path, data)


class Crash(Exception):
    pass


class HalfWriter:
    """A file that writes half of what it is given, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.flush()
        raise Crash("disk full")


WRITERS = {
    "prediction_log": lambda path: write_prediction_log(PRED_LOG, path),
    "score_log": lambda path: write_score_log(SCORE_LOG, path),
    "weight_dump": lambda path: write_weight_dump(
        WeightDump(model_id="m", layers=(np.eye(3),)), path),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("crash", ["write", "replace"])
    def test_crash_leaves_old_target_and_no_temp_file(self, tmp_path, monkeypatch,
                                                       writer, old, crash):
        target = tmp_path / "out"
        if old is not None:
            target.write_bytes(old)
        if crash == "write":
            fdopen = os.fdopen
            monkeypatch.setattr(os, "fdopen", lambda *a, **kw: HalfWriter(fdopen(*a, **kw)))
        else:
            def replace(*args):
                raise Crash("killed before the rename")
            monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(Crash):
            WRITERS[writer](target)
        monkeypatch.undo()
        if old is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == old
        assert list(tmp_path.glob(".tmp-*.part")) == []
        WRITERS[writer](target)  # and the next write goes through
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, writer, umask, mode):
        old = os.umask(umask)
        try:
            WRITERS[writer](tmp_path / "out")
            (tmp_path / "plain").write_text("")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == mode
        assert sorted(tmp_path.iterdir()) == [tmp_path / "out", tmp_path / "plain"]

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("mode", [0o640, 0o600, 0o755])
    def test_existing_file_keeps_its_mode(self, tmp_path, writer, mode):
        target = tmp_path / "out"
        target.write_bytes(b"old bytes\n")
        target.chmod(mode)
        old = os.umask(0o022)
        try:
            WRITERS[writer](target)
        finally:
            os.umask(old)
        assert target.read_bytes() != b"old bytes\n"
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_removed_file_comes_back_with_the_new_file_mode(self, tmp_path, writer):
        target = tmp_path / "out"
        old = os.umask(0o022)
        try:
            WRITERS[writer](target)
            target.chmod(0o640)
            target.unlink()
            WRITERS[writer](target)
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
