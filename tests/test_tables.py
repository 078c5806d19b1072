import pytest

from smoothgen.errors import SchemaError
from smoothgen.ingest import ModelRecord
from smoothgen.tables import (
    SCORE_COLUMNS,
    AccuracyRow,
    ScoreRow,
    build_matrix,
    read_accuracies_csv,
    read_scores_csv,
    require_complete,
    write_accuracies_csv,
    write_csv,
    write_scores_csv,
)

MANIFEST = [
    ModelRecord("d0-m0", "mlp", "d0", {}, True),
    ModelRecord("d0-m1", "mlp", "d0", {}, True),
    ModelRecord("d1-m0", "mlp", "d1", {}, True),
    ModelRecord("d1-m1", "mlp", "d1", {}, False),  # never enters the matrix
]

SCORES = [
    ScoreRow("d0-m0", "d0", "d1", "ms_x", 0.25),
    ScoreRow("d0-m1", "d0", "d1", "ms_x", 0.5),
    ScoreRow("d1-m0", "d1", "d1", "ms_x", 1.0 / 3.0),
    ScoreRow("d1-m1", "d1", "d1", "ms_x", 0.9),  # unconverged: dropped
]

ACCURACIES = [
    AccuracyRow("d0-m0", "d1", 0.7),
    AccuracyRow("d0-m1", "d1", 0.8),
    AccuracyRow("d1-m0", "d1", 0.9),
]

TABLES = {
    "scores": (read_scores_csv, write_scores_csv, SCORES),
    "accuracies": (read_accuracies_csv, write_accuracies_csv, ACCURACIES),
}

# (the text of a row's last field, the error it gives, the tables it is bad in)
BAD_VALUES = [
    ("nan", "not a finite number", TABLES),
    ("inf", "not a finite number", TABLES),
    ("-Infinity", "not a finite number", TABLES),
    ("0.5x", "not a finite number", TABLES),
    ("", "not a finite number", TABLES),
    ("0.5,extra", "expected", TABLES),
    ("7.5", "outside", ["accuracies"]),
    ("-0.1", "outside", ["accuracies"]),
]


def write_scores_with_meta(path, meta):
    """SCORES as ``write_scores_csv`` renders them, with header ``meta``."""
    write_csv(path, SCORE_COLUMNS,
              [(r.model_id, r.train_domain, r.test_domain, r.measure, repr(r.value))
               for r in SCORES],
              meta)


class TestCsvRoundTrip:
    def test_scores(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_with_meta(path, {"run": "t1"})
        back, omitted = read_scores_csv(path)
        assert omitted == frozenset()
        assert sorted(back, key=lambda r: r.model_id) == sorted(
            SCORES, key=lambda r: r.model_id)

    def test_float_values_survive_exactly(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(SCORES, path)
        back = {r.model_id: r.value for r in read_scores_csv(path)[0]}
        assert back["d1-m0"] == 1.0 / 3.0  # repr round-trip, no decimal loss

    def test_accuracies(self, tmp_path):
        path = tmp_path / "acc.csv"
        write_accuracies_csv(ACCURACIES, path)
        assert read_accuracies_csv(path) == ACCURACIES

    def test_header_comment_present_and_skipped(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_with_meta(path, {"seed": 7})
        first = path.read_text().splitlines()[0]
        assert first.startswith("# smoothgen")
        assert "seed=7" in first
        read_scores_csv(path)  # comments must not confuse the reader

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SchemaError, match="unexpected columns"):
            read_scores_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            read_scores_csv(path)

    @pytest.mark.parametrize("text, message, table", [
        pytest.param(text, message, table, id=f"{text}-{message}-{table}")
        for text, message, tables in BAD_VALUES for table in tables
    ])
    def test_bad_value_names_path_and_line(self, tmp_path, text, message, table):
        reader, write, rows = TABLES[table]
        path = tmp_path / "table.csv"
        write(rows, path)
        lines = path.read_text().splitlines()  # comment, columns, then rows
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=message) as exc:
            reader(path)
        assert (exc.value.path, exc.value.line) == (path, 4)

    def test_omitted_pairs_round_trip_in_the_header_comment(self, tmp_path):
        path = tmp_path / "scores.csv"
        omitted = [("d1-m0", "norm_spectral"), ("a b,\"c", "norm_frobenius")]
        write_scores_csv(SCORES, path, omitted)
        assert path.read_text().splitlines()[0] == (
            '# smoothgen tool_version=0.1.0 omitted=[["a b,\\"c","norm_frobenius"],'
            '["d1-m0","norm_spectral"]]')
        assert read_scores_csv(path)[1] == frozenset(omitted)

    @pytest.mark.parametrize("text", ["[", '["m","x"]', '[["m"]]', '[["m",1]]', "{}"])
    def test_malformed_omitted_declaration_names_path_and_line(self, tmp_path, text):
        path = tmp_path / "scores.csv"
        write_scores_csv(SCORES, path)
        path.write_text(path.read_text().replace("\n", f" omitted={text}\n", 1))
        with pytest.raises(SchemaError, match="omitted= must be") as exc:
            read_scores_csv(path)
        assert (exc.value.path, exc.value.line) == (path, 1)

    def test_rows_sorted_deterministically(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_scores_csv(SCORES, a)
        write_scores_csv(list(reversed(SCORES)), b)
        assert a.read_bytes() == b.read_bytes()


def join(scores, accuracies, omitted=frozenset()):
    return build_matrix(MANIFEST, [("scores.csv", scores, omitted)], ("acc.csv", accuracies))


class TestBuildMatrix:
    def test_join(self):
        matrix = join(SCORES, ACCURACIES)
        assert {m.model_id for m in matrix.models} == {"d0-m0", "d0-m1", "d1-m0"}
        assert ("d1-m1", "d1", "ms_x") not in matrix.measures
        assert matrix.measures[("d0-m0", "d1", "ms_x")] == 0.25
        assert matrix.accuracies[("d0-m1", "d1")] == 0.8

    def test_domain_flags(self):
        matrix = join(SCORES, ACCURACIES)
        assert matrix.training_domains == ["d0", "d1"]
        assert matrix.all_domains == ["d0", "d1"]

    def test_test_only_domain_not_marked_training(self):
        models = (("d0-m0", "d0"), ("d0-m1", "d0"), ("d1-m0", "d1"))
        scores = SCORES + [ScoreRow(m, train, "far", "ms_x", 0.1) for m, train in models]
        accs = ACCURACIES + [AccuracyRow(m, "far", 0.2) for m, _ in models]
        matrix = join(scores, accs)
        assert "far" in matrix.all_domains
        assert "far" not in matrix.training_domains

    def test_missing_accuracy_lists_offenders(self):
        with pytest.raises(SchemaError, match="d0-m1/d1"):
            join(SCORES, ACCURACIES[:1])

    def test_a_model_without_a_measure_row_names_the_csv_model_and_measure(self):
        scores = SCORES + [ScoreRow(m, m[:2], "d1", "norm_x", 1.0) for m in ("d0-m0", "d1-m0")]
        with pytest.raises(SchemaError) as exc:
            join(scores, ACCURACIES)
        assert str(exc.value) == ("scores.csv: model 'd0-m1' has no row of measure 'norm_x' "
                                  "on test domain 'd1', where other models have one")

    def test_a_declared_omission_passes(self):
        scores = SCORES + [ScoreRow(m, m[:2], "d1", "norm_x", 1.0) for m in ("d0-m0", "d1-m0")]
        matrix = join(scores, ACCURACIES, frozenset({("d0-m1", "norm_x")}))
        assert ("d0-m1", "d1", "norm_x") not in matrix.measures
        assert matrix.measures[("d1-m0", "d1", "norm_x")] == 1.0

    def test_foreign_model_scores_ignored(self):
        scores = SCORES + [ScoreRow("ghost", "d9", "d1", "ms_x", 0.4)]
        matrix = join(scores, ACCURACIES)
        assert all(mid != "ghost" for mid, _, _ in matrix.measures)


class TestRequireComplete:
    def test_first_model_by_id_with_its_first_missing_key(self):
        have = {"m2": {"a"}, "m1": {"b", "c"}, "m0": {"a", "b", "c"}}
        with pytest.raises(SchemaError) as exc:
            require_complete(have, lambda key: f"no log {key!r}", "t.csv")
        assert str(exc.value) == "t.csv: model 'm1' has no log 'a', where other models have one"
        assert exc.value.path == "t.csv"
        with pytest.raises(SchemaError) as exc:
            require_complete(have, lambda key: f"no log {key!r}")
        assert str(exc.value) == "model 'm1' has no log 'a', where other models have one"

    def test_no_error_when_every_model_has_every_key(self):
        for have in ({"m0": {"a"}, "m1": {"a"}}, {"m0": set(), "m1": set()}, {}):
            require_complete(have, repr, "t.csv")
