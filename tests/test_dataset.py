import contextlib
import csv
import dataclasses
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from travelsat.cli import main
from travelsat.dataset import (
    Dataset,
    RespondentRecord,
    load_survey,
    save_survey,
    split,
)
from travelsat.errors import DatasetError, RowError, SchemaError
from travelsat.schema import CATEGORICAL, default_schema


def _write_rows(path, rows, fieldnames=None):
    schema = default_schema()
    fieldnames = fieldnames or ["record_id", *schema.names,
                                schema.label.name]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _complete_row(record_id="r1", **overrides):
    row = {
        "record_id": record_id, "gender": "1", "age": "34", "income": "20000",
        "education_level": "5", "car_access": "0",
        "public_transit_station": "9.2", "parking_lot": "10.7",
        "hospital": "20.5", "shopping_mall": "15.2", "restaurant": "12.3",
        "commuting_time": "27", "commuting_mode": "3",
        "trips_per_weekday": "5.3", "past_commuting_time": "27.2",
        "past_commuting_mode": "5", "peer_commuting_time": "27.3",
        "peer_commuting_mode": "6", "travel_satisfaction": "4.33",
    }
    row.update(overrides)
    return row


def test_load_round_trip(tmp_path, small_dataset):
    path = tmp_path / "survey.csv"
    save_survey(small_dataset, path)
    loaded = load_survey(path)
    assert [r.record_id for r in loaded] == [r.record_id for r in small_dataset]
    assert loaded.dropped == 0
    for a, b in zip(loaded, small_dataset):
        assert a.satisfaction == b.satisfaction
        assert a.values == b.values


def test_missing_value_drops_row(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [
        _complete_row("r1"),
        _complete_row("r2", income=""),
        _complete_row("r3"),
    ])
    dataset = load_survey(path)
    assert len(dataset) == 2
    assert dataset.dropped == 1
    assert [r.record_id for r in dataset] == ["r1", "r3"]


def test_invalid_code_raises_with_row_index(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [
        _complete_row("r1"),
        _complete_row("r2", commuting_mode="12"),
    ])
    with pytest.raises(RowError) as err:
        load_survey(path)
    assert str(err.value).startswith("row 2: ")
    assert "commuting_mode" in str(err.value)


@pytest.mark.parametrize("overrides, message", [
    ({"commuting_mode": " 12 "},
     "row 2: commuting_mode: '12' is not one of codes (1, 2, 3, 4, 5, 6, 7, 8, 9)"),
    ({"gender": "0.5"}, "row 2: gender: '0.5' is not one of codes (0, 1)"),
    ({"age": "0"}, "row 2: age: 0.0 must be > 0.0"),
    ({"income": "-5"}, "row 2: income: -5.0 must be >= 0.0"),
    ({"travel_satisfaction": "7.5"}, "row 2: travel_satisfaction: 7.5 must be <= 7.0"),
])
def test_bad_cell_message_names_row_variable_and_value(tmp_path, overrides, message):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1"), _complete_row("r2", **overrides),
                       _complete_row("r3", age="0")])
    with pytest.raises(RowError) as err:
        load_survey(path)
    assert str(err.value) == message
    assert str(err.value).startswith("row 2: ")


@pytest.mark.parametrize("record_id", ["a,b", "a\nb", "a\rb", "a\u2028b", "a```b"],
                         ids=["comma", "newline", "carriage-return", "line-separator",
                              "code-fence"])
def test_record_id_with_comma_raises_with_row_index(tmp_path, record_id):
    # replies list scores as one id,score pair a line inside a ```scores
    # block, so such an id could never be scored
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1"), _complete_row(record_id)])
    with pytest.raises(RowError) as err:
        load_survey(path)
    assert str(err.value).startswith("row 2: ")
    assert repr(record_id) in str(err.value)


# every id a reply cannot carry on its "id,score" line, which the parser
# splits by str.splitlines and strips
UNCARRIABLE_IDS = ["a,b", "a\nb", "a\rb", "a\u2028b", "a```b", "", " a", "a "]


@pytest.mark.parametrize("record_id", UNCARRIABLE_IDS)
def test_record_refuses_an_id_a_reply_cannot_carry(small_dataset, record_id):
    values = small_dataset.records[0].values
    with pytest.raises(RowError, match=f"^record_id {re.escape(repr(record_id))} "):
        RespondentRecord(record_id, values, 4.0)
    assert RespondentRecord("a b", values, 4.0).record_id == "a b"


def test_dataset_built_in_code_refuses_a_comma_id(small_dataset):
    with pytest.raises(RowError, match="record_id 'a,b' contains a comma"):
        Dataset(schema=small_dataset.schema, records=(
            *small_dataset.records[:2],
            dataclasses.replace(small_dataset.records[2], record_id="a,b")))


def test_repeated_record_id_raises(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1"), _complete_row("r2"), _complete_row("r1")])
    with pytest.raises(DatasetError, match="duplicate record ids"):
        load_survey(path)


def test_empty_file_raises(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_bytes(b"")
    with pytest.raises(DatasetError, match="empty file"):
        load_survey(path)


def test_byte_order_mark_is_skipped(tmp_path, small_dataset):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_survey(small_dataset, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_survey(marked) == load_survey(plain) == small_dataset


def test_unparseable_number_raises(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1", age="unknown")])
    with pytest.raises(RowError):
        load_survey(path)


def test_age_must_be_positive(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1", age="0")])
    with pytest.raises(RowError):
        load_survey(path)


def test_label_outside_scale_raises(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1", travel_satisfaction="7.5")])
    with pytest.raises(RowError):
        load_survey(path)


def test_missing_column_raises(tmp_path):
    path = tmp_path / "survey.csv"
    schema = default_schema()
    names = ["record_id", *schema.names[1:], schema.label.name]
    row = _complete_row("r1")
    row.pop("gender")
    _write_rows(path, [row], fieldnames=names)
    with pytest.raises(SchemaError) as err:
        load_survey(path)
    assert "gender" in str(err.value)


def test_all_rows_incomplete_raises(tmp_path):
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r1", age=""), _complete_row("r2", income="")])
    with pytest.raises(DatasetError):
        load_survey(path)


def test_generated_ids_when_column_absent(tmp_path):
    path = tmp_path / "survey.csv"
    schema = default_schema()
    names = [*schema.names, schema.label.name]
    row = _complete_row()
    row.pop("record_id")
    _write_rows(path, [row], fieldnames=names)
    dataset = load_survey(path)
    assert [r.record_id for r in dataset] == ["r0001"]


def test_split_sizes_and_partition(small_dataset):
    train, test = split(small_dataset, 0.8, seed=0)
    assert len(train) == round(0.8 * len(small_dataset))
    assert len(test) == len(small_dataset) - len(train)
    train_ids = {r.record_id for r in train}
    test_ids = {r.record_id for r in test}
    assert train_ids | test_ids == {r.record_id for r in small_dataset}
    assert not train_ids & test_ids


def test_split_deterministic(small_dataset):
    a = split(small_dataset, 0.7, seed=9)
    b = split(small_dataset, 0.7, seed=9)
    assert [r.record_id for r in a[0]] == [r.record_id for r in b[0]]
    assert [r.record_id for r in a[1]] == [r.record_id for r in b[1]]
    c = split(small_dataset, 0.7, seed=10)
    assert [r.record_id for r in c[0]] != [r.record_id for r in a[0]]


def test_split_degenerate_fraction(small_dataset):
    with pytest.raises(DatasetError):
        split(small_dataset, 0.001, seed=0)
    with pytest.raises(DatasetError):
        split(small_dataset, 0.9999, seed=0)


def test_empty_dataset_rejected():
    with pytest.raises(DatasetError):
        Dataset(schema=default_schema(), records=())


def _any_value(var):
    if var.kind == CATEGORICAL:
        return st.sampled_from(var.codes).map(float)
    # load_survey refuses non-finite cells, so a saved dataset holds none
    return st.floats(min_value=var.minimum, max_value=var.maximum,
                     exclude_min=var.exclusive_minimum, allow_infinity=False)


# ids a record accepts and load_survey keeps as they are: non-empty, no
# surrounding whitespace, no line break, no comma, no code fence
RECORD_ID = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                                  blacklist_characters=","),
                    min_size=1, max_size=6).filter(lambda text: "```" not in text)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_save_load_round_trip(data):
    schema = default_schema()
    ids = data.draw(st.lists(RECORD_ID, min_size=1, max_size=6, unique=True))
    records = tuple(
        RespondentRecord(record_id, {var.name: data.draw(_any_value(var))
                                     for var in schema.predictors},
                         data.draw(st.floats(1.0, 7.0)))
        for record_id in ids)
    dataset = Dataset(schema=schema, records=records)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        save_survey(dataset, path)
        assert load_survey(path, schema) == dataset


NON_FINITE = ["nan", "NaN", " nan ", "inf", "-inf", "+Infinity", "1e400", "-1e400"]
FINITE = ["-0.0", "0.0", " 4.5 ", "\t3e1 ", "1E1", "2", "6.5"]
COLUMNS = [*default_schema().names, default_schema().label.name]


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(COLUMNS),
                                st.sampled_from(NON_FINITE + FINITE)),
                      min_size=1, max_size=4,
                      # one form per cell, so every drawn form is in the file
                      unique_by=lambda cell: cell[:2]))
def test_non_finite_cells_are_refused_with_their_row(cells):
    rows = [_complete_row(f"r{i}") for i in range(1, 7)]
    for row, column, form in cells:
        rows[row - 1][column] = form
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        _write_rows(path, rows)
        try:
            dataset = load_survey(path)
        except RowError as exc:
            assert any(str(exc).startswith(f"row {row}: ") for row, _, _ in cells)
            refused = True
        else:
            assert all(math.isfinite(value) for record in dataset
                       for value in [record.satisfaction, *record.values.values()])
            refused = False
        if any(form in NON_FINITE for _, _, form in cells):
            assert refused
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["zeroshot", "--data", str(path), "--repeats", "1",
                         "--out", str(Path(tmp) / "out")])
        assert code == (2 if refused else 0)
        assert ("error: row " in err.getvalue()) == refused
