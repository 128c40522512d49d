import contextlib
import csv
import dataclasses
import io
import math
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np
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
from travelsat.schema import CATEGORICAL, VariableSchema, default_schema


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


def test_repeated_record_id_refusal_names_the_id(tmp_path):
    # row 2 has no id, so the loader names it r0002, as row 1 already is
    path = tmp_path / "survey.csv"
    _write_rows(path, [_complete_row("r0002"), _complete_row(""), _complete_row("r3")])
    with pytest.raises(DatasetError) as excinfo:
        load_survey(path)
    assert str(excinfo.value) == "duplicate record ids in dataset: r0002"


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


def test_a_custom_label_name_loads_its_column_on_the_contract_scale(tmp_path):
    schema = VariableSchema(predictors=default_schema().predictors, label_name="score")
    fieldnames = ["record_id", *schema.names, "score"]
    path = tmp_path / "survey.csv"
    row = _complete_row("r1")
    row["score"] = row.pop("travel_satisfaction")
    _write_rows(path, [row], fieldnames=fieldnames)
    dataset = load_survey(path, schema)
    assert dataset.labels().tolist() == [4.33]
    save_survey(dataset, tmp_path / "saved.csv")
    assert load_survey(tmp_path / "saved.csv", schema) == dataset
    for label in ("0", "7.5"):
        _write_rows(path, [{**row, "score": label}], fieldnames=fieldnames)
        with pytest.raises(RowError, match="^row 1: score: "):
            load_survey(path, schema)


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


def test_sorted_columns_are_built_once_and_read_only(small_dataset):
    columns = small_dataset.sorted_columns
    assert small_dataset.sorted_columns is columns
    names = small_dataset.schema.names
    assert len(columns) == len(names)
    for name, column in zip(names, columns):
        assert column.tobytes() == np.sort(small_dataset.column(name)).tobytes()
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    # column() still hands each caller an array of its own
    owned = small_dataset.column("age")
    assert owned.flags.writeable and owned is not small_dataset.column("age")
    owned[:] = -1.0
    assert (small_dataset.column("age") > 0).all()
    assert (columns[names.index("age")] > 0).all()
    # and the dataset still pickles, its sorted columns with it
    assert pickle.loads(pickle.dumps(small_dataset)).sorted_columns.tobytes() == \
        columns.tobytes()


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


def _write_lines(path, lines):
    path.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8")


def _csv_line(row: dict, fieldnames) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([row[name] for name in fieldnames])
    return out.getvalue()


FIELDNAMES = ["record_id", *default_schema().names, default_schema().label.name]


def test_row_with_more_cells_than_the_header_is_refused(tmp_path):
    # a decimal comma, unquoted, splits one cell in two and shifts every
    # later value one column right
    path = tmp_path / "survey.csv"
    row = _csv_line(_complete_row("r1", travel_satisfaction="4.28"), FIELDNAMES)
    shifted = row.replace(",27.3,", ",18,2,")
    assert shifted != row
    _write_lines(path, [",".join(FIELDNAMES), shifted])
    with pytest.raises(RowError) as err:
        load_survey(path)
    assert str(err.value) == f"row 1: {len(FIELDNAMES) + 1} cells, header has {len(FIELDNAMES)}"


def test_long_row_is_refused_in_row_order(tmp_path):
    path = tmp_path / "survey.csv"
    good = _csv_line(_complete_row("r1"), FIELDNAMES)
    bad = _csv_line(_complete_row("r2", age="0"), FIELDNAMES)
    blank = _csv_line(_complete_row("r9", age=""), FIELDNAMES)
    _write_lines(path, [",".join(FIELDNAMES), good, "", blank, good + ",x", bad])
    with pytest.raises(RowError, match=r"^row 3: 20 cells, header has 19$"):
        load_survey(path)
    _write_lines(path, [",".join(FIELDNAMES), good, bad, good + ",x"])
    with pytest.raises(RowError, match=r"^row 2: age: 0.0 must be > 0.0$"):
        load_survey(path)


def test_cell_over_the_csv_size_limit_is_refused_with_its_row(tmp_path, capsys):
    limit = csv.field_size_limit()
    path = tmp_path / "survey.csv"
    good = _csv_line(_complete_row("r1"), FIELDNAMES)
    huge = _csv_line(_complete_row("r2"), FIELDNAMES) + "," + "x" * (limit + 1)
    header = ",".join([*FIELDNAMES, "notes"])
    _write_lines(path, [header, good + ",a", "", huge, good.replace("r1", "r3", 1) + ",b"])
    reason = f"field larger than field limit ({limit})"
    with pytest.raises(RowError, match=rf"^row 2: {re.escape(reason)}$"):
        load_survey(path)
    # a refusal of an earlier row comes first, as for a row too long
    bad = _csv_line(_complete_row("r1", age="0"), FIELDNAMES)
    _write_lines(path, [header, bad + ",a", huge])
    with pytest.raises(RowError, match=r"^row 1: age: 0.0 must be > 0.0$"):
        load_survey(path)
    _write_lines(path, [header + "," + "y" * (limit + 1), good + ",a,b"])
    with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: header: "
                                           rf"{re.escape(reason)}$"):
        load_survey(path)
    _write_lines(path, [header, huge])
    assert main(["zeroshot", "--data", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: row 1: {reason}")
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("name", ["age", "commuting_mode", "travel_satisfaction", "record_id"])
def test_repeated_header_name_is_refused(tmp_path, name):
    # a second age column holding 99 used to load as every record's age
    path = tmp_path / "survey.csv"
    row = _complete_row("r1")
    _write_lines(path, [",".join([*FIELDNAMES, name]),
                        _csv_line(row, FIELDNAMES) + "," + row[name]])
    with pytest.raises(SchemaError) as err:
        load_survey(path)
    assert str(err.value) == f"{path}: column {name!r} appears 2 times in the header"


def test_a_repeated_column_the_schema_does_not_name_is_kept_out(tmp_path):
    path = tmp_path / "survey.csv"
    _write_lines(path, [",".join([*FIELDNAMES, "notes", "notes"]),
                        _csv_line(_complete_row("r1"), FIELDNAMES) + ",a,b"])
    assert load_survey(path).records[0].values["age"] == 34.0


def _row_loop_load(path, schema):
    """The per-row loader this module's load_survey replaced, kept as the
    oracle: a csv.DictReader row at a time, each cell through parse_value."""
    from travelsat.dataset import parse_value

    def is_missing(cell):
        return cell is None or cell.strip() == ""

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file")
        columns = set(reader.fieldnames)
        needed = set(schema.names) | {schema.label.name}
        missing = sorted(needed - columns)
        if missing:
            raise SchemaError(f"{path}: missing columns: {', '.join(missing)}")
        has_id = "record_id" in columns
        records = []
        dropped = 0
        for row_index, row in enumerate(reader, start=1):
            if any(is_missing(row.get(name)) for name in needed):
                dropped += 1
                continue
            values = {}
            try:
                for var in schema.predictors:
                    values[var.name] = parse_value(var, row[var.name])
                satisfaction = parse_value(schema.label, row[schema.label.name])
                record_id = (row["record_id"].strip()
                             if has_id and not is_missing(row.get("record_id"))
                             else f"r{row_index:04d}")
                records.append(RespondentRecord(record_id, values, satisfaction))
            except (ValueError, RowError) as exc:
                raise RowError(f"row {row_index}: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no complete rows")
    return Dataset(schema=schema, records=tuple(records), dropped=dropped)


def _outcome(load, path):
    try:
        dataset = load(path, default_schema())
    except (DatasetError, RowError, SchemaError) as exc:
        return type(exc), str(exc)
    # repr tells 0.0 from -0.0, which == does not
    return ([(r.record_id, repr(r.satisfaction), repr(sorted(r.values.items())))
             for r in dataset], dataset.dropped)


def _cell_forms(var):
    """Cell text for var: good values padded or not, and every kind of bad."""
    good = _any_value(var).map(lambda value: format(value, "g" if var.kind == CATEGORICAL
                                                    else ".6g"))
    return st.one_of(
        good, good.map(lambda text: f" {text}\t"),
        st.sampled_from(["", " ", "abc", "1,5", "nan", "-inf", "1e400", "0", "-5", "7.5",
                         "2.5", "12", "-0", "1e0", "0x10", "1_0"]),
        st.text(max_size=3))


@st.composite
def survey_files(draw):
    """(header, rows) of a survey CSV whose rows are no longer than the
    header and whose header repeats no column the loader reads."""
    schema = default_schema()
    names = [*schema.names, schema.label.name]
    header = draw(st.permutations(names + draw(st.sampled_from(
        [[], ["record_id"], ["record_id", "notes"]]))))
    rows = []
    for index in range(draw(st.integers(0, 5))):
        row = {name: draw(_cell_forms(schema.variable(name))) for name in names}
        if "record_id" in header:
            row["record_id"] = draw(st.one_of(st.sampled_from(
                ["", " ", "a,b", "a```b", " r1 ", "r0002", "x"]), st.text(max_size=3),
                st.just(f"id{index}")))
        row["notes"] = "n"
        cells = [row[name] for name in header]
        rows.append(cells[:draw(st.integers(1, len(cells)))]
                    if draw(st.integers(0, 5)) == 0 else cells)
        if draw(st.integers(0, 5)) == 0:
            rows.append([])
    return header, rows


@settings(max_examples=300, deadline=None)
@given(survey=survey_files(), bom=st.booleans())
def test_column_loader_matches_the_row_loop(survey, bom):
    header, rows = survey
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + out.getvalue().encode("utf-8"))
        assert _outcome(lambda p, s: load_survey(p, s), path) == _outcome(_row_loop_load, path)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_the_column_screen_accepts_only_what_parse_value_reads_alike(data):
    from travelsat.dataset import _screen, parse_value
    schema = default_schema()
    var = data.draw(st.sampled_from([*schema.predictors, schema.label]))
    cells = data.draw(st.lists(st.one_of(_cell_forms(var), st.text(max_size=6),
                                         st.floats().map(repr)), max_size=6))
    floats, missing, accepted = _screen(var, cells)
    for cell, value, blank, ok in zip(cells, floats, missing, accepted):
        assert blank == (cell.strip() == "")
        if ok:
            assert not blank
            assert repr(parse_value(var, cell)) == repr(value)
