import numpy as np
import pytest

from travelsat.dataset import Dataset, RespondentRecord
from travelsat.encoding import design_matrix, encode_matrix, fit_encoding
from travelsat.errors import EncodingError
from travelsat.schema import CATEGORICAL, NUMERIC, Variable, VariableSchema

TINY = VariableSchema(predictors=(
    Variable("minutes", "travel_characteristics", NUMERIC, unit="minutes"),
    Variable("steady", "travel_characteristics", NUMERIC),
    Variable("mode", "travel_characteristics", CATEGORICAL,
             categories=((1, "walk"), (2, "bus"), (3, "car"))),
))


def _tiny_dataset():
    rows = [(1.0, 5.0, 1), (2.0, 5.0, 2), (3.0, 5.0, 3)]
    records = tuple(
        RespondentRecord(f"t{i}", {"minutes": m, "steady": s, "mode": c}, 4.0)
        for i, (m, s, c) in enumerate(rows))
    return Dataset(schema=TINY, records=records)


def test_numeric_mean_and_sample_std():
    spec = fit_encoding(_tiny_dataset())
    g = spec.groups[0]
    assert g.variable == "minutes"
    assert g.mean == 2.0
    assert g.std == 1.0  # sample std with ddof=1


def test_constant_column_flagged_and_zero_encoded():
    dataset = _tiny_dataset()
    spec = fit_encoding(dataset)
    assert [g.variable for g in spec.groups if g.constant] == ["steady"]
    X = encode_matrix(dataset, spec)
    assert np.all(X[:, spec.groups[1].start] == 0.0)


def test_zscore_of_mean_is_zero():
    dataset = _tiny_dataset()
    spec = fit_encoding(dataset)
    vec = encode_matrix([dataset[1]], spec)[0]  # minutes = 2.0 = mean
    assert vec[spec.groups[0].start] == 0.0


def test_one_hot_position():
    dataset = _tiny_dataset()
    spec = fit_encoding(dataset)
    g = spec.groups[2]
    assert (g.variable, g.width) == ("mode", 3)
    vec = encode_matrix([dataset[1]], spec)[0]  # mode = 2 (bus)
    assert list(vec[g.start:g.start + g.width]) == [0.0, 1.0, 0.0]


def test_default_schema_layout(small_dataset):
    spec = fit_encoding(small_dataset)
    # 11 numeric columns + one-hot widths 2 + 6 + 5 + 9 + 9 + 9
    assert spec.width == 11 + 40
    assert len(spec.column_names()) == spec.width
    assert len(spec.column_variables()) == spec.width
    assert "commuting_mode=subway" in spec.column_names()


def test_one_hot_rows_sum_to_one(small_dataset):
    spec = fit_encoding(small_dataset)
    X = encode_matrix(small_dataset, spec)
    for g in spec.groups:
        if g.kind == CATEGORICAL:
            assert np.all(X[:, g.start:g.start + g.width].sum(axis=1) == 1.0)


def test_encode_deterministic(small_dataset):
    spec = fit_encoding(small_dataset)
    a = encode_matrix(small_dataset, spec)
    b = encode_matrix(small_dataset, spec)
    assert np.array_equal(a, b)


def test_encode_injective_on_categorical_difference():
    dataset = _tiny_dataset()
    spec = fit_encoding(dataset)
    X = encode_matrix(dataset, spec)
    assert not np.array_equal(X[0], X[1])


def test_unknown_code_rejected():
    dataset = _tiny_dataset()
    spec = fit_encoding(dataset)
    stranger = RespondentRecord("x", {"minutes": 1.0, "steady": 5.0, "mode": 9}, 4.0)
    with pytest.raises(EncodingError,
                       match=r"^mode: code 9 not in fitted codes \(1, 2, 3\)$"):
        encode_matrix([stranger], spec)


def test_design_matrix_drops_reference_columns(small_dataset):
    spec = fit_encoding(small_dataset)
    X, names, parents = design_matrix(small_dataset, spec)
    # six categoricals each lose their first indicator
    assert X.shape[1] == spec.width - 6
    assert len(names) == len(parents) == X.shape[1]
    assert "gender=male" not in names
    assert "gender=female" in names
    full = encode_matrix(small_dataset, spec)
    assert full.shape[1] == spec.width
    assert "gender=male" in spec.column_names()


TWO_CATEGORICALS = VariableSchema(predictors=(
    Variable("minutes", "travel_characteristics", NUMERIC, unit="minutes"),
    Variable("mode", "travel_characteristics", CATEGORICAL,
             categories=((1, "walk"), (2, "bus"), (3, "car"))),
    Variable("steady", "travel_characteristics", NUMERIC),
    Variable("pet", "travel_characteristics", CATEGORICAL,
             categories=((0, "none"), (4, "dog"))),
))


def _records(rows):
    return [RespondentRecord(f"r{i}", dict(zip(("minutes", "mode", "steady", "pet"), row)), 4.0)
            for i, row in enumerate(rows)]


def encode(record, spec):
    """Oracle: one record at a time, group by group, with plain Python."""
    out = np.zeros(spec.width)
    for g in spec.groups:
        value = record.values[g.variable]
        if g.kind == NUMERIC:
            out[g.start] = 0.0 if g.constant else (value - g.mean) / g.std
        else:
            code = int(value)
            try:
                offset = g.codes.index(code)
            except ValueError:
                raise EncodingError(
                    f"{g.variable}: code {code} not in fitted codes {g.codes}"
                ) from None
            out[g.start + offset] = 1.0
    return out


def per_record_matrix(records, spec):
    return np.vstack([encode(r, spec) for r in records])


def test_encode_matrix_matches_per_record_path(small_dataset, dense_dataset):
    for dataset in (small_dataset, dense_dataset, _tiny_dataset()):
        spec = fit_encoding(dataset)
        X = encode_matrix(dataset, spec)
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.tobytes() == per_record_matrix(dataset, spec).tobytes()
    # fitted on one set and applied to another: values outside the fitted
    # range, negative zero, non-integral codes that int() truncates
    spec = fit_encoding(Dataset(schema=TWO_CATEGORICALS, records=tuple(_records(
        [(1.0, 1, 5.0, 0), (2.5, 3, 5.0, 4), (7.0, 2, 5.0, 0)]))))
    odd = _records([(-0.0, 2.9, 5.0, 4.5), (1e9, 1, -3.0, 0), (np.nan, 3.0, 5.0, 0.2)])
    assert encode_matrix(odd, spec).tobytes() == per_record_matrix(odd, spec).tobytes()


def test_encode_matrix_reports_first_unknown_code_like_encode():
    spec = fit_encoding(Dataset(schema=TWO_CATEGORICALS, records=tuple(_records(
        [(1.0, 1, 5.0, 0), (2.5, 3, 5.0, 4), (7.0, 2, 5.0, 0)]))))
    # record 1 is the first offender, and its first offending group is
    # 'mode'; record 2 and the later 'pet' group must not be reported
    records = _records([(1.0, 1, 5.0, 0), (1.0, 8, 5.0, 9), (1.0, 9, 5.0, 4),
                        (1.0, 2, 5.0, 7)])
    with pytest.raises(EncodingError) as expected:
        per_record_matrix(records, spec)
    with pytest.raises(EncodingError) as got:
        encode_matrix(records, spec)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("mode: code 8 ")
    # only a later group offends
    records = _records([(1.0, 1, 5.0, 0), (1.0, 2, 5.0, 5)])
    with pytest.raises(EncodingError, match=r"^pet: code 5 not in fitted codes \(0, 4\)$"):
        encode_matrix(records, spec)
