import dataclasses
import json
import re

import pytest

from travelsat.errors import SchemaError
from travelsat.schema import (
    CATEGORICAL,
    NUMERIC,
    Variable,
    VariableSchema,
    default_schema,
    load_schema,
    schema_from_dict,
    spec_to_dict,
)

EXPECTED_NAMES = (
    "gender", "age", "income", "education_level", "car_access",
    "public_transit_station", "parking_lot", "hospital", "shopping_mall",
    "restaurant",
    "commuting_time", "commuting_mode", "trips_per_weekday",
    "past_commuting_time", "past_commuting_mode",
    "peer_commuting_time", "peer_commuting_mode",
)


def test_default_schema_names_and_order():
    assert default_schema().names == EXPECTED_NAMES


def test_default_schema_dimension_counts():
    schema = default_schema()
    assert len(schema.by_dimension("socioeconomics")) == 5
    assert len(schema.by_dimension("built_environment")) == 5
    assert len(schema.by_dimension("travel_characteristics")) == 3
    assert len(schema.by_dimension("reference_points")) == 4
    assert len(schema.predictors) == 17


def test_label_variable_bounds():
    label = default_schema().label
    assert label.name == "travel_satisfaction"
    assert label.kind == NUMERIC
    assert label.minimum == 1.0 and label.maximum == 7.0


def test_mode_category_labels():
    mode = default_schema().variable("commuting_mode")
    assert mode.label_for(3) == "subway"
    assert mode.code_for("private car") == 6
    assert mode.codes == (1, 2, 3, 4, 5, 6, 7, 8, 9)


def test_category_lookup_errors():
    mode = default_schema().variable("commuting_mode")
    with pytest.raises(SchemaError):
        mode.label_for(12)
    with pytest.raises(SchemaError):
        mode.code_for("rocket")
    with pytest.raises(SchemaError):
        default_schema().variable("nonexistent")


def test_duplicate_names_rejected():
    v = Variable("age", "socioeconomics", NUMERIC)
    with pytest.raises(SchemaError):
        VariableSchema(predictors=(v, v))


def test_categorical_needs_two_categories():
    with pytest.raises(SchemaError):
        Variable("gender", "socioeconomics", CATEGORICAL, categories=((0, "x"),))


def test_unknown_dimension_rejected():
    with pytest.raises(SchemaError):
        Variable("age", "somewhere", NUMERIC)


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(spec_to_dict(default_schema()), indent=2),
                    encoding="utf-8")
    assert load_schema(path) == default_schema()


SHIPPED_FINGERPRINT = "7c60faf2b0714575b197f628f9ddc289198158d966fbd2d3e6758daf49630533"


def test_schema_dict_round_trip_keeps_the_shipped_format():
    from importlib import resources
    schema = default_schema()
    assert schema.fingerprint() == SHIPPED_FINGERPRINT
    assert schema_from_dict(spec_to_dict(schema)) == schema
    shipped = resources.files("travelsat").joinpath("resources/default_schema.json")
    assert spec_to_dict(schema) == json.loads(shipped.read_text("utf-8"))
    custom = VariableSchema(
        predictors=(Variable("dist", "built_environment", NUMERIC, unit="km",
                             minimum=0, maximum=2.5, exclusive_minimum=True),
                    Variable("mode", "travel_characteristics", CATEGORICAL,
                             categories=((-1, "none"), (2, "bus")))),
        label=Variable("score", "label", NUMERIC, minimum=0.0))
    assert schema_from_dict(spec_to_dict(custom)) == custom
    assert type(schema_from_dict(spec_to_dict(custom)).predictors[0].minimum) is int


def test_fingerprint_changes_with_content():
    schema = default_schema()
    reduced = VariableSchema(predictors=schema.predictors[:5])
    assert schema.fingerprint() != reduced.fingerprint()
    assert schema.fingerprint() == default_schema().fingerprint()


def test_codes_computed_once_and_not_a_field():
    mode = Variable("mode", "travel_characteristics", CATEGORICAL,
                    categories=((1, "walk"), (2, "bus")))
    twin = Variable("mode", "travel_characteristics", CATEGORICAL,
                    categories=((1, "walk"), (2, "bus")))
    schema = VariableSchema(predictors=(mode,))
    fingerprint = schema.fingerprint()
    assert mode.codes == (1, 2)
    assert mode.codes is mode.codes
    # the cached value is not a field: equality, hashing, asdict, the
    # fingerprint and replace see only the fields
    assert mode == twin and hash(mode) == hash(twin)
    assert dataclasses.asdict(mode) == dataclasses.asdict(twin)
    assert "codes" not in dataclasses.asdict(mode)
    assert schema.fingerprint() == fingerprint
    assert dataclasses.replace(mode, categories=((3, "car"), (4, "bike"))).codes == (3, 4)


@pytest.mark.parametrize("what", ["config", "schema", "marginals"])
def test_json_file_errors_keep_their_class_and_text(tmp_path, what):
    from travelsat.errors import DatasetError
    from travelsat.experiments import load_config
    from travelsat.synthesize import load_marginals
    load, error = {"config": (load_config, DatasetError),
                   "schema": (load_schema, SchemaError),
                   "marginals": (load_marginals, SchemaError)}[what]
    missing = tmp_path / "missing.json"
    with pytest.raises(error, match=f"^{re.escape(str(missing))}: cannot read {what}: "):
        load(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(error, match=f"^{re.escape(str(broken))}: not valid JSON: "):
        load(broken)
