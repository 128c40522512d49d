"""Survey variable schema.

The default schema describes a household travel survey with 17 predictor
variables grouped into four dimensions (socioeconomics, built environment,
travel characteristics, reference points) plus a continuous travel
satisfaction label on a 1-7 scale. It ships with the package as
resources/default_schema.json, the same format load_schema reads.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import SchemaError, TravelSatError

DIMENSIONS = (
    "socioeconomics",
    "built_environment",
    "travel_characteristics",
    "reference_points",
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# the satisfaction scale: the default label's range, the label rules' clamp
# and the reply contract's score bounds
SCORE_MIN = 1.0
SCORE_MAX = 7.0


@dataclass(frozen=True)
class Variable:
    """One survey variable: a numeric quantity or a coded category."""

    name: str
    dimension: str
    kind: str
    unit: str = ""
    # (code, label) pairs in code order; empty for numeric variables
    categories: tuple[tuple[int, str], ...] = ()
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: bool = False

    def __post_init__(self):
        if self.dimension not in DIMENSIONS + ("label",):
            raise SchemaError(f"unknown dimension {self.dimension!r} for {self.name}")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown kind {self.kind!r} for {self.name}")
        if self.kind == CATEGORICAL and len(self.categories) < 2:
            raise SchemaError(f"categorical {self.name} needs at least 2 categories")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric {self.name} must not define categories")

    @functools.cached_property
    def codes(self) -> tuple[int, ...]:
        # computed once per variable: load_survey checks every categorical
        # cell against it; not a field, so equality and asdict ignore it
        return tuple(code for code, _ in self.categories)

    def label_for(self, code: int) -> str:
        for c, label in self.categories:
            if c == code:
                return label
        raise SchemaError(f"{self.name}: no category with code {code}")

    def code_for(self, label: str) -> int:
        for code, lab in self.categories:
            if lab == label:
                return code
        raise SchemaError(f"{self.name}: no category labelled {label!r}")


@dataclass(frozen=True)
class VariableSchema:
    """Ordered predictor variables plus the label variable."""

    predictors: tuple[Variable, ...]
    label: Variable = field(
        default=Variable(
            name="travel_satisfaction",
            dimension="label",
            kind=NUMERIC,
            minimum=SCORE_MIN,
            maximum=SCORE_MAX,
        )
    )

    def __post_init__(self):
        names = [v.name for v in self.predictors] + [self.label.name]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate variable names: {dupes}")
        if not self.predictors:
            raise SchemaError("schema needs at least one predictor")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.predictors)

    def variable(self, name: str) -> Variable:
        for v in self.predictors:
            if v.name == name:
                return v
        if name == self.label.name:
            return self.label
        raise SchemaError(f"no variable named {name!r}")

    def by_dimension(self, dimension: str) -> tuple[Variable, ...]:
        return tuple(v for v in self.predictors if v.dimension == dimension)

    def fingerprint(self) -> str:
        """Stable hash of the schema contents, for provenance records."""
        payload = json.dumps(_schema_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _schema_to_dict(schema: VariableSchema) -> dict:
    def var(v: Variable) -> dict:
        d = {"name": v.name, "dimension": v.dimension, "kind": v.kind}
        if v.unit:
            d["unit"] = v.unit
        if v.categories:
            d["categories"] = [[c, lab] for c, lab in v.categories]
        if v.minimum is not None:
            d["minimum"] = v.minimum
        if v.maximum is not None:
            d["maximum"] = v.maximum
        if v.exclusive_minimum:
            d["exclusive_minimum"] = True
        return d

    return {
        "predictors": [var(v) for v in schema.predictors],
        "label": var(schema.label),
    }


def _variable_from_dict(d: dict) -> Variable:
    try:
        return Variable(
            name=d["name"],
            dimension=d["dimension"],
            kind=d["kind"],
            unit=d.get("unit", ""),
            categories=tuple((int(c), str(lab)) for c, lab in d.get("categories", [])),
            minimum=d.get("minimum"),
            maximum=d.get("maximum"),
            exclusive_minimum=bool(d.get("exclusive_minimum", False)),
        )
    except KeyError as exc:
        raise SchemaError(f"schema entry missing key {exc}") from exc


def schema_from_dict(d: dict) -> VariableSchema:
    if "predictors" not in d:
        raise SchemaError("schema file needs a 'predictors' list")
    predictors = tuple(_variable_from_dict(v) for v in d["predictors"])
    if "label" in d:
        return VariableSchema(predictors=predictors, label=_variable_from_dict(d["label"]))
    return VariableSchema(predictors=predictors)


def read_json(path, what: str, error: type[TravelSatError]):
    """The JSON value in the file at path. A file that cannot be read or
    is not valid JSON raises error, naming the path and what it holds."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{path}: cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def load_schema(path) -> VariableSchema:
    return schema_from_dict(read_json(path, "schema", SchemaError))


def save_schema(schema: VariableSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_schema_to_dict(schema), fh, indent=2)
        fh.write("\n")


@functools.cache
def default_schema() -> VariableSchema:
    """Schema of the reference household travel survey (17 predictors),
    loaded once from the JSON file shipped with the package."""
    text = resources.files("travelsat").joinpath(
        "resources/default_schema.json").read_text("utf-8")
    return schema_from_dict(json.loads(text))
