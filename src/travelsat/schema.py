"""Survey variable schema.

The default schema describes a household travel survey with 17 predictor
variables grouped into four dimensions (socioeconomics, built environment,
travel characteristics, reference points) plus a continuous travel
satisfaction label on a 1-7 scale. It ships with the package as
resources/default_schema.json. The dataclasses define the settings file
formats: spec_from_dict reads any of them, checked, and spec_to_dict writes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import typing
from dataclasses import dataclass, field, fields, is_dataclass
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
        # the prompts and the reply grammar write a name's underscores as
        # spaces and read spaces back as underscores
        if not re.fullmatch(r"[a-z][a-z0-9_]*", self.name):
            raise SchemaError(f"variable name {self.name!r} is not snake_case")
        if self.dimension not in DIMENSIONS + ("label",):
            raise SchemaError(f"unknown dimension {self.dimension!r} for {self.name}")
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown kind {self.kind!r} for {self.name}")
        if self.kind == CATEGORICAL and len(self.categories) < 2:
            raise SchemaError(f"categorical {self.name} needs at least 2 categories")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric {self.name} must not define categories")
        # a repeated label renders two codes alike; a repeated code gets no column
        for what, items in zip(("codes", "labels"), zip(*self.categories)):
            dupes = sorted({item for item in items if items.count(item) > 1})
            if dupes:
                raise SchemaError(f"duplicate category {what} for {self.name}: {dupes}")
        if self.minimum is not None and self.maximum is not None:
            if self.minimum > self.maximum:
                raise SchemaError(
                    f"{self.name}: minimum {self.minimum} is above maximum {self.maximum}")
            if self.exclusive_minimum and self.minimum == self.maximum:
                raise SchemaError(f"{self.name}: no value is above minimum "
                                  f"{self.minimum} and at most maximum {self.maximum}")

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
        # the prompts show a predictor under its dimension, and label is none of them
        unshown = [v.name for v in self.predictors if v.dimension == "label"]
        if unshown:
            raise SchemaError(f"predictors in the label dimension: {unshown}")

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
        payload = json.dumps(spec_to_dict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spec_to_dict(value):
    """A dataclass spec as the JSON value spec_from_dict reads back: each
    nested spec, and each other field that differs from its default."""
    if isinstance(value, tuple):
        return [spec_to_dict(item) for item in value]
    if not is_dataclass(value):
        return value
    items = ((f, getattr(value, f.name)) for f in fields(value))
    return {f.name: spec_to_dict(v) for f, v in items
            if is_dataclass(v) or v != f.default}


def schema_from_dict(d) -> VariableSchema:
    return spec_from_dict(VariableSchema, d, SchemaError, "schema")


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


@functools.cache
def _type_hints(cls) -> dict:
    # evaluating the annotations is slow: once a class, not once a read
    return typing.get_type_hints(cls, include_extras=True)


def spec_from_dict(cls, payload, error: type[TravelSatError], where: str):
    """The dataclass cls read from a JSON object by its type hints: a list
    as a tuple, an object as a nested spec, an Annotated field as (code,
    value) pairs written {"code": value}. A value of another type, an unknown
    or missing key, a non-finite float or a value cls refuses raises error
    naming the key path, such as "config.seed: 1.5 is not a int"."""
    if not isinstance(payload, dict):
        raise error(f"{where}: {payload!r} is not an object")
    hints = _type_hints(cls)
    unknown = set(payload) - set(hints)
    if unknown:
        raise error(f"{where}: unknown keys: {sorted(unknown)}")
    values = {key: _read(hints[key], value, error, f"{where}.{key}")
              for key, value in payload.items()}
    # every spec refuses a bad value with a TravelSatError; TypeError: a missing key
    try:
        return cls(**values)
    except (TravelSatError, TypeError) as exc:
        raise error(f"{where}: {exc}") from exc


def _read(hint, value, error: type[TravelSatError], where: str):
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if origin is typing.Annotated:  # written {"code": value}
        if not (isinstance(value, dict)
                and all(re.fullmatch(r"-?[0-9]+", code) for code in value)):
            raise error(f"{where}: {value!r} is not an object keyed by integer codes")
        return _read(args[0], [[int(c), v] for c, v in value.items()], error, where)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, error, where)
    if is_dataclass(hint):
        return spec_from_dict(hint, value, error, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        hints = args[:1] * len(value) if args[1:] == (...,) else args
        if len(hints) == len(value):
            return tuple(_read(h, item, error, f"{where}[{i}]")
                         for i, (h, item) in enumerate(zip(hints, value)))
    # exact types, so a bool is no int; a float field also takes an int
    if not (type(value) is hint or hint is float and type(value) is int):
        name = hint if origin else hint.__name__
        raise error(f"{where}: {value!r} is not a {name}")
    if type(value) is float and not math.isfinite(value):
        raise error(f"{where}: {value} is not finite")
    return value


def load_schema(path) -> VariableSchema:
    return schema_from_dict(read_json(path, "schema", SchemaError))


@functools.cache
def default_schema() -> VariableSchema:
    """Schema of the reference household travel survey (17 predictors),
    loaded once from the JSON file shipped with the package."""
    text = resources.files("travelsat").joinpath(
        "resources/default_schema.json").read_text("utf-8")
    return schema_from_dict(json.loads(text))
