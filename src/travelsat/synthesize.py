"""Synthetic survey generator.

Samples each predictor independently from a configurable marginal
distribution, then labels every record with a registered deterministic rule
plus optional Gaussian noise. The shipped default marginals mirror the
reference survey's published summary statistics.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources as importlib_resources
from typing import Annotated

from numpy.random import Generator, default_rng
import numpy as np

from .dataset import Dataset, RespondentRecord, parse_value
from .errors import DatasetError, SchemaError
from .rules import check_schema, clamp, get_rule
from .schema import (
    CATEGORICAL,
    NUMERIC,
    Variable,
    VariableSchema,
    default_schema,
    read_json,
    spec_from_dict,
)


@dataclass(frozen=True)
class NumericMarginal:
    kind: str  # "normal" | "lognormal" | "uniform"
    mean: float = 0.0
    std: float = 1.0
    sigma: float = 0.5
    low: float = 0.0
    high: float = 1.0
    clip_min: float | None = None
    clip_max: float | None = None

    def __post_init__(self):
        if self.kind not in ("normal", "lognormal", "uniform"):
            raise SchemaError(f"unknown numeric marginal kind {self.kind!r}")
        if self.kind == "normal" and self.std < 0:
            raise SchemaError(f"normal marginal with std {self.std} < 0")
        if self.kind == "lognormal" and (self.mean <= 0 or self.sigma < 0):
            raise SchemaError("lognormal marginal needs mean > 0 and sigma >= 0")
        if self.kind == "uniform" and self.low > self.high:
            raise SchemaError(f"uniform marginal with low {self.low} > high {self.high}")
        if None not in (self.clip_min, self.clip_max) and self.clip_min > self.clip_max:
            raise SchemaError(f"clip_min {self.clip_min} > clip_max {self.clip_max}")

    def sample(self, rng: Generator, n: int) -> np.ndarray:
        if self.kind == "normal":
            draws = rng.normal(self.mean, self.std, size=n)
        elif self.kind == "lognormal":
            # parameterized by the target arithmetic mean
            mu = np.log(self.mean) - self.sigma ** 2 / 2.0
            draws = rng.lognormal(mu, self.sigma, size=n)
        else:
            draws = rng.uniform(self.low, self.high, size=n)
        if self.clip_min is not None:
            draws = np.maximum(draws, self.clip_min)
        if self.clip_max is not None:
            draws = np.minimum(draws, self.clip_max)
        return draws


@dataclass(frozen=True)
class CategoricalMarginal:
    # (code, probability) pairs, written {"code": weight}; weights are
    # normalized at construction
    probs: Annotated[tuple[tuple[int, float], ...], "written as an object"]

    def __post_init__(self):
        total = sum(p for _, p in self.probs)
        if total <= 0 or any(p < 0 for _, p in self.probs):
            raise SchemaError("categorical marginal needs weights >= 0, not all 0")
        object.__setattr__(
            self, "probs", tuple((c, p / total) for c, p in self.probs)
        )

    def sample(self, rng: Generator, n: int) -> np.ndarray:
        codes = np.array([c for c, _ in self.probs])
        weights = np.array([p for _, p in self.probs])
        return rng.choice(codes, size=n, p=weights)


Marginal = NumericMarginal | CategoricalMarginal


def _marginal_from_dict(name: str, d) -> Marginal:
    if isinstance(d, dict) and d.get("kind") == "categorical":
        d = {key: value for key, value in d.items() if key != "kind"}
        return spec_from_dict(CategoricalMarginal, d, SchemaError, f"marginals.{name}")
    return spec_from_dict(NumericMarginal, d, SchemaError, f"marginals.{name}")


def marginals_from_dict(d) -> dict[str, Marginal]:
    if not isinstance(d, dict):
        raise SchemaError("marginals: the file must hold a JSON object")
    return {name: _marginal_from_dict(name, spec) for name, spec in d.items()}


def load_marginals(path) -> dict[str, Marginal]:
    return marginals_from_dict(read_json(path, "marginals", SchemaError))


@functools.cache
def _shipped_marginals() -> dict[str, Marginal]:
    text = importlib_resources.files("travelsat").joinpath(
        "resources/default_marginals.json").read_text("utf-8")
    return marginals_from_dict(json.loads(text))


def default_marginals() -> dict[str, Marginal]:
    """Marginals shipped with the package, mirroring the reference survey:
    read once, returned as a fresh dict on every call."""
    return dict(_shipped_marginals())


def _check_marginals(schema: VariableSchema, marginals: dict[str, Marginal]) -> None:
    for var in schema.predictors:
        if var.name not in marginals:
            raise SchemaError(f"no marginal for variable {var.name!r}")
        marginal = marginals[var.name]
        if var.kind == CATEGORICAL and not isinstance(marginal, CategoricalMarginal):
            raise SchemaError(f"{var.name}: categorical variable needs a categorical marginal")
        if var.kind == NUMERIC and not isinstance(marginal, NumericMarginal):
            raise SchemaError(f"{var.name}: numeric variable needs a numeric marginal")
        if isinstance(marginal, CategoricalMarginal):
            bad = [c for c, _ in marginal.probs if c not in var.codes]
            if bad:
                raise SchemaError(f"{var.name}: marginal codes {bad} not in schema")


def _checked(var: Variable, value: float) -> float:
    try:
        return parse_value(var, value)
    except ValueError as exc:
        raise SchemaError(f"synthesized {exc}") from None


def synthesize(
    n: int,
    seed: int,
    label_rule: str = "linear",
    noise: float = 0.0,
    marginals: dict[str, Marginal] | None = None,
    schema: VariableSchema | None = None,
) -> Dataset:
    """Generate n labeled records. Same arguments give byte-identical output."""
    if n <= 0:
        raise DatasetError("n must be positive")
    if seed < 0:
        raise DatasetError("seed must be non-negative")
    if not 0.0 <= noise < np.inf:
        raise DatasetError("noise must be finite and non-negative")
    schema = schema or default_schema()
    marginals = marginals if marginals is not None else default_marginals()
    _check_marginals(schema, marginals)
    rule = get_rule(label_rule)
    check_schema(schema, label_rule)

    rng = default_rng(seed)
    # column by column in schema order so the draw sequence is reproducible
    columns = {}
    for var in schema.predictors:
        draws = marginals[var.name].sample(rng, n)
        if var.kind == NUMERIC:
            # survey-grade precision; also survives prompt round-trips exactly.
            # A value load_survey would refuse is refused here, by its rule
            draws = np.array([_checked(var, float(format(x, ".6g"))) for x in draws])
        columns[var.name] = draws
    noise_draws = rng.normal(0.0, noise, size=n) if noise > 0 else np.zeros(n)

    width = len(str(n))
    records = []
    for i in range(n):
        values = {name: float(columns[name][i]) for name in schema.names}
        score = clamp(rule(values) + float(noise_draws[i]))
        records.append(RespondentRecord(
            record_id=f"s{i + 1:0{width}d}",
            values=values,
            satisfaction=score,
        ))
    return Dataset(schema=schema, records=tuple(records))
