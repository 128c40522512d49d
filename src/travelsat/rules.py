"""Deterministic label rules over raw survey values.

Rules compute a satisfaction score in [1, 7] from a record's raw values.
They are shared by the synthetic data generator (as the ground truth) and by
the scripted mock backend (as its scoring oracle), so both sides agree
without any fitted state. Numeric variables are first standardized with the
fixed reference constants below rather than dataset statistics; the mock's
nearest-neighbour mode encodes records with the same constants.
"""

from __future__ import annotations

from typing import Mapping

from .errors import SchemaError
from .schema import CATEGORICAL, SCORE_MAX, SCORE_MIN, VariableSchema

# (center, scale) per numeric variable, in raw units
REFERENCE_SCALE: dict[str, tuple[float, float]] = {
    "age": (34.71, 8.0),
    "income": (21650.0, 15000.0),
    "public_transit_station": (9.23, 3.5),
    "parking_lot": (10.69, 4.2),
    "hospital": (20.5, 8.0),
    "shopping_mall": (15.2, 6.0),
    "restaurant": (12.26, 4.8),
    "commuting_time": (26.97, 10.0),
    "trips_per_weekday": (5.27, 1.8),
    "past_commuting_time": (27.19, 10.0),
    "peer_commuting_time": (27.3, 10.0),
}


def scaled(values: Mapping[str, float], name: str) -> float:
    center, scale = REFERENCE_SCALE[name]
    return (float(values[name]) - center) / scale


def clamp(score: float) -> float:
    """score limited to [SCORE_MIN, SCORE_MAX], as a float."""
    return float(min(SCORE_MAX, max(SCORE_MIN, score)))


# weights on standardized numerics; offsets keyed by category code
_LINEAR_BASE = 4.35
_LINEAR_NUMERIC = {
    "age": 0.08,
    "income": 0.10,
    "public_transit_station": -0.12,
    "parking_lot": -0.05,
    "hospital": -0.04,
    "shopping_mall": -0.04,
    "restaurant": -0.04,
    "commuting_time": -0.45,
    "trips_per_weekday": -0.10,
    "past_commuting_time": 0.15,
    "peer_commuting_time": 0.10,
}
_LINEAR_OFFSETS = {
    "gender": {0: 0.0, 1: -0.05},
    "education_level": {1: -0.10, 2: -0.06, 3: -0.02, 4: 0.0, 5: 0.05, 6: 0.10},
    "car_access": {0: -0.05, 1: 0.05, 2: 0.05, 3: 0.05, 4: 0.05},
    "commuting_mode": {1: 0.55, 2: 0.45, 3: -0.05, 4: 0.0, 5: -0.45,
                       6: 0.25, 7: -0.10, 8: 0.0, 9: 0.0},
    "past_commuting_mode": {1: -0.10, 2: -0.08, 3: 0.02, 4: 0.0, 5: 0.10,
                            6: -0.05, 7: 0.04, 8: 0.0, 9: 0.0},
    "peer_commuting_mode": {1: 0.06, 2: 0.05, 3: 0.0, 4: 0.0, 5: -0.04,
                            6: -0.08, 7: 0.0, 8: 0.0, 9: 0.0},
}


def linear_rule(values: Mapping[str, float]) -> float:
    """Affine in the standardized features, so a linear model is exact."""
    score = _LINEAR_BASE
    for name, weight in _LINEAR_NUMERIC.items():
        score += weight * scaled(values, name)
    for name, offsets in _LINEAR_OFFSETS.items():
        score += offsets[int(values[name])]
    return clamp(score)


# (variable, test, step) of the threshold rule; rule_importance uses |step|
_THRESHOLD_STEPS = (
    ("commuting_time", lambda v: v > 35.0, -1.4),
    ("public_transit_station", lambda v: v > 12.0, -0.6),
    ("commuting_mode", lambda v: int(v) in (1, 2), 0.5),
    ("trips_per_weekday", lambda v: v > 7.0, -0.3),
    ("income", lambda v: v > 25000.0, 0.2),
)


def threshold_rule(values: Mapping[str, float]) -> float:
    """Piecewise-constant rule; tree ensembles fit it, linear models cannot."""
    score = 5.2
    for name, fires, step in _THRESHOLD_STEPS:
        if fires(values[name]):
            score += step
    return clamp(score)


RULES = {
    "linear": linear_rule,
    "threshold": threshold_rule,
}


def get_rule(name: str):
    try:
        return RULES[name]
    except KeyError:
        raise SchemaError(
            f"unknown label rule {name!r}; known rules: {', '.join(sorted(RULES))}"
        ) from None


def misaligned_prior(values: Mapping[str, float]) -> float:
    """A deliberately poor zero-context scoring heuristic.

    Centered far below the rules above, so scores improve once labeled
    examples are available.
    """
    score = 2.3
    if int(values["commuting_mode"]) == 6:
        score += 0.4
    if values["commuting_time"] < 15.0:
        score += 0.2
    return clamp(score)


# the variables each label rule, and misaligned_prior, reads
_READS = {
    "linear": (*_LINEAR_NUMERIC, *_LINEAR_OFFSETS),
    "threshold": tuple(name for name, _, _ in _THRESHOLD_STEPS),
    "misaligned_prior": ("commuting_mode", "commuting_time"),
}


def check_schema(schema: VariableSchema, scorer: str) -> None:
    """Refuse, with SchemaError, a schema with records that scorer, a label
    rule's name or "misaligned_prior", cannot score: one that lacks a
    variable scorer reads or, for the linear rule, one where a variable the
    rule offsets by code is numeric or has a code with no offset."""
    missing = [name for name in _READS[scorer] if name not in schema.names]
    if missing:
        raise SchemaError(f"rule {scorer!r} reads variables the schema lacks: {missing}")
    if scorer != "linear":
        return
    unscored = []
    for name, offsets in _LINEAR_OFFSETS.items():
        var = schema.variable(name)
        extra = [code for code in var.codes if code not in offsets]
        if var.kind != CATEGORICAL:
            unscored.append(f"numeric {name}")
        elif extra:
            unscored.append(f"{name} codes {extra}")
    if unscored:
        raise SchemaError(f"rule 'linear' has no offset for {', '.join(unscored)}")


def rule_importance(name: str, schema: VariableSchema) -> dict[str, float]:
    """A rule's fixed weight per predictor of schema, in schema order,
    normalized to sum 1 over those predictors; a variable the rule does not
    read weighs 0."""
    get_rule(name)
    if name == "linear":
        raw = {k: abs(w) for k, w in _LINEAR_NUMERIC.items()}
        for var, offsets in _LINEAR_OFFSETS.items():
            raw[var] = max(offsets.values()) - min(offsets.values())
    else:
        raw = {name: abs(step) for name, _, step in _THRESHOLD_STEPS}
    full = {v.name: raw.get(v.name, 0.0) for v in schema.predictors}
    total = sum(full.values())
    return {k: v / total for k, v in full.items()}

