"""Feature encoding: z-scored numerics plus one-hot categoricals.

The encoding is fitted once on the full dataset and then applied to any
subset, so train and query records share one feature space. encoding_spec
lays out the same columns from given (mean, std) pairs; the scripted mock
uses it with the fixed reference scales of the label rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, RespondentRecord
from .errors import EncodingError
from .schema import CATEGORICAL, NUMERIC, VariableSchema


@dataclass(frozen=True)
class ColumnGroup:
    """Columns produced by one schema variable."""

    variable: str
    kind: str
    start: int
    width: int
    mean: float = 0.0
    std: float = 1.0
    # numeric column with zero variance in the fitted data; encodes to 0
    constant: bool = False
    codes: tuple[int, ...] = ()


@dataclass(frozen=True)
class EncodingSpec:
    schema: VariableSchema
    groups: tuple[ColumnGroup, ...]
    width: int

    def column_names(self) -> list[str]:
        """One name per encoded column, e.g. 'income', 'commuting_mode=subway'."""
        names = []
        for g in self.groups:
            if g.kind == NUMERIC:
                names.append(g.variable)
            else:
                var = self.schema.variable(g.variable)
                names.extend(f"{g.variable}={var.label_for(c)}" for c in g.codes)
        return names

    def column_variables(self) -> list[str]:
        """Parent schema variable of each encoded column."""
        parents = []
        for g in self.groups:
            parents.extend([g.variable] * g.width)
        return parents


def fit_encoding(dataset: Dataset) -> EncodingSpec:
    """Fit per-variable encoding parameters on the full dataset, over its
    schema.

    Numerics get (mean, sample std); a zero-variance numeric is flagged
    constant and later encodes to 0. Categoricals get one indicator column
    per schema code.
    """
    scales = {}
    for var in dataset.schema.predictors:
        if var.kind == NUMERIC:
            column = dataset.column(var.name)
            std = float(np.std(column, ddof=1)) if len(column) > 1 else 0.0
            scales[var.name] = (float(np.mean(column)), std)
    return encoding_spec(dataset.schema, scales)


def encoding_spec(schema: VariableSchema,
                  scales: Mapping[str, tuple[float, float]]) -> EncodingSpec:
    """Column layout of a schema: each numeric one column, centered and
    scaled by its (mean, std) from `scales` (a zero std flags it constant),
    each categorical one indicator column per schema code."""
    groups = []
    start = 0
    for var in schema.predictors:
        if var.kind == NUMERIC:
            mean, std = scales[var.name]
            constant = std == 0.0
            groups.append(ColumnGroup(variable=var.name, kind=NUMERIC, start=start,
                                      width=1, mean=mean,
                                      std=std if not constant else 1.0,
                                      constant=constant))
            start += 1
        else:
            codes = var.codes
            groups.append(ColumnGroup(variable=var.name, kind=CATEGORICAL,
                                      start=start, width=len(codes), codes=codes))
            start += len(codes)
    return EncodingSpec(schema=schema, groups=tuple(groups), width=start)


def encode_matrix(records: Dataset | Sequence[RespondentRecord], spec: EncodingSpec) -> np.ndarray:
    """Encode records into the fitted feature space, one row each, column
    group by column group.

    A numeric is centered and scaled (0 when constant); a categorical sets
    the indicator of its code, truncated toward zero as int() does. An
    unknown code raises EncodingError for the earliest offending record,
    then its earliest offending group.
    """
    records = list(records)
    table = np.array([[r.values[g.variable] for g in spec.groups] for r in records],
                     dtype=float).reshape(len(records), len(spec.groups))
    out = np.zeros((len(records), spec.width))
    unknown = np.zeros(len(records), dtype=bool)
    for j, g in enumerate(spec.groups):
        if g.kind == NUMERIC:
            if not g.constant:
                out[:, g.start] = (table[:, j] - g.mean) / g.std
            continue
        # int() truncates toward zero; a NaN matches no code
        matches = np.trunc(table[:, j])[:, None] == np.array(g.codes, dtype=float)
        known = matches.any(axis=1)
        unknown |= ~known
        rows = np.flatnonzero(known)
        out[rows, g.start + matches[rows].argmax(axis=1)] = 1.0
    if unknown.any():
        record = records[int(np.argmax(unknown))]
        for g in spec.groups:
            if g.kind == CATEGORICAL:
                code = int(record.values[g.variable])
                if code not in g.codes:
                    raise EncodingError(
                        f"{g.variable}: code {code} not in fitted codes {g.codes}")
    return out


def design_matrix(
    records: Dataset | Sequence[RespondentRecord],
    spec: EncodingSpec,
) -> tuple[np.ndarray, list[str], list[str]]:
    """Regression design: encoded columns minus each categorical's first
    (reference) indicator, so an intercept fits cleanly.

    Returns (matrix, column names, parent variable per column), without an
    intercept column.
    """
    full = encode_matrix(records, spec)
    names = spec.column_names()
    parents = spec.column_variables()
    keep = [i for g in spec.groups
            for i in range(g.start + (g.kind == CATEGORICAL), g.start + g.width)]
    return full[:, keep], [names[i] for i in keep], [parents[i] for i in keep]
