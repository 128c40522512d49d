"""Survey dataset loading, saving, and splitting."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DatasetError, RowError, SchemaError
from .schema import CATEGORICAL, Variable, VariableSchema, default_schema


@dataclass(frozen=True)
class RespondentRecord:
    """One survey respondent: predictor values plus the satisfaction label.
    Raises RowError for an id that an "id,score" line of a reply's ```scores
    block cannot carry (docs/output_contract.md, "Record ids")."""

    record_id: str
    values: Mapping[str, float]
    satisfaction: float

    def __post_init__(self):
        rid = self.record_id
        reason = ("is empty" if not rid else "has whitespace at an end" if rid != rid.strip()
                  else "contains a line break" if rid.splitlines() != [rid]
                  else "contains a comma" if "," in rid
                  else "contains a code fence" if "```" in rid else "")
        if reason:
            raise RowError(f"record_id {rid!r} {reason}")


@dataclass(frozen=True)
class Dataset:
    schema: VariableSchema
    records: tuple[RespondentRecord, ...]
    # rows dropped at load time because a value was missing
    dropped: int = 0

    def __post_init__(self):
        if not self.records:
            raise DatasetError("dataset has no records")
        ids = [r.record_id for r in self.records]
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate record ids in dataset")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RespondentRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RespondentRecord:
        return self.records[index]

    def labels(self) -> np.ndarray:
        return np.array([r.satisfaction for r in self.records], dtype=float)

    def column(self, name: str) -> np.ndarray:
        self.schema.variable(name)
        return np.array([r.values[name] for r in self.records], dtype=float)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        records = tuple(self.records[i] for i in indices)
        return Dataset(schema=self.schema, records=records)


def parse_value(variable: Variable, raw: str | float) -> float:
    """Parse and validate one cell for `variable`. Raises ValueError on bad input."""
    if isinstance(raw, str):
        raw = raw.strip()
        if raw == "":
            raise ValueError("empty")
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"{variable.name}: not a number: {raw!r}") from None
    else:
        value = float(raw)
    if not math.isfinite(value):  # nan, inf, and overflows such as 1e400
        raise ValueError(f"{variable.name}: not a finite number: {raw!r}")
    if variable.kind == CATEGORICAL:
        code = int(value)
        if code != value or code not in variable.codes:
            raise ValueError(f"{variable.name}: {raw!r} is not one of codes {variable.codes}")
        return float(code)
    if variable.minimum is not None:
        if variable.exclusive_minimum and value <= variable.minimum:
            raise ValueError(f"{variable.name}: {value} must be > {variable.minimum}")
        if not variable.exclusive_minimum and value < variable.minimum:
            raise ValueError(f"{variable.name}: {value} must be >= {variable.minimum}")
    if variable.maximum is not None and value > variable.maximum:
        raise ValueError(f"{variable.name}: {value} must be <= {variable.maximum}")
    return value


def _is_missing(cell: str | None) -> bool:
    return cell is None or cell.strip() == ""


def load_survey(path, schema: VariableSchema | None = None) -> Dataset:
    """Load a survey CSV into a Dataset.

    The file needs a header with one snake_case column per schema variable and
    the label column; an optional record_id column carries stable ids. A
    UTF-8 byte-order mark is skipped. Rows with missing values are dropped
    (counted in Dataset.dropped); rows with unparseable or out-of-range
    values, or a record_id that RespondentRecord refuses, raise RowError
    naming the row index.
    """
    schema = schema or default_schema()
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read survey: {exc}") from exc
    with fh:
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
            if any(_is_missing(row.get(name)) for name in needed):
                dropped += 1
                continue
            values = {}
            try:
                for var in schema.predictors:
                    values[var.name] = parse_value(var, row[var.name])
                satisfaction = parse_value(schema.label, row[schema.label.name])
                record_id = row["record_id"].strip() if has_id and not _is_missing(row.get("record_id")) else f"r{row_index:04d}"
                records.append(RespondentRecord(record_id, values, satisfaction))
            except (ValueError, RowError) as exc:
                raise RowError(f"row {row_index}: {exc}") from exc
    if not records:
        raise DatasetError(f"{path}: no complete rows")
    return Dataset(schema=schema, records=tuple(records), dropped=dropped)


def save_survey(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV in the layout load_survey reads."""
    schema = dataset.schema
    fieldnames = ["record_id", *schema.names, schema.label.name]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for record in dataset:
            row = [record.record_id]
            for name in schema.names:
                value = record.values[name]
                if schema.variable(name).kind == CATEGORICAL:
                    row.append(str(int(value)))
                else:
                    row.append(repr(float(value)))
            row.append(repr(float(record.satisfaction)))
            writer.writerow(row)


def split_indices(n: int, train_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending row indices of a random disjoint train/test split of n rows;
    size of train = round(fraction * n)."""
    n_train = int(round(train_fraction * n))
    if n_train <= 0 or n_train >= n:
        raise DatasetError(
            f"train_fraction {train_fraction} leaves an empty side for n={n}"
        )
    order = np.random.default_rng(seed).permutation(n)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random disjoint train/test split; size of train = round(fraction * n)."""
    train_idx, test_idx = split_indices(len(dataset), train_fraction, seed)
    return dataset.subset(train_idx), dataset.subset(test_idx)
