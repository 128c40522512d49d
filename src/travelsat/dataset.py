"""Survey dataset loading, saving, and splitting."""

from __future__ import annotations

import csv
import functools
import math
from collections import Counter
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
    """Survey records under one schema, in file order.

    Frozen: each view of the records that is built on first use, such as
    sorted_columns, holds for the dataset's lifetime.
    """

    schema: VariableSchema
    records: tuple[RespondentRecord, ...]
    # rows dropped at load time because a value was missing
    dropped: int = 0

    def __post_init__(self):
        if not self.records:
            raise DatasetError("dataset has no records")
        ids = [r.record_id for r in self.records]
        if len(set(ids)) != len(ids):
            repeated = next(i for i, count in Counter(ids).items() if count > 1)
            raise DatasetError(f"duplicate record ids in dataset: {repeated}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[RespondentRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> RespondentRecord:
        return self.records[index]

    def labels(self) -> np.ndarray:
        return np.array([r.satisfaction for r in self.records], dtype=float)

    def column(self, name: str) -> np.ndarray:
        """The named predictor's values in record order, as a new array."""
        self.schema.variable(name)
        return np.array([r.values[name] for r in self.records], dtype=float)

    @functools.cached_property
    def sorted_columns(self) -> np.ndarray:
        """One row per predictor, in schema order, holding its values sorted
        ascending: built once per dataset and read-only, the population side
        of every K-S screen against it."""
        columns = np.array([self.column(name) for name in self.schema.names])
        columns.sort(axis=1)
        columns.flags.writeable = False
        return columns

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


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _screen(variable: Variable, cells: Sequence[str]
            ) -> tuple[list[float], np.ndarray, np.ndarray]:
    """One column of cells read at once, as (floats, missing, accepted).

    A cell is missing when it is blank. The screen accepts a cell only where
    parse_value returns the same float, which floats holds; every other cell
    that is not missing must be read by parse_value itself.
    """
    try:
        floats = list(map(float, cells))
        missing = np.zeros(len(floats), dtype=bool)
    except ValueError:  # a blank or unreadable cell: read the column cell by cell
        floats = [_float_or_nan(cell) for cell in cells]
        missing = np.array([not cell.strip() for cell in cells], dtype=bool)
    values = np.array(floats, dtype=float)
    accepted = np.isfinite(values)
    if variable.kind == CATEGORICAL:
        # parse_value writes the code -0 as 0.0: leave it to parse_value
        accepted &= np.isin(values, variable.codes) & ~np.signbit(values)
    else:
        if variable.minimum is not None:
            accepted &= (values > variable.minimum if variable.exclusive_minimum
                         else values >= variable.minimum)
        if variable.maximum is not None:
            accepted &= values <= variable.maximum
    return floats, missing, accepted


def _read_rows(reader, width: int) -> tuple[list[list[str]], RowError | None]:
    """The non-blank rows of reader, each padded with blank cells to width,
    up to the first row with more cells than width or that the csv module
    cannot read (a cell over csv.field_size_limit, say), and the RowError
    that row raises (None when there is none)."""
    rows = []
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                if len(row) > width:
                    return rows, RowError(f"row {len(rows) + 1}: {len(row)} cells, "
                                          f"header has {width}")
                row += [""] * (width - len(row))
            rows.append(row)
    except csv.Error as exc:
        return rows, RowError(f"row {len(rows) + 1}: {exc}")
    return rows, None


def load_survey(path, schema: VariableSchema | None = None) -> Dataset:
    """Load a survey CSV into a Dataset.

    The file needs a header with one snake_case column per schema variable and
    the label column; an optional record_id column carries stable ids. A
    UTF-8 byte-order mark and blank lines are skipped. A header that lacks a
    schema variable or the label, or names one of them or record_id twice,
    raises SchemaError, and a header the csv module cannot read raises
    DatasetError. Rows with missing values are dropped (counted in
    Dataset.dropped). The first row with more cells than the header, that the
    csv module cannot read, with an unparseable or out-of-range value, or
    with a record_id that RespondentRecord refuses raises RowError naming the
    row index; rows are numbered from 1, blank lines not counted. The csv
    module's cell size limit is left as it is: it is global to the process.

    Each needed column is read and screened whole (_screen); parse_value, the
    one statement of the value rule, reads every cell the screen does not
    accept, so a refusal carries parse_value's own message.
    """
    schema = schema or default_schema()
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read survey: {exc}") from exc
    variables = (*schema.predictors, schema.label)
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise DatasetError(f"{path}: header: {exc}") from None
        if header is None:
            raise DatasetError(f"{path}: empty file")
        absent = sorted({var.name for var in variables} - set(header))
        if absent:
            raise SchemaError(f"{path}: missing columns: {', '.join(absent)}")
        for name in (*(var.name for var in variables), "record_id"):
            if header.count(name) > 1:
                raise SchemaError(f"{path}: column {name!r} appears "
                                  f"{header.count(name)} times in the header")
        rows, too_long = _read_rows(reader, len(header))
    # column by column, so each column's cells are freed once it is read
    columns = dict(zip(header, zip(*rows))) if rows else {}
    n_rows = len(rows)
    del rows
    ids = columns.pop("record_id", None)
    floats = []
    incomplete = np.zeros(n_rows, dtype=bool)
    # row -> (position in variables, cell) of each cell the screen left to
    # parse_value, in schema order
    unscreened: dict[int, list[tuple[int, str]]] = {}
    for position, var in enumerate(variables):
        cells = columns.pop(var.name, ())
        values, missing, accepted = _screen(var, cells)
        floats.append(values)
        incomplete |= missing
        for row in np.flatnonzero(~(accepted | missing)).tolist():
            unscreened.setdefault(row, []).append((position, cells[row]))
    del columns
    names = schema.names
    records = []
    dropped = set(np.flatnonzero(incomplete).tolist())
    for row, cells in enumerate(zip(*floats)):
        if row in dropped:
            continue
        try:
            if row in unscreened:
                cells = list(cells)
                for position, cell in unscreened[row]:
                    cells[position] = parse_value(variables[position], cell)
            record_id = (ids[row].strip() if ids is not None else "") or f"r{row + 1:04d}"
            records.append(RespondentRecord(record_id, dict(zip(names, cells)), cells[-1]))
        except (ValueError, RowError) as exc:
            raise RowError(f"row {row + 1}: {exc}") from exc
    if too_long is not None:
        raise too_long
    if not records:
        raise DatasetError(f"{path}: no complete rows")
    return Dataset(schema=schema, records=tuple(records), dropped=len(dropped))


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
