"""Observed-data model: column schema, dataset validation, sampling weights.

A dataset is an immutable table of observations (W, A, Z, M, Y) with optional
survey weights. Missing values are a hard error; imputation belongs upstream.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroWeights,
    MissingColumn,
    MissingValue,
    NegativeWeight,
    NonBinaryTreatment,
    OutOfRangeOutcome,
)

MEAN_ONE_TOL = 1e-12
CSV_BLOCK_ROWS = 256  # rows held at once as Python strings by read_csv and write_csv


@dataclass(frozen=True)
class ColumnSchema:
    """Assigns table columns to their roles in the observed-data model.

    ``rule_covariates`` must be a subset of ``baseline``; treatment and
    post-treatment columns are binary; the outcome lives in a declared
    closed interval. Columns listed in ``categorical_levels`` are treated
    as categoricals with exactly that set of distinct levels; only baseline
    and mediator columns can be categorical.
    """

    baseline: tuple[str, ...]
    rule_covariates: tuple[str, ...]
    treatment: str
    post_treatment: str
    mediators: tuple[str, ...]
    outcome: str
    weight: str | None = None
    outcome_range: tuple[float, float] = (0.0, 1.0)
    categorical_levels: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "baseline", tuple(self.baseline))
        object.__setattr__(self, "rule_covariates", tuple(self.rule_covariates))
        object.__setattr__(self, "mediators", tuple(self.mediators))
        object.__setattr__(self, "outcome_range", tuple(float(v) for v in self.outcome_range))
        object.__setattr__(
            self, "categorical_levels",
            {k: tuple(v) for k, v in dict(self.categorical_levels).items()},
        )
        for name, levels in self.categorical_levels.items():
            if len(set(levels)) < len(levels):
                raise ValueError(f"categorical_levels.{name} must be distinct levels, "
                                 f"got {list(levels)}")
        not_features = set(self.categorical_levels) - {*self.baseline, *self.mediators}
        if not_features:
            raise ValueError(f"categorical_levels names {sorted(not_features)}, but only "
                             "baseline and mediator columns can be categorical")
        missing_v = set(self.rule_covariates) - set(self.baseline)
        if missing_v:
            raise ValueError(f"rule covariates {sorted(missing_v)} are not baseline columns")
        roles = self.all_columns
        dupes = {name for name in roles if roles.count(name) > 1}
        if dupes:
            raise ValueError(f"columns assigned to more than one role: {sorted(dupes)}")
        lo, hi = self.outcome_range
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"outcome_range must be finite and non-empty, got [{lo}, {hi}]")

    @property
    def all_columns(self) -> tuple[str, ...]:
        cols = [*self.baseline, self.treatment, self.post_treatment, *self.mediators,
                self.outcome]
        if self.weight is not None:
            cols.append(self.weight)
        return tuple(cols)

    def is_categorical(self, name: str) -> bool:
        return name in self.categorical_levels


def normalize_weights(values) -> np.ndarray:
    """Rescale nonnegative weights by n / sum(w) so that their mean is exactly
    one, as a read-only array.

    Ratios w_i / w_j are preserved. Already-normalized input is returned
    unchanged so normalization is idempotent.
    """
    vals = np.asarray(values, dtype=float)
    negative = np.flatnonzero(vals < 0)
    if negative.size:
        raise NegativeWeight(int(negative[0]), float(vals[negative[0]]))
    total = float(np.sum(vals))
    if total <= 0.0:
        raise AllZeroWeights()
    if abs(total / len(vals) - 1.0) > MEAN_ONE_TOL:
        vals = vals * (len(vals) / total)
    out = vals.view()  # read-only without touching the caller's array
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable validated table plus mean-one weights.

    Construct through :func:`validate_dataset`; all arrays are read-only and
    the object is safe for concurrent shared reads.
    """

    schema: ColumnSchema
    columns: Mapping[str, np.ndarray]
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.weights)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def summary(self) -> dict:
        """n plus a per-column role/type report."""
        schema = self.schema
        role_of = {schema.treatment: "treatment", schema.post_treatment: "post_treatment",
                   schema.outcome: "outcome"}
        for c in schema.baseline:
            role_of[c] = "baseline"
        for c in schema.mediators:
            role_of[c] = "mediator"
        if schema.weight is not None:
            role_of[schema.weight] = "weight"
        cols = []
        for name in schema.all_columns:
            vals = self.columns[name]
            if schema.is_categorical(name):
                cols.append({"name": name, "role": role_of[name], "kind": "categorical",
                             "levels": list(schema.categorical_levels[name])})
            else:
                arr = vals.astype(float)
                kind = "binary" if set(np.unique(arr)) <= {0.0, 1.0} else "real"
                cols.append({"name": name, "role": role_of[name], "kind": kind,
                             "min": float(arr.min()), "max": float(arr.max())})
        return {"n": self.n, "columns": cols}


def _parse_numeric(raw: Sequence, name: str) -> np.ndarray:
    """Parse a whole column at once; every cell must be a finite number.

    numpy parses string tokens as Python's ``float`` does. Only a column that
    fails is walked cell by cell, to report its first bad row.
    """
    try:
        out = np.array(raw, dtype=float)
    except (ValueError, TypeError, OverflowError):
        _locate_bad_cell(raw, name)
        raise
    if out.ndim != 1 or not np.isfinite(out).all():
        _locate_bad_cell(raw, name)
        raise ValueError(f"column {name!r} must be a flat sequence of numbers")
    return out


def _locate_bad_cell(raw: Sequence, name: str) -> None:
    """Raise MissingValue at the first cell that is not a finite number."""
    for i, tok in enumerate(raw):
        if isinstance(tok, str):
            tok = tok.strip()
            if tok.lower() in ("", "na", "nan"):
                raise MissingValue(i, name)
            try:
                tok = float(tok)
            except ValueError:
                raise MissingValue(i, name, token=tok) from None
        if tok is None or not np.isfinite(float(tok)):
            raise MissingValue(i, name)


def _parse_categorical(raw: Sequence, name: str, levels: tuple[str, ...]) -> np.ndarray:
    level_set = set(levels)
    out = np.empty(len(raw), dtype=object)
    for i, tok in enumerate(raw):
        if tok is None:
            raise MissingValue(i, name)
        tok = str(tok).strip()
        if tok == "":
            raise MissingValue(i, name)
        if tok not in level_set:
            raise MissingValue(i, name, token=tok)
        out[i] = tok
    return out


def validate_dataset(raw_table, schema: ColumnSchema) -> Dataset:
    """Validate a raw table against the schema and return an immutable Dataset.

    ``raw_table`` is a mapping from column name to a sequence of values (numbers
    or CSV string tokens) or an existing Dataset; validating a validated Dataset
    returns an identical one. Weight columns are normalized to mean one.
    """
    if isinstance(raw_table, Dataset):
        raw_table = raw_table.columns
    for name in schema.all_columns:
        if name not in raw_table:
            raise MissingColumn(name)

    lengths = {len(raw_table[name]) for name in schema.all_columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    n = lengths.pop()
    if n < 1:
        raise ValueError("a dataset needs at least one row")

    columns: dict[str, np.ndarray] = {}
    for name in schema.all_columns:
        if schema.is_categorical(name):
            columns[name] = _parse_categorical(raw_table[name], name,
                                               schema.categorical_levels[name])
        else:
            columns[name] = _parse_numeric(raw_table[name], name)

    for name in (schema.treatment, schema.post_treatment):
        vals = columns[name]
        bad = np.nonzero((vals != 0.0) & (vals != 1.0))[0]
        if bad.size:
            raise NonBinaryTreatment(int(bad[0]), name, float(vals[bad[0]]))

    lo, hi = schema.outcome_range
    y = columns[schema.outcome]
    bad = np.nonzero((y < lo) | (y > hi))[0]
    if bad.size:
        raise OutOfRangeOutcome(int(bad[0]), float(y[bad[0]]), lo, hi)

    if schema.weight is not None:
        weights = normalize_weights(columns[schema.weight])
    else:
        weights = np.ones(n)
        weights.setflags(write=False)

    for arr in columns.values():
        arr.setflags(write=False)
    return Dataset(schema=schema, columns=columns, weights=weights)


def read_csv(path) -> dict[str, list[str]]:
    """Read a headered CSV into a column-name -> string-token mapping."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        table: dict[str, list[str]] = {name: [] for name in header}
        while rows := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
            for row in rows:
                if len(row) != len(header):
                    raise ValueError(f"{path}: row with {len(row)} fields, "
                                     f"expected {len(header)}")
            for name, tokens in zip(header, zip(*rows)):
                table[name].extend(tokens)
    return table


def write_csv(path, columns: Mapping[str, Sequence]) -> None:
    """Write columns as a headered CSV, formatting one block of rows at a time."""
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = [_format_column(columns[name][start:start + CSV_BLOCK_ROWS])
                     for name in names]
            writer.writerows(zip(*block))


def _format_column(values) -> list[str]:
    """Strings as they are, integral numbers without a decimal point, else repr."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return [v if isinstance(v, str) else str(int(f)) if (f := float(v)) == int(f) else repr(f)
            for v in values]


def feature_block(dataset: Dataset, names: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Numeric design block for the given columns, one-hot expanding categoricals.

    Categorical columns expand to indicator columns for every level past the
    first (the first level is the reference), named ``col=level``.
    """
    schema = dataset.schema
    blocks, out_names = [], []
    for name in names:
        vals = dataset.column(name)
        if schema.is_categorical(name):
            levels = schema.categorical_levels[name]
            for level in levels[1:]:
                blocks.append((vals == level).astype(float))
                out_names.append(f"{name}={level}")
        else:
            blocks.append(vals.astype(float))
            out_names.append(name)
    if not blocks:
        return np.empty((dataset.n, 0)), []
    return np.column_stack(blocks), out_names
