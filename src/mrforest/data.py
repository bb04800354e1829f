"""Dataset ingestion, structure/estimation partitioning, and fold planning.

A :class:`Dataset` is an immutable table of finite real features plus dense
integer class labels. Trees never see raw files: the loader normalizes labels
to ``0..K-1`` (first-appearance order) and records the original values so
reports can translate back. A fold plan is plain arrays: :func:`make_folds`
returns each repeat's sorted test folds, and a fold's training rows are the
rest.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .errors import ConfigError, EmptyError, ParseError, SchemaError, SizeError

__all__ = [
    "Dataset",
    "Partition",
    "load_dataset",
    "read_table",
    "label_position",
    "parse_features",
    "partition",
    "structure_size",
    "make_folds",
]


@dataclass(frozen=True)
class Dataset:
    """Immutable classification dataset.

    Attributes:
        features: (n, D) float64 matrix, all values finite.
        labels: (n,) int64 vector with values in [0, class_count).
        feature_names: D column names.
        class_count: number of classes K (>= 2).
        label_values: original label value per dense class index, for reports.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_count: int
    label_values: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise EmptyError("features must be a nonempty 2-D matrix")
        if labels.shape != (features.shape[0],):
            raise SchemaError("labels must be one value per feature row")
        if not np.isfinite(features).all():
            raise ParseError("features contain NaN or infinite values")
        if self.class_count < 2:
            raise SchemaError(f"need at least 2 classes, got {self.class_count}")
        if labels.min() < 0 or labels.max() >= self.class_count:
            raise SchemaError("labels must lie in [0, class_count)")
        if len(self.feature_names) != features.shape[1]:
            raise SchemaError("feature_names must match feature count")
        label_values = self.label_values or tuple(
            str(c) for c in range(self.class_count)
        )
        if len(label_values) != self.class_count:
            raise SchemaError("label_values must have one entry per class")
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "label_values", label_values)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Row subset sharing this dataset's schema (K and names unchanged)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            class_count=self.class_count,
            label_values=self.label_values,
        )


class Partition(NamedTuple):
    """Disjoint, nonempty structure/estimation row index sets, as :func:`partition` draws them."""

    structure_idx: np.ndarray
    estimation_idx: np.ndarray


def read_table(
    source: str | Path | IO[str] | IO[bytes], delimiter: str = ","
) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a delimited text table, every cell stripped.

    Blank and whitespace-only lines are skipped wherever they appear, so the
    first other line is the header. Input with no header or no data row
    raises :class:`EmptyError`; text that is not UTF-8 or not parseable as
    CSV, and a row whose width differs from the header's, raise
    :class:`ParseError`. A delimiter that is not one character raises
    :class:`ConfigError`.
    """
    if len(delimiter) != 1:
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    if isinstance(source, (str, Path)):
        with open(source, "r", newline="", encoding="utf-8") as handle:
            return read_table(handle, delimiter)
    if isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")  # type: ignore[arg-type]
    lines = (line for line in source if line.strip())
    try:
        table = [[cell.strip() for cell in row] for row in csv.reader(lines, delimiter=delimiter)]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"unreadable table: {exc}") from None
    if not table:
        raise EmptyError("input has no header row")
    header, rows = table[0], table[1:]
    if not rows:
        raise EmptyError("input has no data rows")
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(f"row {number}: expected {len(header)} cells, got {len(row)}")
    return header, rows


def label_position(header: list[str], label_col: str | int) -> int:
    """Position of the label column, given by header name or (negative) index."""
    if isinstance(label_col, int):
        if not -len(header) <= label_col < len(header):
            raise SchemaError(f"label column index {label_col} out of range")
        return label_col % len(header)
    try:
        return header.index(label_col)
    except ValueError:
        raise SchemaError(f"label column {label_col!r} not in header") from None


def _parse_cell(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}, column {col!r}: cannot parse {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column {col!r}: non-finite value {text!r}")
    return value


def parse_features(header: list[str], rows: list[list[str]], columns: list[int]) -> np.ndarray:
    """(n, len(columns)) matrix of the given columns' cells as finite reals.

    The first cell that is not a number, or is NaN or infinite, raises
    :class:`ParseError` naming its data row (from 1) and column.
    """
    values = [[_parse_cell(row[i], r, header[i]) for i in columns] for r, row in enumerate(rows, 1)]
    return np.array(values, dtype=np.float64).reshape(len(rows), len(columns))


def load_dataset(
    source: str | Path | IO[str] | IO[bytes],
    label_col: str | int | None = None,
    delimiter: str = ",",
) -> Dataset:
    """Load a delimited text file with a header row into a Dataset.

    The table is read by :func:`read_table`. ``label_col`` selects the label
    column by header name or position (default: last column). All other
    columns must parse as finite reals; categorical features must be
    pre-encoded as numbers. Labels may be arbitrary strings and are densely
    re-indexed in first-appearance order.
    """
    header, rows = read_table(source, delimiter)
    if len(header) < 2:
        raise SchemaError("need at least one feature column and one label column")
    label_pos = label_position(header, -1 if label_col is None else label_col)
    feature_pos = [i for i in range(len(header)) if i != label_pos]
    features = parse_features(header, rows, feature_pos)

    mapping: dict[str, int] = {}
    labels = np.array([mapping.setdefault(row[label_pos], len(mapping)) for row in rows])
    if len(mapping) < 2:
        raise SchemaError(f"need at least 2 classes, found {len(mapping)}")

    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(header[i] for i in feature_pos),
        class_count=len(mapping),
        label_values=tuple(mapping.keys()),
    )


def structure_size(n: int, rate: float) -> int:
    """Structure-side size: round-half-up of n*rate/(1+rate)."""
    return int(math.floor(n * rate / (1.0 + rate) + 0.5))


def partition(dataset: Dataset, rate: float, rng: np.random.Generator) -> Partition:
    """Uniformly random disjoint structure/estimation split of all rows, both sides nonempty.

    ``rate`` is |structure| / |estimation|; the structure side receives
    round-half-up of n*rate/(1+rate) rows and the remainder estimates leaves.
    Both sides are sorted slices of one permutation, so they cannot overlap.
    """
    if not 0 < rate < math.inf:
        raise SizeError(f"partition rate must be positive and finite, got {rate}")
    n = dataset.n
    n_struct = structure_size(n, rate)
    if n_struct < 1 or n - n_struct < 1:
        raise SizeError(
            f"partition of n={n} at rate={rate} would leave one side empty"
        )
    perm = rng.permutation(n)
    return Partition(
        structure_idx=np.sort(perm[:n_struct]),
        estimation_idx=np.sort(perm[n_struct:]),
    )


def make_folds(
    n: int, folds: int, repeats: int, rng: np.random.Generator
) -> list[list[np.ndarray]]:
    """Test folds of ``repeats`` independent shuffles of ``folds``-fold cross validation.

    Each repeat's folds are sorted row indices that partition 0..n-1, their
    sizes differing by at most one; a fold trains on the rest.
    """
    if repeats < 1:
        raise SizeError("repeats must be >= 1")
    if folds < 2 or folds > n:
        raise SizeError(f"folds must satisfy 2 <= folds <= n, got folds={folds} n={n}")
    return [
        [np.sort(chunk) for chunk in np.array_split(rng.permutation(n), folds)]
        for _ in range(repeats)
    ]
