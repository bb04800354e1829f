"""Class tallies, impurity criteria and the vectorized split scan.

:func:`scan_features` is the one place split candidates are scored: given
per-feature pre-sorted value and label rows for one tree node, it computes
the impurity decrease of every candidate threshold for every feature in one
vectorized pass over prefix class counts. Thresholds sit at midpoints
between adjacent distinct values, so rows with equal feature values are
never separated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MismatchError

__all__ = [
    "ClassCounts",
    "scan_features",
]

# Decreases this far below zero are rounding noise from Eq-style weighted sums.
_NEG_TOL = 1e-12

# Cap on floats held by one vectorized scan block (D_block * m * K).
_SCAN_BLOCK_BUDGET = 4 << 20


@dataclass(frozen=True)
class ClassCounts:
    """Per-class sample tally at a node."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or (counts < 0).any():
            raise MismatchError("counts must be a 1-D nonnegative vector")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_labels(cls, labels: np.ndarray, class_count: int) -> "ClassCounts":
        return cls(np.bincount(np.asarray(labels, dtype=np.int64), minlength=class_count))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _impurity_of(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Vectorized impurity of count vectors along the last axis.

    ``totals`` must be positive wherever the result is used.
    """
    safe = np.maximum(totals, 1)
    if criterion == "gini":
        return 1.0 - np.square(counts / safe[..., None]).sum(axis=-1)
    if criterion == "entropy":
        # H = log2(n) - sum(c*log2 c)/n with 0*log 0 = 0
        clog = np.where(counts > 0, counts * np.log2(np.maximum(counts, 1)), 0.0)
        return np.log2(safe) - clog.sum(axis=-1) / safe
    raise ConfigError(f"unknown impurity criterion {criterion!r}")


def scan_features(
    values: np.ndarray,
    labels: np.ndarray,
    class_count: int,
    criterion: str = "gini",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate thresholds and decreases for every feature row of a node.

    Args:
        values: (D, m) matrix; each row holds one feature's values over the
            node's rows, sorted ascending.
        labels: (D, m) labels aligned with ``values`` row by row.
        class_count: number of classes K.
        criterion: "gini" or "entropy".

    Returns:
        ``(valid, thresholds, decreases)``, each (D, m-1): position i describes
        the cut between sorted positions i and i+1. ``valid`` is False where
        adjacent values are equal (no threshold exists there).
    """
    depth, m = values.shape
    if m < 2:
        empty = np.empty((depth, 0))
        return empty.astype(bool), empty, empty

    valid = values[:, 1:] > values[:, :-1]
    thresholds = 0.5 * (values[:, :-1] + values[:, 1:])
    # the midpoint of adjacent doubles can round up onto the upper value,
    # which would route every row left; such cuts are not usable thresholds
    valid &= thresholds < values[:, 1:]
    decreases = np.empty((depth, m - 1))

    rows_per_block = max(1, _SCAN_BLOCK_BUDGET // (m * class_count))
    left_n = np.arange(1, m, dtype=np.int64)
    right_n = m - left_n
    for start in range(0, depth, rows_per_block):
        block = slice(start, min(start + rows_per_block, depth))
        onehot = labels[block, :, None] == np.arange(class_count)
        prefix = np.cumsum(onehot, axis=1, dtype=np.int64)
        total = prefix[:, -1, :]
        left = prefix[:, :-1, :]
        right = total[:, None, :] - left
        parent_imp = _impurity_of(total, np.asarray(m), criterion)
        child = (
            left_n / m * _impurity_of(left, left_n, criterion)
            + right_n / m * _impurity_of(right, right_n, criterion)
        )
        decreases[block] = parent_imp[:, None] - child

    np.copyto(decreases, 0.0, where=(decreases < 0.0) & (decreases > -_NEG_TOL))
    return valid, thresholds, decreases

