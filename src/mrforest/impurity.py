"""Class tallies, impurity criteria and the vectorized split scan.

:func:`scan_features` is the one place split candidates are scored: given
the label rows of one tree node, each sorted by one feature's values, it
computes the impurity decrease of the cut after every sorted position for
every feature in one vectorized pass over prefix class counts; it reads no
feature values. :func:`cut_points` gives the candidate thresholds from the
sorted values, and which of those cuts are valid: midpoints between adjacent
distinct values, so rows with equal feature values are never separated. A
caller computes both and keeps the decreases of the valid cuts.

The prefix counts are kept class first, one (rows, m) plane per class: one
``cumsum`` per class but the last, whose counts are what the others leave of
each prefix (integer counts are exact in float64). :func:`_impurity` holds
the gini and entropy formulas; the scan is its one caller, and training and
the privacy audits both score cuts through the scan. It adds the per-class
terms plane by plane in class order, which is the order in which numpy's
``sum`` adds a last axis of fewer than eight entries; from eight classes on
numpy adds pairwise, and the planes are handed to that ``sum``. So the decreases are bit-equal to a sum over a class-last
axis, while no pass runs along the short class axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MismatchError

__all__ = [
    "ClassCounts",
    "cut_points",
    "scan_features",
]

# Decreases this far below zero are rounding noise from Eq-style weighted sums.
_NEG_TOL = 1e-12

# Cap on count cells (classes x rows x positions) of one scan block, so that
# a block's counts stay in cache; one buffer serves every block of a call.
_SCAN_BLOCK_BUDGET = 1 << 15

# numpy adds a last axis shorter than this in order, and pairwise from it on.
_PAIRWISE_FROM = 8


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


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading class axis, in numpy's order for a class-last sum.

    Below :data:`_PAIRWISE_FROM` classes it accumulates into ``terms[0]``.
    The result is an array, 0-d for one count vector.
    """
    if len(terms) >= _PAIRWISE_FROM:
        return np.asarray(np.moveaxis(terms, 0, -1).copy().sum(axis=-1))
    total = terms[0, ...]
    for term in terms[1:]:
        total += term
    return total


def _impurity(counts: np.ndarray, sizes: np.ndarray | int, criterion: str) -> np.ndarray:
    """Impurity of class count vectors stored class first; overwrites ``counts``.

    ``counts[c]`` holds class c's float64 counts, and ``sizes`` (broadcast
    against ``counts[0]``) their sums. Where a size is 0 the result is
    meaningless and must not be used.
    """
    safe = np.maximum(sizes, 1)
    if criterion == "gini":
        np.divide(counts, safe, out=counts)
        np.square(counts, out=counts)
        total = _class_sum(counts)
        return np.subtract(1.0, total, out=total)
    if criterion == "entropy":
        # H = log2(n) - sum(c*log2 c)/n with 0*log 0 = 0
        logs = np.maximum(counts, 1)
        np.log2(logs, out=logs)
        np.multiply(counts, logs, out=counts)
        total = _class_sum(counts)
        total /= safe
        return np.subtract(np.log2(safe), total, out=total)
    raise ConfigError(f"unknown impurity criterion {criterion!r}")


def cut_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(valid, thresholds)`` of the cuts in each row of sorted ``values`` (..., m).

    Both are (..., m-1): position i is the cut between sorted positions i and
    i+1 at their midpoint. ``valid`` is False where the two values are equal,
    or where the midpoint of adjacent doubles rounds up onto the upper value,
    which would route every row left.
    """
    valid = values[..., 1:] > values[..., :-1]
    thresholds = values[..., :-1] + values[..., 1:]
    thresholds *= 0.5
    valid &= thresholds < values[..., 1:]
    return valid, thresholds


def scan_features(
    labels: np.ndarray,
    class_count: int,
    criterion: str = "gini",
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Impurity decrease of every cut of every feature row of one node, or of a level's nodes.

    Args:
        labels: (D, m) matrix; row j holds the node's labels ordered by
            feature j's values, ascending. With ``starts``, the columns are
            several nodes' segments side by side, each ordered so.
        class_count: number of classes K.
        criterion: "gini" or "entropy".
        starts: first column of each segment, ascending from 0; None for one
            segment.

    Returns:
        The (D, m-1) decreases: position i is the cut between sorted
        positions i and i+1, where :func:`cut_points` of the sorted values
        puts its threshold and says whether it is valid. A cut after a
        segment's last column crosses into the next segment, and its value
        is meaningless. Each segment's decreases are bit-equal to a call on
        that segment alone.
    """
    depth, m = labels.shape
    decreases = np.empty((depth, max(m - 1, 0)))
    if m < 2:
        return decreases

    # rows left and right of the cut after each position; the last position's
    # left side is the whole node, so its impurity is the parent's, and its
    # weight is m / m = 1. Per-segment values reach their columns by
    # ``spread``, which with one segment is a broadcast.
    if starts is None or len(starts) == 1:
        starts, ends, widths = None, np.array([m - 1]), m
        spread = _same
    else:
        ends = np.append(starts[1:], m) - 1
        widths = np.repeat(ends - starts + 1, ends - starts + 1)
        spread = functools.partial(np.repeat, repeats=ends - starts + 1, axis=-1)
    sizes = np.empty((2, 1, m))
    left_n = sizes[0, 0]
    left_n[:] = np.arange(1, m + 1)
    if starts is not None:
        left_n -= spread(starts)
    np.subtract(widths, left_n, out=sizes[1, 0])
    weights = sizes / widths
    rows = max(1, min(depth, _SCAN_BLOCK_BUDGET // (m * class_count)))
    buffer = np.empty((class_count, 2, rows, m))
    classes = np.arange(class_count - 1)[:, None, None]
    for start in range(0, depth, rows):
        block = labels[start : start + rows]
        counts = buffer[:, :, : block.shape[0]]
        left, right = counts[:, 0], counts[:, 1]
        np.equal(block, classes, out=left[:-1], casting="unsafe")
        np.cumsum(left[:-1], axis=2, out=left[:-1])
        if starts is not None:  # restart each segment's prefix counts (exact in float64)
            before = np.zeros(left[:-1, :, ends].shape)
            before[..., 1:] = left[:-1, :, ends[:-1]]
            left[:-1] -= spread(before)
        last = left[-1]
        np.copyto(last, left_n)
        for prefix in left[:-1]:
            last -= prefix
        np.subtract(spread(left[:, :, ends]), left, out=right)
        impurity = _impurity(counts, sizes, criterion)
        impurity *= weights
        out = decreases[start : start + rows]
        np.add(impurity[0, :, :-1], impurity[1, :, :-1], out=out)
        np.subtract(spread(impurity[0][:, ends])[:, : m - 1], out, out=out)

    np.copyto(decreases, 0.0, where=(decreases < 0.0) & (decreases > -_NEG_TOL))
    return decreases


def _same(values: np.ndarray) -> np.ndarray:
    return values
