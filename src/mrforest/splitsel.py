"""Impurity-weighted multinomial selection of split features and values.

Both mechanisms share one pipeline: min-max normalize the raw impurity
decreases to [0, 1], scale by half the budget B, softmax, then draw by
inverse CDF. B = 0 gives uniform selection, B = math.inf gives a uniform
draw over the argmax set, and anything between interpolates; the normalized
scores keep the mechanism's sensitivity at one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoChoices

__all__ = [
    "ScoredChoices",
    "normalize",
    "softmax_scaled",
    "scored_choices",
    "sample_index",
    "sample_indices",
    "select_feature",
    "select_value",
    "feature_probability_bounds",
    "value_region_bound",
]


@dataclass(frozen=True)
class ScoredChoices:
    """Raw scores and the selection probabilities derived from them."""

    scores: np.ndarray
    probabilities: np.ndarray


def normalize(values: np.ndarray | list[float]) -> np.ndarray:
    """Min-max rescale each vector along the last axis to [0, 1].

    An all-equal vector maps to all zeros.
    """
    arr = np.asarray(values, dtype=np.float64)
    # a 1-D call (every draw in training) reduces to scalars, which is faster
    keep = arr.ndim > 1
    lo = arr.min(axis=-1, keepdims=keep)
    span = arr.max(axis=-1, keepdims=keep) - lo
    # an all-equal vector divides its zeros by 1
    return (arr - lo) / (span + (span == 0))


def softmax_scaled(normalized: np.ndarray | list[float], budget: float) -> np.ndarray:
    """Probabilities proportional to exp(budget/2 * x) along the last axis.

    ``budget`` may be ``math.inf``, which selects uniformly among the exact
    argmax entries (the greedy limit).
    """
    arr = np.asarray(normalized, dtype=np.float64)
    keep = arr.ndim > 1
    if math.isinf(budget):
        mask = arr == arr.max(axis=-1, keepdims=keep)
        return mask / mask.sum(axis=-1, keepdims=keep)
    z = 0.5 * budget * arr
    z -= z.max(axis=-1, keepdims=keep)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=keep)


def scored_choices(scores: np.ndarray | list[float], budget: float) -> ScoredChoices:
    """Normalize raw scores and attach their selection probabilities."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise NoChoices("cannot score an empty choice set")
    return ScoredChoices(scores=arr, probabilities=softmax_scaled(normalize(arr), budget))


def sample_indices(
    probabilities: np.ndarray, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw ``size`` indices by inverse CDF over the cumulative probabilities."""
    cum = np.cumsum(np.asarray(probabilities, dtype=np.float64))
    draws = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(draws, cum.size - 1)


def sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Draw one index; consumes exactly one uniform from ``rng``."""
    return int(sample_indices(probabilities, rng, 1)[0])


def select_feature(
    best_per_feature: np.ndarray | list[float], b1: float, rng: np.random.Generator
) -> int:
    """Sample a feature index from the multinomial over per-feature best decreases."""
    return sample_index(scored_choices(best_per_feature, b1).probabilities, rng)


def select_value(
    decreases_for_feature: np.ndarray | list[float], b2: float, rng: np.random.Generator
) -> int:
    """Sample a split-value index from the multinomial over one feature's decreases."""
    return sample_index(scored_choices(decreases_for_feature, b2).probabilities, rng)


def feature_probability_bounds(feature_count: int, b1: float) -> tuple[float, float]:
    """Closed-form lower/upper bound on any single feature's selection probability.

    Lower bound 1/(1 + (D-1)e^B1) is attained when every other feature
    normalizes to 1; upper bound e^B1/(e^B1 + D - 1) when this feature alone
    normalizes to 1. Computed via e^-B1 so large budgets stay finite.
    """
    if feature_count < 1:
        raise DomainError("feature_count must be >= 1")
    if not math.isfinite(b1) or b1 < 0:
        raise DomainError("b1 must be finite and nonnegative")
    damp = math.exp(-b1)
    lower = damp / (damp + (feature_count - 1))
    upper = 1.0 / (1.0 + (feature_count - 1) * damp)
    return lower, upper


def value_region_bound(partitions: int, b2: float) -> float:
    """Lower bound on picking a split value away from the feature's two end regions.

    For a feature range cut into ``partitions`` >= 3 equal pieces, the chance
    the chosen value lands in the interior pieces is at least
    ((N-2)/N) * e^(-2*B2).
    """
    if partitions < 3:
        raise DomainError("need at least 3 partitions")
    if b2 < 0:
        raise DomainError("b2 must be nonnegative")
    return (partitions - 2) / partitions * math.exp(-2.0 * b2)
