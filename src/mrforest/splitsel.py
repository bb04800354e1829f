"""Impurity-weighted multinomial selection of split features and values.

Each mechanism is split into its laws and its draws. A law is
``cumsum(softmax_scaled(x, B))``, where x is the raw impurity decreases
min-max normalized to [0, 1] (all zeros when they are all equal): scale by
half the budget B, softmax, and accumulate. :func:`selection_cdfs` builds many
laws at once, each over its own run of scores, into :class:`Laws`. A law built
alone is its run's law (its sums of eight or more terms add in another order
than ``softmax_scaled``'s, so the two agree up to rounding). Laws built with
one length given for all runs, as the privacy audits build theirs, are
bit-equal to the laws built alone; laws built from a list of run lengths, as a
tree level's feature laws and value laws are, take the running sum across runs
and equal them up to rounding, so a law's low bits depend on the runs batched
before it. :func:`sample_indices` makes one draw per given uniform, each from
the law it names: the first index whose cumulative probability exceeds the
uniform. :func:`select_feature` and :func:`select_value` are that draw under
each mechanism's name.

B = 0 gives uniform selection, B = math.inf gives a uniform draw over the
argmax set, and anything between interpolates; the normalized scores keep
the mechanism's sensitivity at one. The closed-form bounds state the paper's
selection envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "softmax_scaled",
    "Laws",
    "selection_cdfs",
    "sample_indices",
    "select_feature",
    "select_value",
    "feature_probability_bounds",
    "value_region_bound",
]


def softmax_scaled(normalized: np.ndarray | list[float], budget: float) -> np.ndarray:
    """Probabilities proportional to exp(budget/2 * x) along the last axis.

    ``budget`` may be ``math.inf``, which selects uniformly among the exact
    argmax entries (the greedy limit).
    """
    arr = np.asarray(normalized, dtype=np.float64)
    if math.isinf(budget):
        mask = arr == arr.max(axis=-1, keepdims=True)
        return mask / mask.sum(axis=-1, keepdims=True)
    z = 0.5 * budget * arr
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class Laws:
    """Cumulative laws end to end: law i is ``cdf[start[i] : start[i] + size[i]]``.

    ``key`` holds each entry as the complex number i + cdf j, which numpy
    orders by law first and then by cumulative probability, so one binary
    search over all laws draws from any of them.
    """

    cdf: np.ndarray
    start: np.ndarray
    size: np.ndarray

    @cached_property
    def key(self) -> np.ndarray:
        return np.repeat(np.arange(self.size.size), self.size) + 1j * self.cdf


def selection_cdfs(scores: np.ndarray, sizes: np.ndarray | int, budget: float) -> Laws:
    """The law of each run of ``scores`` at ``budget``, run i holding ``sizes[i]`` >= 1 scores.

    An int ``sizes`` is the length of every run; each law is then exactly the
    law it has alone (see the module docstring).
    """
    width = sizes if isinstance(sizes, (int, np.integer)) else None
    if width is not None:
        sizes = np.full(scores.size // width, width)
    start = sizes.cumsum() - sizes
    lo = np.minimum.reduceat(scores, start)
    span = np.maximum.reduceat(scores, start) - lo
    normalized = (scores - lo.repeat(sizes)) / (span + (span == 0)).repeat(sizes)
    # a run's largest normalized score is exactly 1, or 0 when its scores are all equal
    top = (span > 0).repeat(sizes)
    if math.isinf(budget):
        mass = (normalized == top).astype(np.float64)
    else:
        z = 0.5 * budget * normalized
        z -= 0.5 * budget * top
        mass = np.exp(z)
    mass /= np.add.reduceat(mass, start).repeat(sizes)
    if width is not None:
        # one run per row: each law is its run's own cumsum
        return Laws(mass.reshape(-1, width).cumsum(axis=1).ravel(), start, sizes)
    cdf = mass.cumsum()
    # each run's law starts from zero: take off the running sum before it
    before = np.zeros(sizes.size)
    before[1:] = cdf[start[1:] - 1]
    cdf -= before.repeat(sizes)
    return Laws(cdf, start, sizes)


def sample_indices(laws: Laws, which: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """For each i, the first index of law ``which[i]`` whose cumulative probability
    exceeds ``uniforms[i]``, clipped to the law's last index against rounding."""
    # the first entry above (which, uniform): in law ``which``, or the next law's first
    found = laws.key.searchsorted(which + 1j * uniforms, side="right") - laws.start[which]
    return np.minimum(found, laws.size[which] - 1)


def select_feature(laws: Laws, uniforms: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Draw split features: :func:`sample_indices` of feature laws, each over one node's
    best decrease per feature at budget b1."""
    return sample_indices(laws, which, uniforms)


def select_value(laws: Laws, uniforms: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Draw split values: :func:`sample_indices` of value laws, each over one feature's
    cut decreases at budget b2."""
    return sample_indices(laws, which, uniforms)


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
