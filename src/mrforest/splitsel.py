"""Impurity-weighted multinomial selection of split features and values.

Each mechanism is split into its laws and its draws. A law is
``cumsum(softmax_scaled(x, B))``, where x is the raw impurity decreases
min-max normalized to [0, 1] (all zeros when they are all equal): scale by
half the budget B, softmax, and accumulate. A score of -inf marks an output
that cannot be drawn, a feature without a valid cut: it gets no mass, and the
other scores are normalized among themselves. :func:`selection_cdfs` builds
many laws at once, each over its own run of scores, into :class:`Laws`. A law
built alone is its run's law (its sums of eight or more terms add in another
order than ``softmax_scaled``'s, so the two agree up to rounding). Laws built
with one length given for all runs are rows of one matrix, each its own
cumsum, and so bit-equal to the laws built alone: a tree level's feature laws,
one per searched node over all D features, and the privacy audits' laws are
built so, and training and the audits draw from and score the same law.
Laws built from a list of run lengths, as a tree level's value laws are, take
the running sum across runs and equal the laws built alone only up to
rounding, so a value law's low bits depend on the runs batched before it.

:func:`select_feature` draws from feature laws by counting each law's steps at
or below the uniform; :func:`select_value` draws from value laws by one binary
search over all of them. Both take the first index whose cumulative
probability exceeds the uniform, and the law's last drawable index when
rounding leaves none.

B = 0 gives uniform selection, B = math.inf gives a uniform draw over the
argmax set, and anything between interpolates; the normalized scores keep
the mechanism's sensitivity at one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["softmax_scaled", "Laws", "selection_cdfs", "select_feature", "select_value"]


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
    """The law of each run of ``scores`` at ``budget``, run i holding ``sizes[i]`` >= 1
    scores, at least one of them finite.

    A -inf score gets no mass. An int ``sizes`` is the length of every run;
    each law is then exactly the law it has alone (see the module docstring).
    """
    width = sizes if isinstance(sizes, (int, np.integer)) else None
    if width is not None:
        sizes = np.full(scores.size // width, width)
    start = sizes.cumsum() - sizes
    scored = scores > -np.inf
    lo = np.minimum.reduceat(np.where(scored, scores, np.inf), start)
    span = np.maximum.reduceat(scores, start) - lo
    # a -inf score stays -inf, so exp and the argmax test give it no mass; at budget 0,
    # where 0 * -inf would be NaN, the mass is read off ``scored``
    normalized = (scores - lo.repeat(sizes)) / (span + (span == 0)).repeat(sizes)
    # a run's largest normalized score is exactly 1, or 0 when its scores are all equal
    top = (span > 0).repeat(sizes)
    if budget == 0:
        mass = scored.astype(np.float64)
    elif math.isinf(budget):
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


def select_feature(cdfs: np.ndarray, uniforms: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Draw split features: for each node i, one feature per uniform of ``uniforms[i]``
    from its feature law ``cdfs[i]`` (over all D features at budget b1).

    A draw counts the law's steps at or below its uniform, capped at ``last[i]``,
    the node's last feature with a valid cut: a feature without one has no mass,
    so its step equals the one before and the count passes over it, and the cap
    keeps a trailing one from being drawn where rounding leaves the law below 1.
    """
    count = (cdfs[:, None, :] <= uniforms[:, :, None]).sum(axis=2)
    return np.minimum(count, last[:, None])


def select_value(laws: Laws, uniforms: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Draw split values: for each i, the first index of value law ``which[i]`` (over
    one feature's cut decreases at budget b2) whose cumulative probability exceeds
    ``uniforms[i]``, clipped to the law's last index against rounding."""
    # the first entry above (which, uniform): in law ``which``, or the next law's first
    found = laws.key.searchsorted(which + 1j * uniforms, side="right") - laws.start[which]
    return np.minimum(found, laws.size[which] - 1)
