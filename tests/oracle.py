"""Independent brute-force oracles for cross-checking trees and prediction.

Everything here recomputes impurity from scratch per candidate threshold
(no sorted sweep, no shared code with the library's scan) so the greedy-limit
equivalence tests compare two genuinely independent implementations.
:func:`walk_votes` predicts by walking each tree's node graph, one tree at a
time, as the library did before it compiled trees into flat arrays.
"""

from __future__ import annotations

import math

import numpy as np

GAP = 1e-9  # optima closer than this count as ties and disqualify a dataset


def gini_of(labels: np.ndarray, class_count: int) -> float:
    counts = np.bincount(labels, minlength=class_count)
    p = counts / labels.size
    return 1.0 - float((p * p).sum())


def naive_decrease(
    values: np.ndarray, labels: np.ndarray, threshold: float, class_count: int
) -> float:
    left = labels[values <= threshold]
    right = labels[values > threshold]
    n = labels.size
    return (
        gini_of(labels, class_count)
        - left.size / n * gini_of(left, class_count)
        - right.size / n * gini_of(right, class_count)
    )


class TieError(Exception):
    """Raised when a node's optimum is not unique (dataset must be rejected)."""


def _best_split(
    xs: np.ndarray, ys: np.ndarray, rows: np.ndarray, class_count: int
) -> tuple[int, float] | None:
    """Unique greedy optimum: argmax feature by best decrease, then argmax value.

    Uniqueness is required only where the greedy limit actually chooses: at
    the top of the cross-feature score vector and at the top of the selected
    feature's own decreases.
    """
    feature_best: list[tuple[int, float, np.ndarray]] = []
    for j in range(xs.shape[1]):
        values = xs[rows, j]
        distinct = np.unique(values)
        if distinct.size < 2:
            continue
        thresholds = 0.5 * (distinct[:-1] + distinct[1:])
        decs = np.asarray(
            [naive_decrease(values, ys[rows], thr, class_count) for thr in thresholds]
        )
        feature_best.append((j, thresholds, decs))
    if not feature_best:
        return None
    scores = np.asarray([decs.max() for _, _, decs in feature_best])
    if scores.size > 1:
        top_two = np.sort(scores)[-2:]
        if top_two[1] - top_two[0] < GAP:
            raise TieError("feature-level tie")
    j, thresholds, decs = feature_best[int(np.argmax(scores))]
    if decs.size > 1:
        top_two = np.sort(decs)[-2:]
        if top_two[1] - top_two[0] < GAP:
            raise TieError("value-level tie in the selected feature")
    return j, float(thresholds[int(np.argmax(decs))])


def exhaustive_cart(
    xs: np.ndarray,
    ys: np.ndarray,
    xe: np.ndarray,
    ye: np.ndarray,
    k: int,
    class_count: int,
    max_depth: int | None = None,
):
    """Greedy-limit mirror of the multinomial builder with brute-force decreases.

    Returns a nested tuple tree: ("leaf", counts_tuple) or
    ("split", feature, threshold, left, right). Raises TieError when any
    expanded node lacks a unique optimum.
    """

    def grow(s_rows: np.ndarray, e_rows: np.ndarray, depth: int):
        def leaf():
            counts = np.bincount(ye[e_rows], minlength=class_count)
            return ("leaf", tuple(int(c) for c in counts))

        if e_rows.size <= k or s_rows.size < 2:
            return leaf()
        if max_depth is not None and depth >= max_depth:
            return leaf()
        best = _best_split(xs, ys, s_rows, class_count)
        if best is None:
            return leaf()
        feature, threshold = best
        e_left = e_rows[xe[e_rows, feature] <= threshold]
        e_right = e_rows[xe[e_rows, feature] > threshold]
        if e_left.size < k or e_right.size < k:
            # the deterministic greedy limit resamples the same split, so it
            # exhausts its attempts and falls back to a leaf
            return leaf()
        s_left = s_rows[xs[s_rows, feature] <= threshold]
        s_right = s_rows[xs[s_rows, feature] > threshold]
        return (
            "split",
            feature,
            threshold,
            grow(s_left, e_left, depth + 1),
            grow(s_right, e_right, depth + 1),
        )

    return grow(np.arange(xs.shape[0]), np.arange(xe.shape[0]), 0)


def tree_shape(node) -> tuple:
    """Nested-tuple form of a library tree for comparison against the oracle."""
    if node.is_leaf:
        return ("leaf", tuple(int(c) for c in node.counts))
    return (
        "split",
        int(node.feature),
        float(node.threshold),
        tree_shape(node.left),
        tree_shape(node.right),
    )


def walk_eta(tree, x: np.ndarray, class_count: int) -> np.ndarray:
    """Leaf class distribution of each row, routing row sets node by node."""
    out = np.empty((x.shape[0], class_count))
    stack = [(tree.root, np.arange(x.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if node.is_leaf:
            out[idx] = node.eta
            continue
        go_left = x[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def walk_votes(forest, x: np.ndarray, rng: np.random.Generator | None = None):
    """Classes and (t, n) votes of ``forest``, tree by tree and row by row.

    Finite b3 draws one uniform per row for each tree in turn and counts the
    classes whose softmax cdf lies at or below it; the forest takes the
    majority vote, ties toward the lowest class.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    votes = np.empty((len(forest.trees), n), dtype=np.int64)
    for i, tree in enumerate(forest.trees):
        eta = walk_eta(tree, x, forest.class_count)
        if math.isinf(forest.b3):
            votes[i] = np.argmax(eta, axis=1)
            continue
        z = 0.5 * forest.b3 * eta
        z -= z.max(axis=1, keepdims=True)
        probs = np.exp(z)
        probs /= probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        draws = (cum <= rng.random(n)[:, None]).sum(axis=1)
        votes[i] = np.minimum(draws, forest.class_count - 1)
    tallies = np.zeros((forest.class_count, n), dtype=np.int64)
    for row in votes:
        tallies[row, np.arange(n)] += 1
    return np.argmax(tallies, axis=0), votes
