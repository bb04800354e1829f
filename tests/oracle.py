"""Independent brute-force oracles for cross-checking trees, prediction and audits.

Everything here recomputes impurity from scratch per candidate threshold
(no sorted sweep, no shared code with the library's scan) so the greedy-limit
equivalence tests compare two genuinely independent implementations.
:func:`walk_votes` predicts by walking each tree's node graph, one tree at a
time, as the library did before it compiled trees into flat arrays.
The ``reference_*`` audits score one neighbor at a time and scan the ratios
in a sequential loop, as the library did before it scored all neighbors in
one batched pass; they return ``AuditReport.to_dict()`` documents.
:func:`reference_build_tree` and :func:`reference_build_baseline_tree` grow
each kind of tree with its own node loop, as the library did before both
became split rules over one grower; they share its split search.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from mrforest.impurity import _impurity_of, scan_features
from mrforest.tree import Tree, TreeNode, _gather_sorted, _sample_split, _sorted_index_matrix

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


def reference_neighbors(x: np.ndarray, y: np.ndarray, records=None) -> list:
    """(description, x, y) of every one-record neighbor, each its own copy."""
    n = x.shape[0]
    if records is None:
        records = [(x[i], int(label)) for i in range(n) for label in np.unique(y)]
    neighbors = []
    for row in range(n):
        for rec_idx, (features, label) in enumerate(records):
            if label == y[row] and np.array_equal(features, x[row]):
                continue
            x2, y2 = x.copy(), y.copy()
            x2[row], y2[row] = features, label
            neighbors.append(({"kind": "replace", "row": row, "record": rec_idx}, x2, y2))
        if n > 1:
            keep = np.arange(n) != row
            neighbors.append(({"kind": "remove", "row": row}, x[keep], y[keep]))
    return neighbors


def _selection(scores: np.ndarray, budget: float) -> np.ndarray:
    lo, hi = scores.min(), scores.max()
    normalized = np.zeros_like(scores) if hi == lo else (scores - lo) / (hi - lo)
    z = 0.5 * budget * normalized
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _report(mechanism, budget, base, neighbor_probs, descriptions, mismatches=0) -> dict[str, Any]:
    worst = 1.0
    witness: dict[str, Any] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for desc, probs in zip(descriptions, neighbor_probs):
            ratio = np.maximum(base / probs, probs / base)
            idx = int(np.argmax(ratio))
            if ratio[idx] > worst:
                worst = float(ratio[idx])
                witness = {"neighbor": desc, "output": idx, "ratio": worst}
    bound = math.exp(budget)
    return {
        "mechanism": mechanism,
        "budget": budget,
        "worst_ratio": worst,
        "bound": bound,
        "passed": worst <= bound * (1.0 + 1e-9),
        "witness": witness,
        "neighbor_count": len(neighbor_probs),
        "candidate_mismatches": mismatches,
    }


def _root_scores(x: np.ndarray, y: np.ndarray, class_count: int, criterion: str) -> np.ndarray:
    if x.shape[0] < 2:
        return np.zeros(x.shape[1])
    sorted_pos = np.argsort(x, axis=0, kind="stable").T
    cols = np.arange(x.shape[1])[:, None]
    valid, _, decreases = scan_features(x[sorted_pos, cols], y[sorted_pos], class_count, criterion)
    best = np.where(valid, decreases, -np.inf).max(axis=1)
    return np.where(np.isfinite(best), best, 0.0)


def _grid_scores(x, y, feature, grid, class_count, criterion) -> np.ndarray:
    n = x.shape[0]
    if n == 0:
        return np.zeros(grid.size)
    left_mask = x[:, feature][None, :] <= grid[:, None]
    onehot = (y[:, None] == np.arange(class_count)).astype(np.int64)
    left_counts = left_mask @ onehot
    total = onehot.sum(axis=0)
    left_n = left_mask.sum(axis=1)
    right_n = n - left_n
    parent_imp = _impurity_of(total, np.asarray(n), criterion)
    child = left_n / n * _impurity_of(left_counts, left_n, criterion) + (
        right_n / n
    ) * _impurity_of(total[None, :] - left_counts, right_n, criterion)
    decreases = np.where((left_n > 0) & (right_n > 0), parent_imp - child, 0.0)
    return np.maximum(decreases, 0.0)


def _midpoints(x: np.ndarray, feature: int) -> np.ndarray:
    values = np.unique(x[:, feature])
    return 0.5 * (values[:-1] + values[1:])


def reference_feature_audit(micro, b1, criterion="gini", records=None) -> dict[str, Any]:
    x, y, k = micro.features, micro.labels, micro.class_count
    neighbors = reference_neighbors(x, y, records)
    base = _selection(_root_scores(x, y, k, criterion), b1)
    probs = [_selection(_root_scores(x2, y2, k, criterion), b1) for _, x2, y2 in neighbors]
    return _report("feature", b1, base, probs, [desc for desc, _, _ in neighbors])


def reference_value_audit(micro, feature, b2, criterion="gini", grid=None, records=None):
    x, y, k = micro.features, micro.labels, micro.class_count
    neighbors = reference_neighbors(x, y, records)
    grid = _midpoints(x, feature) if grid is None else np.asarray(grid, dtype=np.float64)
    base = _selection(_grid_scores(x, y, feature, grid, k, criterion), b2)
    probs, mismatches = [], 0
    for _, x2, y2 in neighbors:
        probs.append(_selection(_grid_scores(x2, y2, feature, grid, k, criterion), b2))
        own = _midpoints(x2, feature)
        if own.size != grid.size or not np.allclose(own, grid):
            mismatches += 1
    descs = [desc for desc, _, _ in neighbors]
    return _report("value", b2, base, probs, descs, mismatches)


def reference_label_audit(counts: np.ndarray, b3: float) -> dict[str, Any]:
    total = int(counts.sum())

    def probs_of(c: np.ndarray) -> np.ndarray:
        eta = c / c.sum()
        z = 0.5 * b3 * eta
        z -= z.max()
        e = np.exp(z)
        return e / e.sum()

    descs, probs = [], []
    for i in range(counts.size):
        if counts[i] == 0:
            continue
        for j in range(counts.size):
            if j == i:
                continue
            changed = counts.copy()
            changed[i] -= 1
            changed[j] += 1
            descs.append({"kind": "relabel", "from": i, "to": j})
            probs.append(probs_of(changed))
        if total > 1:
            removed = counts.copy()
            removed[i] -= 1
            descs.append({"kind": "remove", "label": i})
            probs.append(probs_of(removed))
    return _report("label", b3, probs_of(counts), probs, descs)


def _leaf_distribution(labels: np.ndarray, class_count: int, parent: np.ndarray | None) -> np.ndarray:
    # an empty leaf inherits its parent's distribution, uniform without a parent
    if labels.size == 0:
        return parent if parent is not None else np.full(class_count, 1.0 / class_count)
    return np.bincount(labels, minlength=class_count) / labels.size


def reference_build_tree(dataset, structure_idx, estimation_idx, config, rng, seed=None):
    """``build_tree`` with its own stack walk, child filtering and leaf emission."""
    xs = np.ascontiguousarray(dataset.features[structure_idx])
    ys = dataset.labels[structure_idx]
    xe = np.ascontiguousarray(dataset.features[estimation_idx])
    ye = dataset.labels[estimation_idx]
    class_count = dataset.class_count
    k, max_depth = config.k, config.max_depth
    member = np.zeros(xs.shape[0], dtype=bool)
    root = TreeNode(depth=0)
    tree_max_depth = 0
    stack = [(root, _sorted_index_matrix(xs), np.arange(xe.shape[0]), None)]
    while stack:
        node, sorted_pos, est_pos, parent_eta = stack.pop()
        m = sorted_pos.shape[1]
        split = None
        if est_pos.size > k and m >= 2 and (max_depth is None or node.depth < max_depth):
            split = _sample_split(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng)
        if split is None:
            node.counts = np.bincount(ye[est_pos], minlength=class_count)
            node.eta = _leaf_distribution(ye[est_pos], class_count, parent_eta)
            tree_max_depth = max(tree_max_depth, node.depth)
            continue
        feature, threshold, est_left_mask = split
        node.feature = feature
        node.threshold = float(threshold)
        node.left = TreeNode(depth=node.depth + 1)
        node.right = TreeNode(depth=node.depth + 1)
        rows = sorted_pos[0]
        left_rows = rows[xs[rows, feature] <= threshold]
        member[left_rows] = True
        keep = member[sorted_pos]
        member[left_rows] = False
        left_sorted = sorted_pos[keep].reshape(sorted_pos.shape[0], left_rows.size)
        right_sorted = sorted_pos[~keep].reshape(sorted_pos.shape[0], m - left_rows.size)
        node_eta = _leaf_distribution(ye[est_pos], class_count, parent_eta)
        stack.append((node.left, left_sorted, est_pos[est_left_mask], node_eta))
        stack.append((node.right, right_sorted, est_pos[~est_left_mask], node_eta))
    params = {
        "variant": "mrf",
        "b1": config.b1,
        "b2": config.b2,
        "k": config.k,
        "criterion": config.criterion,
        "max_depth": config.max_depth,
    }
    return Tree(root=root, depth=tree_max_depth, params=params, seed=seed)


def reference_build_baseline_tree(x, y, class_count, k, mtry, criterion, rng):
    """``build_baseline_tree`` with its own stack walk, child filtering and leaf emission."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, feature_count = x.shape
    member = np.zeros(n, dtype=bool)
    root = TreeNode(depth=0)
    tree_max_depth = 0
    stack = [(root, _sorted_index_matrix(x))]
    while stack:
        node, sorted_pos = stack.pop()
        rows = sorted_pos[0]
        m = rows.size
        counts = np.bincount(y[rows], minlength=class_count)
        split = None
        if m > k and counts.max() < m:
            subset = np.sort(rng.choice(feature_count, size=mtry, replace=False))
            valid, thresholds, decreases = scan_features(
                _gather_sorted(x, sorted_pos[subset], subset),
                y[sorted_pos[subset]],
                class_count,
                criterion,
            )
            masked = np.where(valid, decreases, -np.inf)
            if np.isfinite(masked.max()):
                feat_row, pos = divmod(int(np.argmax(masked)), masked.shape[1])
                split = (int(subset[feat_row]), float(thresholds[feat_row, pos]))
        if split is None:
            node.counts = counts
            node.eta = counts / m
            tree_max_depth = max(tree_max_depth, node.depth)
            continue
        feature, threshold = split
        node.feature = feature
        node.threshold = threshold
        node.left = TreeNode(depth=node.depth + 1)
        node.right = TreeNode(depth=node.depth + 1)
        left_rows = rows[x[rows, feature] <= threshold]
        member[left_rows] = True
        keep = member[sorted_pos]
        member[left_rows] = False
        stack.append((node.left, sorted_pos[keep].reshape(sorted_pos.shape[0], left_rows.size)))
        stack.append((node.right, sorted_pos[~keep].reshape(sorted_pos.shape[0], m - left_rows.size)))
    params = {"variant": "breiman", "k": k, "mtry": mtry, "criterion": criterion}
    return Tree(root=root, depth=tree_max_depth, params=params)
