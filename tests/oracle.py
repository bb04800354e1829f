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
each kind of tree with its own first-in first-out node loop, one node at a
time, where the library grows a level at a time, and return a ``TreeNode``
graph (:class:`GraphTree`). Each node the multinomial loop searches, and
that has a valid cut, takes a block of 15 uniforms and searches with them
replayed in order (:class:`Replay`); each node the greedy loop searches takes
D uniforms and splits on the first ``mtry`` features of their order.
:func:`depth_first_build_tree` is the library's multinomial grower as it was
before: depth first, each search drawing from the rng only the uniforms it
reads. :func:`v1_tree_doc` and :func:`v1_forest_doc` write the version 1
model document the library wrote before it stored trees as columns, and
:func:`v2_forest_doc` the version 2 document it wrote before level order
implied each split's children; the library reads neither. :func:`flat_tree`
numbers a ``TreeNode`` graph's nodes in level order and reads its columns as
a model's.
:func:`reference_sample_split` is the multinomial split search as it was
before the library checked feasibility with one mask per node: every
attempt rebuilds both mechanisms' laws, draws from them, and counts the
estimation rows its cut sends left; ``reference_build_tree`` searches with
it. :func:`inverse_cdf_draws` makes ``sample_indices``' inverse-CDF draw from
one law over many uniforms at once, and :func:`normalize` the min-max
rescaling that ``selection_cdfs`` applies to each run of scores.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from mrforest.impurity import cut_points, scan_features
from mrforest.splitsel import selection_cdfs, softmax_scaled
from mrforest.tree import Trees, TreeNode, read_trees

# (feature, value) samples of one split search, and the uniforms they can read
SPLIT_ATTEMPTS = 10
BLOCK = 15

GAP = 1e-9  # optima closer than this count as ties and disqualify a dataset


def normalize(values: np.ndarray | list[float]) -> np.ndarray:
    """Min-max rescale each vector along the last axis to [0, 1].

    An all-equal vector maps to all zeros.
    """
    arr = np.asarray(values, dtype=np.float64)
    lo = arr.min(axis=-1, keepdims=True)
    span = arr.max(axis=-1, keepdims=True) - lo
    # an all-equal vector divides its zeros by 1
    return (arr - lo) / (span + (span == 0))


def impurity_of(labels: np.ndarray, class_count: int, criterion: str = "gini") -> float:
    """Gini impurity or Shannon entropy in bits of a nonempty label vector."""
    counts = np.bincount(labels, minlength=class_count)
    p = counts[counts > 0] / labels.size
    if criterion == "entropy":
        return float(-(p * np.log2(p)).sum())
    return 1.0 - float((p * p).sum())


def naive_decrease(
    values: np.ndarray,
    labels: np.ndarray,
    threshold: float,
    class_count: int,
    criterion: str = "gini",
) -> float:
    left = labels[values <= threshold]
    right = labels[values > threshold]
    n = labels.size
    return (
        impurity_of(labels, class_count, criterion)
        - left.size / n * impurity_of(left, class_count, criterion)
        - right.size / n * impurity_of(right, class_count, criterion)
    )


# Cap on floats held by one vectorized scan block (D_block * m * K).
_REFERENCE_SCAN_BLOCK_BUDGET = 4 << 20


def _class_last_impurity(counts: np.ndarray, totals: np.ndarray, criterion: str) -> np.ndarray:
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
    raise ValueError(f"unknown impurity criterion {criterion!r}")


def reference_scan_features(values, labels, class_count, criterion="gini"):
    """``scan_features`` over a class-last (D, m, K) one-hot, as the library scanned
    before it kept one prefix-count plane per class."""
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

    rows_per_block = max(1, _REFERENCE_SCAN_BLOCK_BUDGET // (m * class_count))
    left_n = np.arange(1, m, dtype=np.int64)
    right_n = m - left_n
    for start in range(0, depth, rows_per_block):
        block = slice(start, min(start + rows_per_block, depth))
        onehot = labels[block, :, None] == np.arange(class_count)
        prefix = np.cumsum(onehot, axis=1, dtype=np.int64)
        total = prefix[:, -1, :]
        left = prefix[:, :-1, :]
        right = total[:, None, :] - left
        parent_imp = _class_last_impurity(total, np.asarray(m), criterion)
        child = (
            left_n / m * _class_last_impurity(left, left_n, criterion)
            + right_n / m * _class_last_impurity(right, right_n, criterion)
        )
        decreases[block] = parent_imp[:, None] - child

    np.copyto(decreases, 0.0, where=(decreases < 0.0) & (decreases > -1e-12))
    return valid, thresholds, decreases


def inverse_cdf_draws(probabilities: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Indices ``sample_indices`` draws from ``cumsum(probabilities)`` for each
    uniform: the first cumulative probability above it, clipped to the last index."""
    cum = np.cumsum(probabilities)
    return np.minimum(np.searchsorted(cum, uniforms, side="right"), cum.size - 1)


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


@dataclass
class GraphTree:
    """A tree as a ``TreeNode`` graph, the form the library stored before flat arrays."""

    root: TreeNode
    depth: int


def v1_tree_doc(tree, params: dict[str, Any] | None = None, seed: int | None = None) -> dict:
    """The version 1 document of a tree with ``root`` and ``depth``, as the library wrote it.

    A flat node list with child indices, root first, then the left subtree
    and then the right one; every node holds its depth, every leaf its
    counts and eta.
    """
    nodes: list[dict[str, Any]] = []
    stack: list[tuple[TreeNode, dict[str, Any] | None, str]] = [(tree.root, None, "")]
    while stack:
        node, parent_entry, side = stack.pop()
        if parent_entry is not None:
            parent_entry[side] = len(nodes)
        if node.is_leaf:
            nodes.append({
                "kind": "leaf",
                "depth": node.depth,
                "counts": [int(c) for c in node.counts],
                "eta": [float(p) for p in node.eta],
            })
            continue
        entry = {
            "kind": "split",
            "depth": node.depth,
            "feature": int(node.feature),
            "threshold": float(node.threshold),
            "left": -1,
            "right": -1,
        }
        nodes.append(entry)
        stack.append((node.right, entry, "right"))
        stack.append((node.left, entry, "left"))
    return {
        "version": 1,
        "nodes": nodes,
        "depth": tree.depth,
        "params": _infinities_named(params or {}),
        "seed": seed,
    }


def _infinities_named(values: dict[str, Any]) -> dict[str, Any]:
    return {
        key: ("inf" if isinstance(value, float) and math.isinf(value) else value)
        for key, value in values.items()
    }


def v1_forest_doc(forest) -> dict:
    """The version 1 model document of ``forest``, as the library wrote it.

    Each tree carries the parameters its builder recorded and its index as
    its seed.
    """
    config = forest.config
    if forest.variant == "breiman":
        mtry = config.mtry or max(1, math.isqrt(len(forest.feature_names)))
        params = {"variant": "breiman", "k": config.k, "mtry": mtry, "criterion": config.criterion}
    else:
        params = {
            "variant": "mrf",
            "b1": config.b1,
            "b2": config.b2,
            "k": config.k,
            "criterion": config.criterion,
            "max_depth": config.max_depth,
        }
    return {
        "format": "mrforest",
        "version": 1,
        "variant": forest.variant,
        "config": _infinities_named(asdict(config)),
        "class_count": forest.class_count,
        "label_values": list(forest.label_values),
        "feature_names": list(forest.feature_names),
        "trees": [v1_tree_doc(tree, params, seed) for seed, tree in enumerate(forest.trees)],
    }


def flat_tree(root: TreeNode, class_count: int, feature_count: int) -> Trees:
    """The library's tree of a ``TreeNode`` graph, its nodes numbered in level order
    as the grower numbers them, and its columns checked by the model reader."""
    feature, threshold, counts = [], [], []
    queue = deque([root])
    while queue:
        node = queue.popleft()
        if node.is_leaf:
            feature.append(-1)
            counts.append([int(c) for c in node.counts])
            continue
        feature.append(int(node.feature))
        threshold.append(float(node.threshold))
        queue += (node.left, node.right)
    columns = {"feature": feature, "threshold": threshold, "counts": counts}
    return read_trees([columns], class_count, feature_count)


def v2_forest_doc(forest) -> dict:
    """The version 2 model document of ``forest``, as the library wrote it.

    Each tree's columns list every node: its feature, its threshold (0 at
    leaves) and its left child (-1 at leaves), and the leaves' counts.
    """
    doc = forest.to_dict()
    doc["version"] = 2
    doc["trees"] = [
        {
            "feature": tree.feature.tolist(),
            "threshold": tree.threshold.tolist(),
            "left": np.where(tree.feature == -1, -1, tree.left).tolist(),
            "counts": tree.counts.tolist(),
        }
        for tree in forest.trees
    ]
    return doc


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
    """Probabilities of the law a tree draws from at a node with these scores alone.

    A draw takes the first index whose cumulative probability exceeds its
    uniform, clipped to the last index, so the last output takes what the
    others leave of 1.
    """
    cdf = selection_cdfs(scores, np.array([scores.size]), budget).cdf
    return np.diff(np.append(cdf[:-1], 1.0), prepend=0.0)


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
    valid, _ = cut_points(x[sorted_pos, cols])
    decreases = scan_features(y[sorted_pos], class_count, criterion)
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
    parent_imp = _class_last_impurity(total, np.asarray(n), criterion)
    child = left_n / n * _class_last_impurity(left_counts, left_n, criterion) + (
        right_n / n
    ) * _class_last_impurity(total[None, :] - left_counts, right_n, criterion)
    decreases = np.where((left_n > 0) & (right_n > 0), parent_imp - child, 0.0)
    return np.maximum(decreases, 0.0)


def _midpoints(x: np.ndarray, feature: int) -> np.ndarray:
    """Midpoints of adjacent distinct values, less any that rounds onto the upper one."""
    values = np.unique(x[:, feature])
    midpoints = 0.5 * (values[:-1] + values[1:])
    return midpoints[midpoints < values[1:]]


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
        if not np.array_equal(own, grid):
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


def _draw_rebuilding_law(scores, budget, rng) -> int:
    """One mechanism draw that builds its law from the scores for this draw alone."""
    cum = np.cumsum(softmax_scaled(normalize(scores), budget))
    return min(int(np.searchsorted(cum, rng.random(), side="right")), cum.size - 1)


def sorted_positions(x: np.ndarray) -> np.ndarray:
    """Row j lists the row positions sorted by feature j, ties by position."""
    return np.argsort(x, axis=0, kind="stable").T.copy()


def gather_sorted(x: np.ndarray, sorted_pos: np.ndarray, features=None) -> np.ndarray:
    """Row i holds the values of feature ``features[i]`` (default i) in row i's order."""
    cols = np.arange(sorted_pos.shape[0]) if features is None else np.asarray(features)
    return x[sorted_pos, cols[:, None]]


class Replay:
    """Stands in for an rng whose ``random()`` returns the given uniforms in order."""

    def __init__(self, uniforms: np.ndarray) -> None:
        self._uniforms = iter(uniforms)

    def random(self) -> float:
        return float(next(self._uniforms))


def reference_sample_split(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng, trace=None):
    """The split search drawing both mechanisms on every attempt, with no feasibility mask.

    Each attempt rebuilds the laws it draws from and counts the estimation
    rows its cut sends left; the search returns ``(feature, threshold,
    est_left)`` for the first cut that leaves ``k`` on each side, or None
    after ``SPLIT_ATTEMPTS`` attempts. ``trace``, when given, gets each
    attempt's feature.
    """
    valid, thresholds = cut_points(gather_sorted(xs, sorted_pos))
    decreases = scan_features(ys[sorted_pos], class_count, config.criterion)
    best = np.where(valid, decreases, -np.inf).max(axis=1)
    eligible = np.flatnonzero(best > -np.inf)
    if eligible.size == 0:
        return None

    k = config.k
    est_col_cache: dict[int, np.ndarray] = {}
    feature = -1
    for attempt in range(SPLIT_ATTEMPTS):
        if attempt % 2 == 0:  # even attempts redraw the feature, odd ones the value
            feature = int(eligible[_draw_rebuilding_law(best[eligible], config.b1, rng)])
        if trace is not None:
            trace.append(feature)
        positions = np.flatnonzero(valid[feature])
        choice = _draw_rebuilding_law(decreases[feature, positions], config.b2, rng)
        threshold = thresholds[feature, positions[choice]]
        if feature not in est_col_cache:
            est_col_cache[feature] = xe[est_pos, feature]
        est_left = est_col_cache[feature] <= threshold
        left_n = int(est_left.sum())
        # structure children are nonempty by construction: valid thresholds
        # lie strictly between two observed structure values
        if left_n >= k and est_pos.size - left_n >= k:
            return feature, float(threshold), est_left
    return None


def reference_node_split(
    xs, ys, xe, sorted_pos, est_pos, class_count, config, depth, rng, trace=None
):
    """One node's split as the level grower decides it, searched on its own.

    A node past the gate with a valid cut takes ``rng.random(15)`` and runs
    :func:`reference_sample_split` on those uniforms replayed; any other
    node is a leaf and draws nothing.
    """
    capped = config.max_depth is not None and depth >= config.max_depth
    if capped or est_pos.size <= config.k or sorted_pos.shape[1] < 2:
        return None
    valid, _ = cut_points(gather_sorted(xs, sorted_pos))
    if not valid.any():
        return None
    block = Replay(rng.random(BLOCK))
    return reference_sample_split(
        xs, ys, xe, sorted_pos, est_pos, class_count, config, block, trace
    )


def _children(x, sorted_pos, feature, threshold):
    """A node's left and right children's sorted positions, each row filtered in order."""
    goes_left = x[sorted_pos, feature] <= threshold
    rows, m = sorted_pos.shape
    left_n = int(goes_left[0].sum())
    return (
        sorted_pos[goes_left].reshape(rows, left_n),
        sorted_pos[~goes_left].reshape(rows, m - left_n),
    )


def _grow_reference(xs, ye, class_count, search):
    """A ``TreeNode`` graph grown one node at a time, first in first out, from
    ``search(node, sorted_pos, est_pos)``, which returns None for a leaf or
    ``(feature, threshold, est_left)``."""
    root = TreeNode(depth=0)
    pending = deque([(root, sorted_positions(xs), np.arange(ye.size))])
    tree_depth = 0
    while pending:
        node, sorted_pos, est_pos = pending.popleft()
        split = search(node, sorted_pos, est_pos)
        if split is None:
            node.counts = np.bincount(ye[est_pos], minlength=class_count)
            node.eta = node.counts / est_pos.size
            tree_depth = max(tree_depth, node.depth)
            continue
        node.feature, node.threshold, est_left = split
        node.left, node.right = TreeNode(depth=node.depth + 1), TreeNode(depth=node.depth + 1)
        left_sorted, right_sorted = _children(xs, sorted_pos, node.feature, node.threshold)
        pending.append((node.left, left_sorted, est_pos[est_left]))
        pending.append((node.right, right_sorted, est_pos[~est_left]))
    return GraphTree(root, tree_depth)


def _mrf_rows(dataset, structure_idx, estimation_idx):
    xs = np.ascontiguousarray(dataset.features[structure_idx])
    xe = np.ascontiguousarray(dataset.features[estimation_idx])
    return xs, dataset.labels[structure_idx], xe, dataset.labels[estimation_idx]


def reference_build_tree(dataset, structure_idx, estimation_idx, config, rng):
    """``build_tree`` one node at a time, first in first out, each node split as
    :func:`reference_node_split` splits it."""
    xs, ys, xe, ye = _mrf_rows(dataset, structure_idx, estimation_idx)

    def search(node, sorted_pos, est_pos):
        return reference_node_split(
            xs, ys, xe, sorted_pos, est_pos, dataset.class_count, config, node.depth, rng
        )

    return _grow_reference(xs, ye, dataset.class_count, search)


def depth_first_build_tree(dataset, structure_idx, estimation_idx, config, rng) -> Trees:
    """``build_tree`` as the library grew trees before it grew a level at a time.

    Depth first, right subtree first, into a ``TreeNode`` graph that
    :func:`flat_tree` numbers in level order. Each search draws from ``rng``
    only the uniforms its attempts read: none without a valid cut, all 15
    when no cut is feasible, and otherwise until an attempt hits a feasible
    cut.
    """
    xs, ys, xe, ye = _mrf_rows(dataset, structure_idx, estimation_idx)
    class_count = dataset.class_count
    member = np.zeros(xs.shape[0], dtype=bool)
    root = TreeNode(depth=0)
    stack = [(root, sorted_positions(xs), np.arange(ye.size))]
    while stack:
        node, sorted_pos, est_pos = stack.pop()
        capped = config.max_depth is not None and node.depth >= config.max_depth
        split = None
        if not (capped or est_pos.size <= config.k or sorted_pos.shape[1] < 2):
            split = _depth_first_search(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng)
        if split is None:
            node.counts = np.bincount(ye[est_pos], minlength=class_count)
            continue
        node.feature, node.threshold, est_left = split
        node.left, node.right = TreeNode(depth=node.depth + 1), TreeNode(depth=node.depth + 1)
        rows = sorted_pos[0]
        left_rows = rows[xs[rows, node.feature] <= node.threshold]
        member[left_rows] = True
        keep = member[sorted_pos]
        member[left_rows] = False
        features, m = sorted_pos.shape
        left_sorted = sorted_pos[keep].reshape(features, left_rows.size)
        right_sorted = sorted_pos[~keep].reshape(features, m - left_rows.size)
        stack.append((node.left, left_sorted, est_pos[est_left]))
        stack.append((node.right, right_sorted, est_pos[~est_left]))
    return flat_tree(root, class_count, xs.shape[1])


def _depth_first_search(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng):
    """The depth-first grower's split search: laws built once, draws straight from ``rng``."""
    valid, thresholds = cut_points(gather_sorted(xs, sorted_pos))
    if not valid.any():
        return None
    k, n_est = config.k, est_pos.size
    bounds = np.partition(xe[est_pos], (k - 1, n_est - k), axis=0)
    lo, hi = bounds[k - 1, :, None], bounds[n_est - k, :, None]
    feasible = valid & (lo <= thresholds) & (thresholds < hi)
    if not feasible.any():
        rng.random(BLOCK)
        return None
    decreases = scan_features(ys[sorted_pos], class_count, config.criterion)
    best = np.where(valid, decreases, -np.inf).max(axis=1)
    eligible = np.flatnonzero(best > -np.inf)
    feature_cdf = np.cumsum(softmax_scaled(normalize(best[eligible]), config.b1))
    reachable = feasible.any(axis=1)
    value_laws: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    feature = -1
    for attempt in range(SPLIT_ATTEMPTS):
        if attempt % 2 == 0:  # even attempts draw a feature and a value, odd ones a value
            feature = int(eligible[_inverse_cdf_draw(feature_cdf, rng)])
        if not reachable[feature]:  # its value draw can only fail: spend the uniform
            rng.random()
            continue
        if feature not in value_laws:
            positions = np.flatnonzero(valid[feature])
            scores = decreases[feature, positions]
            value_laws[feature] = positions, np.cumsum(softmax_scaled(normalize(scores), config.b2))
        positions, value_cdf = value_laws[feature]
        cut = positions[_inverse_cdf_draw(value_cdf, rng)]
        if feasible[feature, cut]:
            threshold = thresholds[feature, cut]
            return feature, float(threshold), xe[est_pos, feature] <= threshold
    return None


def _inverse_cdf_draw(cdf, rng) -> int:
    return min(int(cdf.searchsorted(rng.random(), side="right")), cdf.size - 1)


def reference_build_baseline_tree(x, y, class_count, k, mtry, criterion, rng):
    """``build_baseline_tree`` one node at a time, first in first out, with its own
    feature subsets, child filtering and leaf emission."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)

    def search(node, sorted_pos, est_pos):
        m = est_pos.size
        if m <= k or np.bincount(y[est_pos]).max() == m:
            return None
        order = np.argsort(rng.random(x.shape[1]), kind="stable")
        subset = np.sort(order[:mtry])
        valid, thresholds = cut_points(gather_sorted(x, sorted_pos[subset], subset))
        decreases = scan_features(y[sorted_pos[subset]], class_count, criterion)
        masked = np.where(valid, decreases, -np.inf)
        if not np.isfinite(masked.max()):
            return None
        feat_row, pos = divmod(int(np.argmax(masked)), masked.shape[1])
        feature, threshold = int(subset[feat_row]), float(thresholds[feat_row, pos])
        return feature, threshold, x[est_pos, feature] <= threshold

    return _grow_reference(x, y, class_count, search)
