"""Decision tree construction and prediction for multinomial random forests.

A tree is grown from structure rows only; estimation rows ride along and
set the per-leaf class distributions. Nodes keep per-feature index slices
sorted once at tree start and filtered downward, so each node's candidate
scan is one vectorized pass. Split selection composes the two multinomial
mechanisms; a sampled split is accepted only if both children keep at least
``k`` estimation rows and one structure row, with resampling (value first,
then feature, ten attempts total) before giving up and emitting a leaf.

The ``TreeNode`` graph under ``Tree.root`` is the one stored form of a tree.
Prediction runs on a compiled form: :func:`compile_trees` copies all trees of
a forest into flat per-node arrays, built on the forest's first prediction
and kept, so its trees must not be mutated after that. :func:`route_eta`
moves all rows down all trees a level per round; :func:`tree_votes` votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .errors import ParseError
from .impurity import scan_features
from .splitsel import select_feature, select_value

if TYPE_CHECKING:
    from .data import Dataset
    from .forest import MrfConfig

__all__ = [
    "TreeNode",
    "Tree",
    "build_tree",
    "build_baseline_tree",
    "leaf_distribution",
    "CompiledTrees",
    "compile_trees",
    "route_eta",
    "tree_votes",
]

# Total (feature, value) samples tried per node before falling back to a leaf.
_SPLIT_ATTEMPTS = 10

TREE_FORMAT_VERSION = 1


@dataclass(eq=False)
class TreeNode:
    """Internal split node or leaf. Leaves have ``feature is None``."""

    depth: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    counts: np.ndarray | None = None
    eta: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(eq=False)
class Tree:
    root: TreeNode
    depth: int
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form: a flat node array with child indices (root first).

        Flat instead of nested so pathologically deep trees survive the
        recursive json encoder and plain dict comparison.
        """
        nodes: list[dict[str, Any]] = []
        stack: list[tuple[TreeNode, dict[str, Any] | None, str]] = [(self.root, None, "")]
        while stack:
            node, parent_entry, side = stack.pop()
            index = len(nodes)
            if parent_entry is not None:
                parent_entry[side] = index
            if node.is_leaf:
                entry = {
                    "kind": "leaf",
                    "depth": node.depth,
                    "counts": [int(c) for c in node.counts],
                    "eta": [float(p) for p in node.eta],
                }
                nodes.append(entry)
            else:
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
        params = {
            key: ("inf" if isinstance(value, float) and math.isinf(value) else value)
            for key, value in self.params.items()
        }
        return {
            "version": TREE_FORMAT_VERSION,
            "nodes": nodes,
            "depth": self.depth,
            "params": params,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any], class_count: int, feature_count: int) -> "Tree":
        """Tree of a :meth:`to_dict` document; children must follow their parent.

        A corrupt document raises :class:`ParseError`: a child index out of
        order or range, a feature outside the columns, a threshold or leaf
        eta that is NaN or infinite, or leaves without ``class_count`` classes.
        """
        entries = doc["nodes"]
        nodes = [TreeNode(depth=int(entry["depth"])) for entry in entries]
        leaves = []
        for index, (node, entry) in enumerate(zip(nodes, entries)):
            if entry["kind"] != "split":
                leaves.append(index)
                continue
            node.feature = int(entry["feature"])
            node.threshold = float(entry["threshold"])
            if not math.isfinite(node.threshold):
                raise ParseError(f"node {index}: threshold {node.threshold} is not finite")
            left, right = entry["left"], entry["right"]
            if not (index < left < len(nodes) and index < right < len(nodes)):
                raise ParseError(f"node {index}: child index out of order or range")
            if not 0 <= node.feature < feature_count:
                raise ParseError(f"node {index}: feature {node.feature} out of range")
            node.left = nodes[left]
            node.right = nodes[right]
        # one conversion per tree, not per leaf: each leaf gets a row of both
        etas = np.array([entries[i]["eta"] for i in leaves], dtype=np.float64)
        counts = np.array([entries[i]["counts"] for i in leaves], dtype=np.int64)
        if etas.shape != (len(leaves), class_count) or counts.shape != etas.shape:
            raise ParseError(f"leaf counts or eta do not have {class_count} classes")
        if not np.isfinite(etas).all():
            raise ParseError("leaf eta holds NaN or infinite values")
        for i, eta, count in zip(leaves, etas, counts):
            nodes[i].eta, nodes[i].counts = eta, count
        return cls(
            root=nodes[0],
            depth=int(doc["depth"]),
            params={
                key: (math.inf if value == "inf" else value)
                for key, value in doc.get("params", {}).items()
            },
            seed=doc.get("seed"),
        )


def leaf_distribution(
    labels: np.ndarray, class_count: int, parent: np.ndarray | None = None
) -> np.ndarray:
    """Empirical class distribution of a leaf's estimation labels.

    An empty leaf inherits its parent's distribution; with no parent either,
    the distribution is uniform.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        if parent is not None:
            return np.asarray(parent, dtype=np.float64)
        return np.full(class_count, 1.0 / class_count)
    counts = np.bincount(labels, minlength=class_count)
    return counts / labels.size


def _sorted_index_matrix(x: np.ndarray) -> np.ndarray:
    # row j of the result lists row positions sorted by feature j
    return np.argsort(x, axis=0, kind="stable").T.copy()


def _gather_sorted(
    x: np.ndarray, sorted_pos: np.ndarray, features: np.ndarray | None = None
) -> np.ndarray:
    # row i of sorted_pos holds positions sorted by features[i] (default: 0..D-1)
    if features is None:
        cols = np.arange(sorted_pos.shape[0])[:, None]
    else:
        cols = np.asarray(features)[:, None]
    return x[sorted_pos, cols]


def build_tree(
    dataset: "Dataset",
    structure_idx: np.ndarray,
    estimation_idx: np.ndarray,
    config: "MrfConfig",
    rng: np.random.Generator,
    seed: int | None = None,
) -> Tree:
    """Grow one multinomial tree from a structure/estimation row split.

    Recursion gate: a node splits only while it holds more than ``k``
    estimation rows, at least two structure rows with a non-constant feature,
    and (in privacy mode) depth below the configured cap. All degenerate
    paths resolve to leaves.
    """
    xs = np.ascontiguousarray(dataset.features[structure_idx])
    ys = dataset.labels[structure_idx]
    xe = np.ascontiguousarray(dataset.features[estimation_idx])
    ye = dataset.labels[estimation_idx]
    class_count = dataset.class_count
    n_struct = xs.shape[0]
    k = config.k
    max_depth = config.max_depth

    member = np.zeros(n_struct, dtype=bool)  # scratch for sorted-slice filtering
    root = TreeNode(depth=0)
    tree_max_depth = 0
    stack: list[tuple[TreeNode, np.ndarray, np.ndarray, np.ndarray | None]] = [
        (root, _sorted_index_matrix(xs), np.arange(xe.shape[0]), None)
    ]

    while stack:
        node, sorted_pos, est_pos, parent_eta = stack.pop()
        m = sorted_pos.shape[1]
        split = None
        if (
            est_pos.size > k
            and m >= 2
            and (max_depth is None or node.depth < max_depth)
        ):
            split = _sample_split(
                xs, ys, xe, sorted_pos, est_pos, class_count, config, rng
            )
        if split is None:
            node.counts = np.bincount(ye[est_pos], minlength=class_count)
            node.eta = leaf_distribution(ye[est_pos], class_count, parent_eta)
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
        right_sorted = sorted_pos[~keep].reshape(
            sorted_pos.shape[0], m - left_rows.size
        )

        node_eta = leaf_distribution(ye[est_pos], class_count, parent_eta)
        stack.append((node.left, left_sorted, est_pos[est_left_mask], node_eta))
        stack.append((node.right, right_sorted, est_pos[~est_left_mask], node_eta))

    return Tree(
        root=root,
        depth=tree_max_depth,
        params={
            "variant": "mrf",
            "b1": config.b1,
            "b2": config.b2,
            "k": config.k,
            "criterion": config.criterion,
            "max_depth": config.max_depth,
        },
        seed=seed,
    )


def _sample_split(
    xs: np.ndarray,
    ys: np.ndarray,
    xe: np.ndarray,
    sorted_pos: np.ndarray,
    est_pos: np.ndarray,
    class_count: int,
    config: "MrfConfig",
    rng: np.random.Generator,
) -> tuple[int, float, np.ndarray] | None:
    """Draw (feature, threshold) via the two mechanisms, enforcing split validity.

    Returns None when no valid split was sampled within the attempt budget.
    """
    valid, thresholds, decreases = scan_features(
        _gather_sorted(xs, sorted_pos), ys[sorted_pos], class_count, config.criterion
    )
    best = np.where(valid, decreases, -np.inf).max(axis=1)
    eligible = np.flatnonzero(best > -np.inf)
    if eligible.size == 0:
        return None

    k = config.k
    est_col_cache: dict[int, np.ndarray] = {}
    feature = -1
    for attempt in range(_SPLIT_ATTEMPTS):
        if attempt % 2 == 0:  # even attempts redraw the feature, odd ones the value
            feature = int(eligible[select_feature(best[eligible], config.b1, rng)])
        positions = np.flatnonzero(valid[feature])
        choice = select_value(decreases[feature, positions], config.b2, rng)
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


def build_baseline_tree(
    x: np.ndarray,
    y: np.ndarray,
    class_count: int,
    k: int,
    mtry: int,
    criterion: str,
    rng: np.random.Generator,
) -> Tree:
    """Greedy CART tree over (possibly bootstrapped) rows.

    Each node draws ``mtry`` features without replacement and takes the
    candidate with the largest impurity decrease, breaking ties toward the
    lowest feature index and then the lowest threshold. Nodes stop when pure
    or at most ``k`` rows remain; leaves predict their majority class.
    """
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
                # first flat argmax = lowest feature, then lowest threshold
                flat = int(np.argmax(masked))
                feat_row, pos = divmod(flat, masked.shape[1])
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
        stack.append(
            (node.left, sorted_pos[keep].reshape(sorted_pos.shape[0], left_rows.size))
        )
        stack.append(
            (
                node.right,
                sorted_pos[~keep].reshape(sorted_pos.shape[0], m - left_rows.size),
            )
        )

    return Tree(
        root=root,
        depth=tree_max_depth,
        params={"variant": "breiman", "k": k, "mtry": mtry, "criterion": criterion},
    )


@dataclass(frozen=True)
class CompiledTrees:
    """Several trees in flat per-node arrays; tree ``i`` is rooted at node ``i``.

    Leaves point to themselves, so a row routed past its leaf stays there.
    """

    feature: np.ndarray  # (nodes,) split feature, 0 at leaves
    threshold: np.ndarray  # (nodes,) rows with value <= threshold go left
    left: np.ndarray  # (nodes,) node index of the left child
    right: np.ndarray  # (nodes,) node index of the right child
    eta: np.ndarray  # (nodes, K) leaf class distribution, zero at splits
    label: np.ndarray  # (nodes,) argmax class of eta, lowest index on ties
    tree_count: int
    depth: int  # routing rounds that bring every row to its leaf


def compile_trees(trees: Sequence[Tree], class_count: int) -> CompiledTrees:
    """Copy the node graphs of ``trees`` into flat arrays, breadth first.

    The walk's level count, not the stored ``Tree.depth``, sets ``depth``.
    """
    nodes = [tree.root for tree in trees]
    levels = [0] * len(nodes)
    left: list[int] = []
    while len(left) < len(nodes):  # the walk appends the children it meets
        i = len(left)
        node = nodes[i]
        left.append(i if node.feature is None else len(nodes))
        if node.feature is not None:
            nodes += (node.left, node.right)
            levels += (levels[i] + 1, levels[i] + 1)
    leaf = np.array([node.feature is None for node in nodes])
    feature = np.array([node.feature or 0 for node in nodes], dtype=np.intp)
    threshold = np.array([0.0 if node.feature is None else node.threshold for node in nodes])
    eta = np.zeros((len(nodes), class_count))
    eta[leaf] = [node.eta for node in nodes if node.feature is None]
    right = np.array(left) + ~leaf  # the two children of a split are adjacent
    label = np.argmax(eta, axis=1)
    return CompiledTrees(
        feature, threshold, np.array(left), right, eta, label, len(trees), max(levels)
    )


def route_eta(trees: CompiledTrees, x: np.ndarray) -> np.ndarray:
    """The (trees, rows) matrix of leaves reached; ``trees.eta`` of a leaf is its distribution.

    Each of ``trees.depth`` rounds moves every row one level down every tree
    with one gather (left iff value <= threshold).
    """
    rows = np.arange(x.shape[0])
    node = np.repeat(np.arange(trees.tree_count)[:, None], x.shape[0], axis=1)
    for _ in range(trees.depth):
        go_left = x[rows, trees.feature[node]] <= trees.threshold[node]
        node = np.where(go_left, trees.left[node], trees.right[node])
    return node


def tree_votes(
    trees: CompiledTrees, x: np.ndarray, b3: float, rng: np.random.Generator | None
) -> np.ndarray:
    """The (trees, rows) matrix of class votes.

    Finite ``b3`` votes class c with probability proportional to
    exp(b3 * eta_c / 2), drawing one uniform per vote, tree by tree in row
    order; infinite ``b3`` votes the argmax class and draws nothing.
    """
    node = route_eta(trees, x)
    if math.isinf(b3):
        return trees.label[node]
    z = 0.5 * b3 * trees.eta
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1).T
    uniforms = rng.random(node.shape)
    # the vote counts the classes whose cdf is at or below the uniform, capped
    # at the last class: rounding can leave cdf[-1] below 1
    return sum(cum[node] <= uniforms for cum in cdf[:-1])
