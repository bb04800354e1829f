"""Decision tree construction and prediction for multinomial random forests.

Both kinds of tree grow through one grower, :func:`_grow`, which walks the
nodes depth first, filters each node's per-feature index slices (sorted once
at tree start) down to its children, and emits leaves whose distribution is
their estimation rows' class counts. A split rule decides each node:

- the multinomial rule of :func:`build_tree` grows from structure rows only,
  while estimation rows ride along and set the leaf distributions. It
  composes the two multinomial mechanisms; a sampled split is accepted only
  if both children keep at least ``k`` estimation rows and one structure
  row. Ten attempts are made before giving up and emitting a leaf: even
  attempts draw a feature and a value, odd attempts a value only. Impurity
  is scanned only at nodes where some cut can be accepted. Each mechanism's
  law is built once per search (a value law the first time its feature is
  drawn), so an attempt costs a uniform and a binary search per draw; a
  feature with no acceptable cut builds no law, and its value draw only
  consumes its uniform;
- the greedy rule of :func:`build_baseline_tree` takes Breiman's best split
  over a random feature subset, and its rows are their own estimation rows.

A :class:`Tree` is flat per-node arrays, which the grower appends to, the
model file stores, and prediction reads; ``Tree.root`` is a ``TreeNode``
graph view built on demand, which no library code reads. :func:`compile_trees`
concatenates all trees of a forest, on the forest's first prediction, and the
result is kept, so its trees must not be mutated after that.
:func:`route_eta` moves all rows down all trees a level per round;
:func:`tree_votes` votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ParseError
from .impurity import cut_points, scan_features
from .splitsel import select_feature, select_value, selection_cdf

if TYPE_CHECKING:
    from .data import Dataset
    from .forest import MrfConfig

__all__ = [
    "TreeNode",
    "Tree",
    "build_tree",
    "build_baseline_tree",
    "CompiledTrees",
    "compile_trees",
    "route_eta",
    "tree_votes",
]

# Total (feature, value) samples tried per node before falling back to a leaf.
_SPLIT_ATTEMPTS = 10

# (feature, threshold, estimation rows going left) of a chosen split
_Split = tuple[int, float, np.ndarray]


@dataclass(eq=False)
class TreeNode:
    """One node of :attr:`Tree.root`'s read-only graph view. Leaves have ``feature is None``."""

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
    """One tree in flat per-node arrays, the layout of scikit-learn's ``Tree``.

    The root is node 0 and children always follow their parent. A split's
    children are adjacent: the right child of node i is ``left[i] + 1``.
    Leaves hold feature and left -1 and threshold 0; ``counts`` holds one row
    of estimation class counts per leaf, in node order, and a leaf's
    distribution is its row over the row's sum.
    """

    feature: np.ndarray  # (nodes,) split feature, -1 at leaves
    threshold: np.ndarray  # (nodes,) rows with value <= threshold go left
    left: np.ndarray  # (nodes,) left child, -1 at leaves
    counts: np.ndarray  # (leaves, K) estimation class counts

    @cached_property
    def depth(self) -> int:
        """Levels below the root of the deepest leaf."""
        return _depth(self.feature, self.left, np.zeros(1, dtype=np.intp))

    @property
    def root(self) -> TreeNode:
        """The tree as a fresh ``TreeNode`` graph; editing it leaves the arrays as they are."""
        eta = _leaf_eta(self.counts)
        nodes = [TreeNode(depth=0) for _ in range(self.feature.size)]
        leaf = 0
        for node, feature, threshold, left in zip(nodes, self.feature, self.threshold, self.left):
            if feature == -1:
                node.counts, node.eta = self.counts[leaf], eta[leaf]
                leaf += 1
                continue
            node.feature, node.threshold = int(feature), float(threshold)
            node.left, node.right = nodes[left], nodes[left + 1]
            # children follow their parent, so its depth is final here
            node.left.depth = node.right.depth = node.depth + 1
        return nodes[0]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready columns; :meth:`from_dict` reads them back."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any], class_count: int, feature_count: int) -> "Tree":
        """Tree of a :meth:`to_dict` document, checked as whole arrays.

        A corrupt document raises :class:`ParseError`: columns that are not
        integers (thresholds: numbers), empty or of different lengths; a
        split whose left child is not after it or whose right child is out
        of range, or a leaf with a child; nodes that are not a tree (a node
        other than the root with no parent or with two); a split feature
        outside ``[0, feature_count)``; a threshold that is NaN or infinite;
        or leaf counts that are not ``class_count`` per leaf, are negative,
        or sum to zero.
        """
        feature = _column(doc["feature"], "i", "feature")
        left = _column(doc["left"], "i", "left")
        threshold = _column(doc["threshold"], "if", "threshold").astype(np.float64)
        counts = _column(doc["counts"], "i", "counts")
        size = feature.size
        if size == 0 or not feature.shape == threshold.shape == left.shape == (size,):
            raise ParseError("tree columns are empty or of different lengths")
        split = feature != -1
        nodes = np.arange(size)
        bad = np.where(split, (left <= nodes) | (left >= size - 1), left != -1)
        if bad.any():
            raise ParseError(f"node {np.argmax(bad)}: child index out of order or range")
        # a left child is after its parent, so the root is no node's child; every
        # other node must be exactly one split's child
        child = left[split]
        parents = np.bincount(np.concatenate((child, child + 1)), minlength=size)
        if (parents[1:] != 1).any():
            raise ParseError("nodes do not form a tree: a node is shared by two splits or orphaned")
        outside = split & ((feature < 0) | (feature >= feature_count))
        if outside.any():
            raise ParseError(f"node {np.argmax(outside)}: feature out of range")
        if not np.isfinite(threshold).all():
            raise ParseError("a threshold is not finite")
        if counts.shape != (size - child.size, class_count):
            raise ParseError(f"leaf counts are not {class_count} per leaf")
        if (counts < 0).any() or (counts.sum(axis=1) == 0).any():
            raise ParseError("leaf counts are negative or sum to zero")
        return cls(
            feature.astype(np.intp, copy=False), threshold, left.astype(np.intp, copy=False), counts
        )


def _leaf_eta(counts: np.ndarray) -> np.ndarray:
    """Each leaf's class distribution: its row of ``counts`` over the row's sum."""
    return counts / counts.sum(axis=1, keepdims=True)


def _column(values: Any, kinds: str, name: str) -> np.ndarray:
    # one conversion per column; numpy raises ValueError on ragged nesting
    column = np.asarray(values)
    if column.dtype.kind not in kinds:
        raise ParseError(f"tree column {name!r} holds values of the wrong type")
    return column


def _depth(feature: np.ndarray, left: np.ndarray, roots: np.ndarray) -> int:
    """Levels below ``roots`` of the deepest leaf, walking all trees a level at a time."""
    depth, frontier = -1, roots
    while frontier.size:
        depth += 1
        children = left[frontier[feature[frontier] != -1]]
        frontier = np.concatenate((children, children + 1))
    return depth


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


def _grow(
    x: np.ndarray,
    est_y: np.ndarray,
    class_count: int,
    choose: Callable[[int, np.ndarray, np.ndarray, np.ndarray], _Split | None],
) -> Tree:
    """Grow a tree depth first from rows ``x``.

    Each node holds ``sorted_pos``, its rows of ``x`` sorted per feature, and
    ``est_pos``, its positions in ``est_y``. ``choose(depth, sorted_pos,
    est_pos, counts)`` gets the node's estimation label counts and returns
    ``(feature, threshold, est_left)``, where ``est_left`` marks the
    estimation rows that go left, or None for a leaf. A leaf keeps its
    counts. A split appends its two children to the arrays at once, so they
    are adjacent; the left child is pushed first, so the right subtree is
    grown, and draws from the rng, first.
    """
    member = np.zeros(x.shape[0], dtype=bool)  # scratch for sorted-slice filtering
    feature, threshold, left = [-1], [0.0], [-1]
    leaf_counts: list[np.ndarray | None] = [None]  # per node, None at splits
    stack = [(0, 0, _sorted_index_matrix(x), np.arange(est_y.size))]
    while stack:
        node, depth, sorted_pos, est_pos = stack.pop()
        counts = np.bincount(est_y[est_pos], minlength=class_count)
        split = choose(depth, sorted_pos, est_pos, counts)
        if split is None:
            leaf_counts[node] = counts
            continue
        split_feature, split_threshold, est_left = split
        child = len(feature)
        feature[node], threshold[node], left[node] = split_feature, split_threshold, child
        feature += (-1, -1)
        threshold += (0.0, 0.0)
        left += (-1, -1)
        leaf_counts += (None, None)
        rows = sorted_pos[0]
        left_rows = rows[x[rows, split_feature] <= split_threshold]
        member[left_rows] = True
        keep = member[sorted_pos]
        member[left_rows] = False
        features, m = sorted_pos.shape
        left_sorted = sorted_pos[keep].reshape(features, left_rows.size)
        right_sorted = sorted_pos[~keep].reshape(features, m - left_rows.size)
        stack.append((child, depth + 1, left_sorted, est_pos[est_left]))
        stack.append((child + 1, depth + 1, right_sorted, est_pos[~est_left]))
    return Tree(
        np.array(feature, dtype=np.intp),
        np.array(threshold),
        np.array(left, dtype=np.intp),
        np.array([counts for counts in leaf_counts if counts is not None]),
    )


def build_tree(
    dataset: "Dataset",
    structure_idx: np.ndarray,
    estimation_idx: np.ndarray,
    config: "MrfConfig",
    rng: np.random.Generator,
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
    class_count = dataset.class_count

    def multinomial_split(depth, sorted_pos, est_pos, counts):
        capped = config.max_depth is not None and depth >= config.max_depth
        if capped or est_pos.size <= config.k or sorted_pos.shape[1] < 2:
            return None
        return _sample_split(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng)

    return _grow(xs, dataset.labels[estimation_idx], class_count, multinomial_split)


def _sample_split(
    xs: np.ndarray,
    ys: np.ndarray,
    xe: np.ndarray,
    sorted_pos: np.ndarray,
    est_pos: np.ndarray,
    class_count: int,
    config: "MrfConfig",
    rng: np.random.Generator,
) -> _Split | None:
    """Draw (feature, threshold) via the two mechanisms, enforcing split validity.

    The search runs in three steps, each only if the one before leaves a
    draw to make:

    1. Cut points: the :func:`cut_points` of the node's sorted structure
       values. Without a valid cut there is nothing to draw: None, and no
       rng use.
    2. Feasibility: a cut keeps at least ``k`` of the node's n estimation
       rows on each side exactly when ``threshold`` lies in ``[lo, hi)``,
       where lo and hi are the feature's k-th smallest and k-th largest
       estimation values; one partition per node finds both. If no cut is
       feasible, every attempt would fail: no impurity is scanned and no
       mechanism runs, and the rng advances by the 15 uniforms the attempts
       would draw (one per value, one per feature on even attempts).
    3. Scan and draw: :func:`scan_features` scores the cuts, and each
       attempt's draw is checked against the feasibility mask. Each law is
       built once per search: the feature law from the features' best
       decreases, and a feature's value law the first time that feature is
       drawn. A feature with no feasible cut gets no value law: its value
       draw can only fail, so it consumes its uniform and draws nothing.
       Every attempt thus uses the uniforms, and picks the cuts, of a search
       that rebuilds both laws at every attempt.

    Returns None when no valid split was sampled within the attempt budget.
    """
    values = _gather_sorted(xs, sorted_pos)
    valid, thresholds = cut_points(values)
    if not valid.any():
        return None

    k, n_est = config.k, est_pos.size
    bounds = np.partition(xe[est_pos], (k - 1, n_est - k), axis=0)
    lo, hi = bounds[k - 1, :, None], bounds[n_est - k, :, None]
    feasible = valid & (lo <= thresholds) & (thresholds < hi)
    if not feasible.any():
        rng.random(_SPLIT_ATTEMPTS + math.ceil(_SPLIT_ATTEMPTS / 2))
        return None

    decreases = scan_features(ys[sorted_pos], class_count, config.criterion)
    best = np.where(valid, decreases, -np.inf).max(axis=1)
    eligible = np.flatnonzero(best > -np.inf)
    feature_cdf = selection_cdf(best[eligible], config.b1)
    reachable = feasible.any(axis=1)
    value_laws: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    feature = -1
    for attempt in range(_SPLIT_ATTEMPTS):
        if attempt % 2 == 0:  # even attempts draw a feature and a value, odd ones a value
            feature = int(eligible[select_feature(feature_cdf, rng)])
        if not reachable[feature]:  # its value draw can only fail: spend the uniform
            rng.random()
            continue
        if feature not in value_laws:
            positions = np.flatnonzero(valid[feature])
            value_laws[feature] = positions, selection_cdf(decreases[feature, positions], config.b2)
        positions, value_cdf = value_laws[feature]
        cut = positions[select_value(value_cdf, rng)]
        # structure children are nonempty by construction: valid thresholds
        # lie strictly between two observed structure values
        if feasible[feature, cut]:
            threshold = thresholds[feature, cut]
            return feature, float(threshold), xe[est_pos, feature] <= threshold
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
    or at most ``k`` rows remain; leaves predict their majority class. The
    rows are their own estimation rows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    feature_count = x.shape[1]

    def greedy_split(depth, sorted_pos, est_pos, counts):
        if est_pos.size <= k or counts.max() == est_pos.size:
            return None
        subset = np.sort(rng.choice(feature_count, size=mtry, replace=False))
        valid, thresholds = cut_points(_gather_sorted(x, sorted_pos[subset], subset))
        decreases = scan_features(y[sorted_pos[subset]], class_count, criterion)
        masked = np.where(valid, decreases, -np.inf)
        if not np.isfinite(masked.max()):
            return None
        # first flat argmax = lowest feature, then lowest threshold
        feat_row, pos = divmod(int(np.argmax(masked)), masked.shape[1])
        feature, threshold = int(subset[feat_row]), float(thresholds[feat_row, pos])
        return feature, threshold, x[est_pos, feature] <= threshold

    return _grow(x, y, class_count, greedy_split)


@dataclass(frozen=True)
class CompiledTrees:
    """Several trees in flat per-node arrays; tree ``i`` is rooted at ``roots[i]``.

    Leaves point to themselves, so a row routed past its leaf stays there.
    """

    feature: np.ndarray  # (nodes,) split feature; -1 at leaves, read as the last column
    threshold: np.ndarray  # (nodes,) rows with value <= threshold go left
    left: np.ndarray  # (nodes,) node index of the left child
    right: np.ndarray  # (nodes,) node index of the right child
    eta: np.ndarray  # (nodes, K) leaf class distribution, zero at splits
    label: np.ndarray  # (nodes,) argmax class of eta, lowest index on ties
    roots: np.ndarray  # (trees,) root node of each tree
    depth: int  # routing rounds that bring every row to its leaf


def compile_trees(trees: Sequence[Tree], class_count: int) -> CompiledTrees:
    """Concatenate the arrays of ``trees``, each tree's child indices shifted by its offset.

    :func:`_leaf_eta` runs once, on all leaves. A level-by-level walk of all
    trees, not a stored depth, sets ``depth``.
    """
    sizes = np.array([tree.feature.size for tree in trees])
    roots = np.concatenate(([0], np.cumsum(sizes[:-1])))
    feature = np.concatenate([tree.feature for tree in trees])
    leaf = feature == -1
    left = np.concatenate([tree.left for tree in trees]) + np.repeat(roots, sizes)
    left[leaf] = np.flatnonzero(leaf)
    eta = np.zeros((feature.size, class_count))
    eta[leaf] = _leaf_eta(np.concatenate([tree.counts for tree in trees]))
    return CompiledTrees(
        feature,
        np.concatenate([tree.threshold for tree in trees]),
        left,
        left + ~leaf,  # the two children of a split are adjacent
        eta,
        np.argmax(eta, axis=1),
        roots,
        _depth(feature, left, roots),
    )


def route_eta(trees: CompiledTrees, x: np.ndarray) -> np.ndarray:
    """The (trees, rows) matrix of leaves reached; ``trees.eta`` of a leaf is its distribution.

    Each of ``trees.depth`` rounds moves every row one level down every tree
    with one gather (left iff value <= threshold).
    """
    rows = np.arange(x.shape[0])
    node = np.repeat(trees.roots[:, None], x.shape[0], axis=1)
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
