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

The ``TreeNode`` graph under ``Tree.root`` is the one stored form of a tree.
Prediction runs on a compiled form: :func:`compile_trees` copies all trees of
a forest into flat per-node arrays, built on the forest's first prediction
and kept, so its trees must not be mutated after that. :func:`route_eta`
moves all rows down all trees a level per round; :func:`tree_votes` votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        order or range, nodes that are not a tree (a node that is the child
        of two splits, or of none but is not the root), a feature outside
        the columns, a threshold or leaf eta that is NaN or infinite, leaves
        without ``class_count`` classes, negative leaf counts, or a leaf eta
        that is negative or does not sum to 1.
        """
        entries = doc["nodes"]
        nodes = [TreeNode(depth=int(entry["depth"])) for entry in entries]
        size = len(nodes)
        leaves = []
        children = []
        for index, (node, entry) in enumerate(zip(nodes, entries)):
            if entry["kind"] != "split":
                leaves.append(index)
                continue
            node.feature = int(entry["feature"])
            node.threshold = float(entry["threshold"])
            if not math.isfinite(node.threshold):
                raise ParseError(f"node {index}: threshold {node.threshold} is not finite")
            left, right = entry["left"], entry["right"]
            if not (index < left < size and index < right < size):
                raise ParseError(f"node {index}: child index out of order or range")
            if not 0 <= node.feature < feature_count:
                raise ParseError(f"node {index}: feature {node.feature} out of range")
            node.left = nodes[left]
            node.right = nodes[right]
            children.append(left)
            children.append(right)
        # children follow their parent, so the root is no node's child, and
        # every other node is one child exactly when they are n-1 distinct ones
        if not len(children) == len(set(children)) == size - 1:
            raise ParseError("nodes do not form a tree: a node is shared by two splits or orphaned")
        # one conversion per tree, not per leaf: each leaf gets a row of both
        etas = np.array([entries[i]["eta"] for i in leaves], dtype=np.float64)
        counts = np.array([entries[i]["counts"] for i in leaves], dtype=np.int64)
        if etas.shape != (len(leaves), class_count) or counts.shape != etas.shape:
            raise ParseError(f"leaf counts or eta do not have {class_count} classes")
        if not np.isfinite(etas).all():
            raise ParseError("leaf eta holds NaN or infinite values")
        if (etas < 0).any() or (counts < 0).any() or (abs(etas.sum(axis=1) - 1) > 1e-9).any():
            raise ParseError("leaf eta is not a distribution or leaf counts are negative")
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
) -> tuple[TreeNode, int]:
    """Grow a node graph depth first from rows ``x``; return its root and depth.

    Each node holds ``sorted_pos``, its rows of ``x`` sorted per feature, and
    ``est_pos``, its positions in ``est_y``. ``choose(depth, sorted_pos,
    est_pos, counts)`` gets the node's estimation label counts and returns
    ``(feature, threshold, est_left)``, where ``est_left`` marks the
    estimation rows that go left, or None for a leaf. A leaf's distribution
    is its counts over its estimation rows. The left child is pushed first,
    so the right subtree is grown, and draws from the rng, first.
    """
    member = np.zeros(x.shape[0], dtype=bool)  # scratch for sorted-slice filtering
    root = TreeNode(depth=0)
    depth = 0
    stack = [(root, _sorted_index_matrix(x), np.arange(est_y.size))]
    while stack:
        node, sorted_pos, est_pos = stack.pop()
        counts = np.bincount(est_y[est_pos], minlength=class_count)
        split = choose(node.depth, sorted_pos, est_pos, counts)
        if split is None:
            node.counts = counts
            node.eta = counts / est_pos.size
            depth = max(depth, node.depth)
            continue
        node.feature, node.threshold, est_left = split
        node.left = TreeNode(depth=node.depth + 1)
        node.right = TreeNode(depth=node.depth + 1)
        rows = sorted_pos[0]
        left_rows = rows[x[rows, node.feature] <= node.threshold]
        member[left_rows] = True
        keep = member[sorted_pos]
        member[left_rows] = False
        features, m = sorted_pos.shape
        left_sorted = sorted_pos[keep].reshape(features, left_rows.size)
        right_sorted = sorted_pos[~keep].reshape(features, m - left_rows.size)
        stack.append((node.left, left_sorted, est_pos[est_left]))
        stack.append((node.right, right_sorted, est_pos[~est_left]))
    return root, depth


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
    class_count = dataset.class_count

    def multinomial_split(depth, sorted_pos, est_pos, counts):
        capped = config.max_depth is not None and depth >= config.max_depth
        if capped or est_pos.size <= config.k or sorted_pos.shape[1] < 2:
            return None
        return _sample_split(xs, ys, xe, sorted_pos, est_pos, class_count, config, rng)

    root, depth = _grow(xs, dataset.labels[estimation_idx], class_count, multinomial_split)
    return Tree(
        root=root,
        depth=depth,
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

    root, depth = _grow(x, y, class_count, greedy_split)
    return Tree(
        root=root,
        depth=depth,
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
