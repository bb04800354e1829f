"""Decision tree construction and prediction for multinomial random forests.

Both kinds of tree grow through one grower, :func:`_grow`, a level at a time,
and a group of trees grows together: :func:`build_trees` and
:func:`build_baseline_trees` take the trees' rows stacked, tree after tree,
so that level 0 holds one root per tree, and :func:`build_tree` and
:func:`build_baseline_tree` are their one-tree calls. A level's nodes, of
every tree in the group, share two matrices of row positions, one for the
structure rows and one for the estimation rows: row j lists every node's
positions sorted by feature j, each node owning one column segment in every
row (:class:`_Segments`), and the nodes are ordered by tree. A split rule
decides all nodes of a level in one batched pass, and one stable partition
per matrix moves the split nodes' positions into their children's segments.
Leaves keep their estimation rows' class counts. Each tree numbers its own nodes in level order: the root is 0,
and a split's two children are adjacent and numbered after every node of its
own level in that tree.

Each tree draws its uniforms from its own rng, one ``random`` call per level
for all of its nodes, in node order, so a tree and its rng's state after it do
not depend on which trees grow with it. Its mechanism laws are built in one
batch with the other trees' (see :mod:`mrforest.splitsel` for how a batch
rounds). All of a group's rows are held at once, so the caller bounds the
group; :mod:`mrforest.forest` groups a forest's trees under a row budget.

- The multinomial rule of :func:`build_tree` reads structure rows only;
  estimation rows set the leaf distributions and gate the splits. It
  composes the two multinomial mechanisms; a sampled split is accepted only
  if both children keep at least ``k`` estimation rows and one structure
  row. Each node with a valid cut takes a block of 15 uniforms, one block
  per such node in id order and one ``rng.random`` call per tree and level,
  and makes ten attempts before giving up and emitting a leaf: even attempts draw a
  feature and a value, odd attempts a value only, and attempt a reads the
  block's uniforms 3(a // 2) (feature) and 3(a // 2) + 1 + a % 2 (value).
  Impurity is scanned only at nodes where some cut can be accepted. Each
  mechanism's law is built once per node (a value law the first time its
  feature is drawn), as one batch per level and per attempt; a feature with
  no acceptable cut builds no law, and its value uniform goes unread.
- The greedy rule of :func:`build_baseline_tree` takes Breiman's best split
  over a random feature subset, and its rows are their own estimation rows.
  Each node it searches takes D uniforms, one ``rng.random`` call per tree
  and level, and its subset is the first ``mtry`` features of their order.

A :class:`Tree` is flat per-node arrays, which the grower writes, the model
file stores, and prediction reads; ``Tree.root`` is a ``TreeNode`` graph view
built on demand, which no library code reads. :func:`compile_trees`
concatenates all trees of a forest, on the forest's first prediction, and the
result is kept, so its trees must not be mutated after that.
:func:`route_eta` moves all rows down all trees a level per round;
:func:`tree_votes` votes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ParseError
from .impurity import cut_points, scan_features
from .splitsel import (
    Laws,
    ragged_arange,
    select_feature,
    select_value,
    selection_cdfs,
    softmax_scaled,
)

if TYPE_CHECKING:
    from .data import Dataset
    from .forest import MrfConfig

__all__ = [
    "TreeNode",
    "Tree",
    "read_trees",
    "build_tree",
    "build_trees",
    "build_baseline_tree",
    "build_baseline_trees",
    "CompiledTrees",
    "compile_trees",
    "route_eta",
    "tree_votes",
]

# (feature, value) samples tried per node before falling back to a leaf: ten
# attempts in pairs, the first of a pair drawing a feature and a value, the
# second a value for the same feature
_PAIRS = 5
# Uniforms of a searched node: per pair, one for the feature and one per value.
_BLOCK = 3 * _PAIRS

_COLUMNS = ("feature", "threshold", "left", "counts")


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
        """Tree of a :meth:`to_dict` document, checked as :func:`read_trees` checks."""
        return read_trees([doc], class_count, feature_count)[0]


def read_trees(docs: Sequence[dict[str, Any]], class_count: int, feature_count: int) -> list[Tree]:
    """Trees of :meth:`Tree.to_dict` documents, checked once as whole arrays for all of them.

    Each column of all trees is converted once and checked with per-tree
    offsets. A corrupt document raises :class:`ParseError`: columns that are
    not integers (thresholds: numbers), empty or of different lengths; a
    split whose left child is not after it or whose right child is out of
    its tree, or a leaf with a child; nodes that are not a tree (a node other
    than a root with no parent or with two); a split feature outside
    ``[0, feature_count)``; a threshold that is NaN or infinite; or leaf
    counts that are not ``class_count`` per leaf, are negative, or sum to
    zero.
    """
    if not docs:
        return []
    lengths = np.array([[len(doc[name]) for name in _COLUMNS] for doc in docs])
    size = lengths[:, 0]
    if (size == 0).any() or (lengths[:, 1:3] != size[:, None]).any():
        raise ParseError("tree columns are empty or of different lengths")
    feature, left, counts = (_column(docs, name, "i") for name in ("feature", "left", "counts"))
    threshold = _column(docs, "threshold", "if").astype(np.float64)
    total = int(size.sum())
    if not feature.shape == threshold.shape == left.shape == (total,):
        raise ParseError("tree columns are not flat lists")
    ends = np.cumsum(size)
    roots = ends - size
    offset = np.repeat(roots, size)
    node = np.arange(total) - offset
    split = feature != -1

    def where(i: int) -> str:
        return f"tree {np.searchsorted(roots, i, side='right') - 1} node {node[i]}"

    bad = np.where(split, (left <= node) | (left >= np.repeat(size, size) - 1), left != -1)
    if bad.any():
        raise ParseError(f"{where(np.argmax(bad))}: child index out of order or range")
    # a left child is after its parent, so a root is no node's child; every
    # other node must be exactly one split's child
    child = (left + offset)[split]
    parents = np.bincount(np.concatenate((child, child + 1)), minlength=total)
    parents[roots] += 1
    if (parents != 1).any():
        raise ParseError("nodes do not form a tree: a node is shared by two splits or orphaned")
    outside = split & ((feature < 0) | (feature >= feature_count))
    if outside.any():
        raise ParseError(f"{where(np.argmax(outside))}: feature out of range")
    if not np.isfinite(threshold).all():
        raise ParseError("a threshold is not finite")
    leaves = size - np.add.reduceat(split, roots, dtype=np.intp)
    if counts.shape != (leaves.sum(), class_count) or (lengths[:, 3] != leaves).any():
        raise ParseError(f"leaf counts are not {class_count} per leaf")
    if (counts < 0).any() or (counts.sum(axis=1) == 0).any():
        raise ParseError("leaf counts are negative or sum to zero")
    feature, left = feature.astype(np.intp, copy=False), left.astype(np.intp, copy=False)
    leaf_ends = np.cumsum(leaves)
    spans = zip(roots.tolist(), ends.tolist(), (leaf_ends - leaves).tolist(), leaf_ends.tolist())
    return [Tree(feature[a:b], threshold[a:b], left[a:b], counts[c:d]) for a, b, c, d in spans]


def _leaf_eta(counts: np.ndarray) -> np.ndarray:
    """Each leaf's class distribution: its row of ``counts`` over the row's sum."""
    return counts / counts.sum(axis=1, keepdims=True)


def _column(docs: Sequence[dict[str, Any]], name: str, kinds: str) -> np.ndarray:
    # one conversion per tree and column; numpy raises ValueError on ragged nesting
    parts = [np.asarray(doc[name]) for doc in docs]
    if any(part.dtype.kind not in kinds for part in parts):
        raise ParseError(f"tree column {name!r} holds values of the wrong type")
    return np.concatenate(parts)


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
    return np.argsort(x, axis=0, kind="stable").T.astype(np.int32)


@dataclass(frozen=True)
class _Segments:
    """Row positions of a level's nodes, sorted per feature within each node.

    Row j of ``pos`` lists every node's positions sorted by feature j; node
    i owns columns ``bounds[i] : bounds[i + 1]`` of every row.
    """

    pos: np.ndarray  # (D, positions) int32
    bounds: np.ndarray  # (nodes + 1,) ascending from 0

    @classmethod
    def roots(cls, x: np.ndarray, sizes: Sequence[int]) -> "_Segments":
        """One segment per tree, tree i owning the next ``sizes[i]`` rows of ``x``."""
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        spans = zip(bounds[:-1].tolist(), bounds[1:].tolist())
        pos = [_sorted_index_matrix(x[a:b]) + np.int32(a) for a, b in spans]
        return cls(np.concatenate(pos, axis=1), bounds)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)

    @cached_property
    def node(self) -> np.ndarray:
        """The node owning each column."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def children(self, x: np.ndarray, feature: np.ndarray, threshold: np.ndarray) -> "_Segments":
        """The segments of the split nodes' children: left, then right, in node order.

        Node i splits when ``feature[i] >= 0``; its positions whose row of
        ``x`` holds at most ``threshold[i]`` in that feature go left. Leaves'
        positions go. Every row is partitioned stably, so each child's
        positions stay sorted, by one boolean selection per side and one
        column permutation shared by every row. Both children of a split
        are nonempty.
        """
        node, rows = self.node, self.pos[0]
        splits = feature >= 0
        split = splits[node]
        goes_left = np.zeros(x.shape[0], dtype=bool)
        goes_left[rows] = split & (x[rows, feature[node]] <= threshold[node])
        left = goes_left[self.pos]
        right = ~left
        right &= split
        features = self.pos.shape[0]
        sides = np.concatenate(
            (self.pos[left].reshape(features, -1), self.pos[right].reshape(features, -1)), axis=1
        )
        # each side's block lists the split nodes in order, the same in every
        # row; a stable sort by child (left 2i, right 2i + 1) interleaves them
        first_child = 2 * np.cumsum(splits) - 2
        child = np.concatenate((first_child[node[left[0]]], first_child[node[right[0]]] + 1))
        bounds = np.concatenate(([0], np.cumsum(np.bincount(child))))
        return _Segments(sides[:, np.argsort(child, kind="stable")], bounds)


@dataclass(frozen=True)
class _Level:
    """The nodes of one depth of a group of trees, in id order within each tree."""

    depth: int
    tree: np.ndarray  # (nodes,) the tree of each node, ascending
    structure: _Segments
    estimation: _Segments
    counts: np.ndarray  # (nodes, K) estimation class counts


# A split rule: each node's split feature (-1 for a leaf) and threshold (0 at leaves).
_Rule = Callable[[_Level], tuple[np.ndarray, np.ndarray]]


def _grow(
    xs: np.ndarray,
    structure_sizes: Sequence[int],
    xe: np.ndarray | None,
    estimation_sizes: Sequence[int],
    ye: np.ndarray,
    class_count: int,
    rule: _Rule,
) -> list[Tree]:
    """Grow a group of trees together, a level at a time, from structure rows ``xs``.

    Tree i owns the next ``structure_sizes[i]`` rows of ``xs`` and the next
    ``estimation_sizes[i]`` rows of the estimation rows ``xe``, labelled
    ``ye``; with ``xe`` None the structure rows are their own estimation
    rows. Level 0 holds each tree's root. Each level asks ``rule`` for all its
    nodes' splits at once, and the split nodes' children, left then right in
    node order, make the next level, so each level's nodes stay ordered by
    tree and each tree's nodes in the order it would give them alone.
    """
    trees = len(structure_sizes)
    structure = _Segments.roots(xs, structure_sizes)
    estimation = structure if xe is None else _Segments.roots(xe, estimation_sizes)
    tree = np.arange(trees)
    columns, leaf_counts = [], []
    # ids number all of the group's nodes in level order; _per_tree renumbers them per tree
    depth, next_id = 0, trees
    while True:
        nodes = tree.size
        labels = estimation.node * class_count + ye[estimation.pos[0]]
        counts = np.bincount(labels, minlength=nodes * class_count).reshape(nodes, class_count)
        feature, threshold = rule(_Level(depth, tree, structure, estimation, counts))
        split = feature >= 0
        splits = np.count_nonzero(split)
        left = np.full(nodes, -1)
        left[split] = next_id + 2 * np.arange(splits)
        next_id += 2 * splits
        columns.append((feature, threshold, left, tree))
        leaf_counts.append(counts[~split])
        if not splits:
            break
        structure = structure.children(xs, feature, threshold)
        estimation = structure if xe is None else estimation.children(xe, feature, threshold)
        tree = tree[split].repeat(2)
        depth += 1
    feature, threshold, left, tree = (np.concatenate(column) for column in zip(*columns))
    return _per_tree(feature, threshold, left, np.concatenate(leaf_counts), tree, trees)


def _per_tree(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    counts: np.ndarray,
    tree: np.ndarray,
    trees: int,
) -> list[Tree]:
    """One :class:`Tree` per tree of a group's nodes, listed and numbered in level order.

    A tree's nodes keep their order, so its root is its node 0 and it numbers
    its nodes in its own level order; ``counts`` holds the leaves' rows in
    the nodes' order.
    """
    if trees == 1:  # a lone tree's ids are already its own
        return [Tree(feature, threshold, left, counts)]
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=trees)
    ends = np.cumsum(sizes)
    local = np.empty_like(order)  # each node's id in its own tree
    local[order] = np.arange(order.size) - np.repeat(ends - sizes, sizes)
    split = feature >= 0
    left = np.where(split, local[left], -1)
    leaf_tree = tree[~split]
    leaf_order = np.argsort(leaf_tree, kind="stable")
    leaf_ends = np.cumsum(np.bincount(leaf_tree, minlength=trees))
    feature, threshold, left = feature[order], threshold[order], left[order]
    counts = counts[leaf_order]
    starts, leaf_starts = (ends - sizes).tolist(), [0, *leaf_ends[:-1].tolist()]
    spans = zip(starts, ends.tolist(), leaf_starts, leaf_ends.tolist())
    return [Tree(feature[a:b], threshold[a:b], left[a:b], counts[c:d]) for a, b, c, d in spans]


def _uniforms(
    rngs: Sequence[np.random.Generator], drawing: np.ndarray, node_tree: np.ndarray, width: int
) -> np.ndarray:
    """A row of ``width`` uniforms for each node, drawn from its tree's rng in node order.

    ``node_tree`` is the tree of each node, ascending. Each tree in
    ``drawing`` makes one ``random`` call for all of its nodes, a call for
    no rows if it has none.
    """
    if len(rngs) == 1:  # a lone tree, which callers only ask when it draws
        return rngs[0].random((node_tree.size, width))
    counts = np.bincount(node_tree, minlength=len(rngs)).tolist()
    draws = np.bincount(drawing, minlength=len(rngs)).tolist()
    blocks = (rng.random((n, width)) for rng, n, draw in zip(rngs, counts, draws) if draw)
    return np.concatenate(list(blocks))


def _nodes_with(mask: np.ndarray, node: np.ndarray, nodes: int) -> np.ndarray:
    """Which of ``nodes`` own a column of ``mask`` holding a True; column c is ``node[c]``'s."""
    found = np.zeros(nodes, dtype=bool)
    found[node[mask.any(axis=0)]] = True
    return found


def build_trees(
    dataset: "Dataset",
    partitions: Sequence[tuple[np.ndarray, np.ndarray]],
    config: "MrfConfig",
    rngs: Sequence[np.random.Generator],
) -> list[Tree]:
    """Grow multinomial trees together, tree i from the ``(structure_idx,
    estimation_idx)`` row split ``partitions[i]`` with ``rngs[i]``.

    Each tree is the tree :func:`build_tree` grows from its split and rng, and
    leaves its rng as that call would. All of the trees' rows are held at
    once, so the caller bounds the group.
    """
    structure = np.concatenate([s for s, _ in partitions])
    estimation = np.concatenate([e for _, e in partitions])
    xs = np.ascontiguousarray(dataset.features[structure])
    xe = np.ascontiguousarray(dataset.features[estimation])
    rule = functools.partial(
        _sample_splits, xs, dataset.labels[structure], xe, dataset.class_count, config, rngs
    )
    return _grow(
        xs,
        [s.size for s, _ in partitions],
        xe,
        [e.size for _, e in partitions],
        dataset.labels[estimation],
        dataset.class_count,
        rule,
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
    return build_trees(dataset, [(structure_idx, estimation_idx)], config, [rng])[0]


def _sample_splits(
    xs: np.ndarray,
    ys: np.ndarray,
    xe: np.ndarray,
    class_count: int,
    config: "MrfConfig",
    rngs: Sequence[np.random.Generator],
    level: _Level,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw each node's (feature, threshold) via the two mechanisms, enforcing split validity.

    The search runs in three steps over all of the level's nodes, each step
    only for the nodes that the one before leaves a draw to make:

    1. Cut points: the :func:`cut_points` of every node's sorted structure
       values, less the cuts between two nodes' segments and those of nodes
       the gate stops. A node without a valid cut is a leaf and draws no
       uniforms; every other node takes its block of 15 from its tree's rng.
    2. Feasibility: a cut keeps at least ``k`` of the node's n estimation
       rows on each side exactly when ``threshold`` lies in ``[lo, hi)``,
       where lo and hi are the feature's k-th smallest and k-th largest
       estimation values, at columns ``start + k - 1`` and ``end - k`` of the
       node's sorted estimation segment. A node with no feasible cut would
       fail every attempt: it is a leaf, no impurity is scanned and no
       mechanism runs.
    3. Scan and draw: one :func:`scan_features` call scores the remaining
       nodes' cuts, and one batch of feature laws is built from each node's
       best decreases per feature. The five feature draws of every node
       depend on no outcome and are made at once. Then each attempt pair
       draws both values for the nodes still searching and checks them
       against the feasibility mask; the odd attempt's draw counts only if
       the even one missed. A node's value law for a feature is built the
       first time that feature is drawn there, in one batch per pair. A
       drawn feature with no feasible cut gets no value law: its value draws
       could only fail, so their uniforms go unread.

    Each node thus picks the cut of a search that rebuilds both laws at
    every attempt and reads its block's uniforms in order, and is a leaf
    when no attempt hits a feasible cut.
    """
    structure, estimation = level.structure, level.estimation
    nodes = structure.sizes.size
    feature, threshold = np.full(nodes, -1), np.zeros(nodes)
    k = config.k
    gated = (estimation.sizes > k) & (structure.sizes >= 2)
    if not gated.any() or config.max_depth is not None and level.depth >= config.max_depth:
        return feature, threshold
    features = np.arange(xs.shape[1])[:, None]
    valid, thresholds = cut_points(xs[structure.pos, features])
    node = structure.node[:-1]  # the node of each cut
    valid &= gated[node] & (node == structure.node[1:])
    has_cut = _nodes_with(valid, node, nodes)
    uniforms = _uniforms(rngs, level.tree[gated], level.tree[has_cut], _BLOCK)

    # a gated node's k-th smallest and k-th largest estimation values; the
    # lookups of the other nodes, whose cuts are all invalid, are only kept in range
    kth = np.minimum(estimation.bounds[:-1] + k - 1, estimation.pos.shape[1] - 1)
    lo = xe[estimation.pos[:, kth], features]
    hi = xe[estimation.pos[:, estimation.bounds[1:] - k], features]
    feasible = valid & (lo[:, node] <= thresholds) & (thresholds < hi[:, node])
    is_searched = _nodes_with(feasible, node, nodes)
    searched = np.flatnonzero(is_searched)
    if not searched.size:
        return feature, threshold

    pos = structure.pos
    if searched.size < nodes:
        # keep the searched nodes' columns; a cut after a segment's last
        # column crosses into the next segment and is already invalid
        columns = np.flatnonzero(is_searched[structure.node])
        pos = pos[:, columns]
        valid, thresholds, feasible = (a[:, columns[:-1]] for a in (valid, thresholds, feasible))
    sizes = structure.sizes[searched]
    starts = np.cumsum(sizes) - sizes
    decreases = scan_features(ys[pos], class_count, config.criterion, starts)
    best = np.maximum.reduceat(np.where(valid, decreases, -np.inf), starts, axis=1).T
    reachable = np.logical_or.reduceat(feasible, starts, axis=1).T
    eligible = best > -np.inf
    feature_laws = selection_cdfs(best[eligible], eligible.sum(axis=1), config.b1)
    eligible_feature = np.nonzero(eligible)[1]

    # attempt pair p draws its feature with uniform 3p and its two values with
    # 3p + 1 and 3p + 2; the five feature draws read no outcome, so all run at once
    block = uniforms[is_searched[has_cut]].reshape(searched.size, _PAIRS, 3)
    laws = np.repeat(np.arange(searched.size), _PAIRS)
    picks = select_feature(feature_laws, block[:, :, 0].ravel(), laws)
    drawn = eligible_feature[feature_laws.start[laws] + picks].reshape(searched.size, _PAIRS)
    valid_cuts, width = np.flatnonzero(valid), valid.shape[1]
    law_of = np.full(eligible.shape, -1)  # value law of each (node, feature), -1 until built
    value_laws = Laws(np.zeros(0), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp))
    law_cuts = np.zeros(0, dtype=np.intp)  # each value law's first entry in valid_cuts
    searching = np.arange(searched.size)
    for pair in range(_PAIRS):
        # a drawn feature without a feasible cut can only fail: its value uniforms go unread
        live = searching[reachable[searching, drawn[searching, pair]]]
        if not live.size:
            continue
        f = drawn[live, pair]
        new = live[law_of[live, f] < 0]
        if new.size:
            # the valid cuts of a (node, feature) are one run of valid_cuts
            origin = drawn[new, pair] * width + starts[new]
            run = np.searchsorted(valid_cuts, origin)
            run_sizes = np.searchsorted(valid_cuts, origin + sizes[new] - 1) - run
            scores = decreases.ravel()[valid_cuts[ragged_arange(run, run_sizes)]]
            law_of[new, drawn[new, pair]] = law_cuts.size + np.arange(new.size)
            value_laws = value_laws.extend(selection_cdfs(scores, run_sizes, config.b2))
            law_cuts = np.concatenate((law_cuts, run))
        laws = law_of[live, f]
        # both attempts of the pair draw; the odd one counts only if the even one missed
        picks = select_value(value_laws, block[live, pair, 1:].ravel(), np.repeat(laws, 2))
        # structure children are nonempty by construction: valid thresholds
        # lie strictly between two observed structure values
        cut = valid_cuts[np.repeat(law_cuts[laws], 2) + picks].reshape(live.size, 2)
        hit = feasible.ravel()[cut]
        won = hit.any(axis=1)
        cut = cut[won, np.argmax(hit[won], axis=1)]
        feature[searched[live[won]]] = f[won]
        threshold[searched[live[won]]] = thresholds.ravel()[cut]
        searching = searching[feature[searched[searching]] < 0]
    return feature, threshold


def build_baseline_trees(
    x: np.ndarray,
    y: np.ndarray,
    sizes: Sequence[int],
    class_count: int,
    k: int,
    mtry: int,
    criterion: str,
    rngs: Sequence[np.random.Generator],
) -> list[Tree]:
    """Grow greedy trees together, tree i from the next ``sizes[i]`` rows of
    ``x`` and labels of ``y`` with ``rngs[i]``.

    Each tree is the tree :func:`build_baseline_tree` grows from its rows and
    rng, and leaves its rng as that call would. All of the trees' rows are
    held at once, so the caller bounds the group.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rule = functools.partial(_greedy_splits, x, y, class_count, k, mtry, criterion, rngs)
    return _grow(x, sizes, None, sizes, y, class_count, rule)


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
    return build_baseline_trees(x, y, [len(y)], class_count, k, mtry, criterion, [rng])[0]


def _greedy_splits(
    x: np.ndarray,
    y: np.ndarray,
    class_count: int,
    k: int,
    mtry: int,
    criterion: str,
    rngs: Sequence[np.random.Generator],
    level: _Level,
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's best split over its feature subset, by one scan of the level.

    A node that is not pure and holds more than ``k`` rows draws D uniforms
    from its tree's rng; its subset is the first ``mtry`` features in their
    order, ascending. Row i of the scanned matrix holds each node's i-th
    subset feature.
    """
    structure = level.structure
    nodes = structure.sizes.size
    feature, threshold = np.full(nodes, -1), np.zeros(nodes)
    is_searched = (structure.sizes > k) & (level.counts.max(axis=1) < structure.sizes)
    searched = np.flatnonzero(is_searched)
    if not searched.size:
        return feature, threshold
    searched_tree = level.tree[searched]
    uniforms = _uniforms(rngs, searched_tree, searched_tree, x.shape[1])
    order = np.argsort(uniforms, axis=1, kind="stable")
    subset = np.sort(order[:, :mtry], axis=1)
    sizes = structure.sizes[searched]
    starts = np.cumsum(sizes) - sizes
    node = np.repeat(np.arange(searched.size), sizes)
    rows = subset[node].T
    pos = structure.pos[rows, np.flatnonzero(is_searched[structure.node])]
    valid, thresholds = cut_points(x[pos, rows])
    valid &= node[:-1] == node[1:]
    masked = np.where(valid, scan_features(y[pos], class_count, criterion, starts), -np.inf)
    best = np.maximum.reduceat(masked, starts, axis=1)
    # the first best is the lowest feature's, and in it the lowest threshold's
    row = np.argmax(best, axis=0)
    top = best[row, np.arange(searched.size)]
    found = np.flatnonzero(top > -np.inf)
    cut_node = node[:-1]
    hits = np.flatnonzero(masked[row[cut_node], np.arange(cut_node.size)] == top[cut_node])
    cut = hits[np.searchsorted(hits, starts[found])]
    feature[searched[found]] = subset[found, row[found]]
    threshold[searched[found]] = thresholds[row[found], cut]
    return feature, threshold


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

    Finite ``b3`` votes class c with probability ``softmax_scaled(eta, b3)[c]``,
    proportional to exp(b3 * eta_c / 2), the law :func:`audit_label_mechanism`
    audits, drawing one uniform per vote, tree by tree in row order; infinite
    ``b3`` votes the argmax class and draws nothing.
    """
    node = route_eta(trees, x)
    if math.isinf(b3):
        return trees.label[node]
    cdf = np.cumsum(softmax_scaled(trees.eta, b3), axis=1).T
    uniforms = rng.random(node.shape)
    # the vote counts the classes whose cdf is at or below the uniform, capped
    # at the last class: rounding can leave cdf[-1] below 1
    return sum(cum[node] <= uniforms for cum in cdf[:-1])
