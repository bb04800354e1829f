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
Leaves keep their estimation rows' class counts. Each level's columns are
concatenated and then ordered by tree, which lists each tree's nodes in its
own level order: the root is node 0, and the children of its r-th split are
nodes 2r - 1 and 2r.

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
  and makes ten attempts, of which the first that hits an acceptable cut
  wins; a node that no attempt hits is a leaf. Attempt a uses the feature
  drawn with the block's uniform 3(a // 2) and the value drawn with
  uniform 3(a // 2) + 1 + a % 2, so each pair of attempts shares a feature.
  No draw depends on another's outcome, so a level draws all of its
  attempts at once. Impurity is scanned only at nodes where some cut can be
  accepted. A level builds one batch of feature laws and one batch of value
  laws, one for each drawn (feature, node) whose feature has an acceptable
  cut; a drawn feature with none builds no law, and its value uniforms go
  unread.
- The greedy rule of :func:`build_baseline_tree` takes Breiman's best split
  over a random feature subset, and its rows are their own estimation rows.
  Each node it searches takes D uniforms, one ``rng.random`` call per tree
  and level, and its subset is the first ``mtry`` features of their order.

A :class:`Trees` is trees in flat per-node arrays, listed one after another,
each in level order: the grower writes one, the model file stores it, and
prediction reads it. Level order implies the children, so it stores none:
``Trees.left`` is derived from which nodes split, and :func:`read_trees`
checks that the nodes form trees by counting them and checking that every
split comes before its implied children. What prediction reads besides the
columns is derived on first use and kept, so they must not be mutated after
that. ``Trees.root`` is a ``TreeNode`` graph view of the first tree, built on
demand, which no library code reads. :func:`route_eta` moves all rows down
all trees a level per round; :func:`tree_votes` votes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .data import Partition
from .errors import ParseError
from .impurity import cut_points, scan_features
from .splitsel import select_feature, select_value, selection_cdfs, softmax_scaled

if TYPE_CHECKING:
    from .data import Dataset
    from .forest import MrfConfig

__all__ = [
    "TreeNode",
    "Trees",
    "read_trees",
    "build_tree",
    "build_trees",
    "build_baseline_tree",
    "build_baseline_trees",
    "route_eta",
    "tree_votes",
]

# (feature, value) samples tried per node before falling back to a leaf: ten
# attempts in pairs, the first of a pair drawing a feature and a value, the
# second a value for the same feature
_PAIRS = 5
# Uniforms of a searched node: per pair, one for the feature and one per value.
_BLOCK = 3 * _PAIRS

@dataclass(eq=False)
class TreeNode:
    """One node of :attr:`Trees.root`'s read-only graph view. Leaves have ``feature is None``."""

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
class Trees:
    """Trees in flat per-node arrays, listed one after another.

    Within a tree the root is its first node, and the children of its r-th
    split in node order (r = 1, 2, ...) are its nodes 2r - 1 and 2r, as in
    Jacobson's level-order encoding of binary trees, so ``feature`` and
    ``sizes`` fix every tree's shape. Leaves hold feature -1 and threshold 0;
    ``counts`` holds one row of estimation class counts per leaf, in node
    order, and a leaf's distribution is its row over the row's sum. A tree of
    s splits has 2s + 1 nodes and s + 1 leaves. What prediction reads besides
    the columns is derived on first use and kept. Indexing, slicing and
    iteration give ``Trees`` on views of these columns.
    """

    feature: np.ndarray  # (nodes,) split feature, -1 at leaves
    threshold: np.ndarray  # (nodes,) rows with value <= threshold go left
    counts: np.ndarray  # (leaves, K) estimation class counts
    sizes: np.ndarray  # (trees,) nodes of each tree

    @classmethod
    def concatenate(cls, parts: Sequence["Trees"]) -> "Trees":
        """The trees of ``parts``, in order; a single part is returned as it is."""
        if len(parts) == 1:
            return parts[0]
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, index: int | slice) -> "Trees":
        """Tree ``index``, or the trees of a slice of step 1; iteration gives each tree."""
        picked = range(len(self))[index]
        if isinstance(picked, int):
            picked = range(picked, picked + 1)
        elif picked.step != 1:
            raise IndexError("a slice of trees takes consecutive trees")
        a, b = picked.start, picked.stop
        node, leaf = (slice(starts[a], starts[b]) for starts in self._starts)
        return Trees(self.feature[node], self.threshold[node], self.counts[leaf], self.sizes[a:b])

    @cached_property
    def _starts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each tree's first node and first leaf, then the node and leaf counts."""
        return tuple(np.concatenate(([0], n.cumsum())) for n in (self.sizes, (self.sizes + 1) // 2))

    @cached_property
    def roots(self) -> np.ndarray:
        """Each tree's first node."""
        return self._starts[0][:-1]

    @cached_property
    def left(self) -> np.ndarray:
        """Each node's left child; a split's right child is ``left + 1``, and a leaf is its own."""
        return _left_children(self.feature, self.sizes)

    @cached_property
    def right(self) -> np.ndarray:
        """Each node's right child; a leaf is its own, so a row routed past its leaf stays there."""
        return self.left + (self.feature != -1)

    @cached_property
    def eta(self) -> np.ndarray:
        """(nodes, K): each leaf's class distribution, its counts over their sum; zero at splits."""
        eta = np.zeros((self.feature.size, self.counts.shape[1]))
        eta[self.feature == -1] = self.counts / self.counts.sum(axis=1, keepdims=True)
        return eta

    @cached_property
    def label(self) -> np.ndarray:
        """Each node's argmax class of ``eta``, the lowest index on ties."""
        return np.argmax(self.eta, axis=1)

    @cached_property
    def depth(self) -> int:
        """Levels below its root of any tree's deepest leaf, walking all trees a level at a time."""
        depth, frontier = -1, self.roots
        while frontier.size:
            depth += 1
            children = self.left[frontier[self.feature[frontier] != -1]]
            frontier = np.concatenate((children, children + 1))
        return depth

    @property
    def root(self) -> TreeNode:
        """The first tree as a ``TreeNode`` graph, built afresh from the arrays on each call."""
        nodes = [TreeNode(depth=0) for _ in range(self.sizes[0])]
        leaves = zip(self.counts, self.eta[self.feature == -1])
        for node, feature, threshold, left in zip(nodes, self.feature, self.threshold, self.left):
            if feature == -1:
                node.counts, node.eta = next(leaves)
                continue
            node.feature, node.threshold = int(feature), float(threshold)
            node.left, node.right = nodes[left], nodes[left + 1]
            # children follow their parent, so its depth is final here
            node.left.depth = node.right.depth = node.depth + 1
        return nodes[0]

    def to_docs(self) -> list[dict[str, Any]]:
        """JSON-ready columns of each tree, thresholds of splits only, for :func:`read_trees`."""
        nodes, leaves = (starts.tolist() for starts in self._starts)
        feature, counts = self.feature.tolist(), self.counts.tolist()
        threshold = self.threshold[self.feature != -1].tolist()
        # the splits before a tree are its first node less its first leaf
        return [
            {"feature": feature[a:b], "threshold": threshold[a - c : b - d], "counts": counts[c:d]}
            for a, b, c, d in zip(nodes, nodes[1:], leaves, leaves[1:])
        ]


def read_trees(docs: Sequence[dict[str, Any]], class_count: int, feature_count: int) -> Trees:
    """The trees of :meth:`Trees.to_docs` documents, checked once as whole arrays for all of them.

    Each column of all trees is converted once and checked with per-tree
    offsets. The nodes form a tree exactly when the tree has twice as many
    nodes as splits, plus one, and every split comes before its implied
    left child: then every node but the root has one parent, listed before
    it. A corrupt document raises :class:`ParseError`: columns that are not
    flat lists of integers (thresholds: numbers); nodes that do not form a
    tree; a threshold count other than the split count; a split feature
    outside ``[0, feature_count)``; a threshold that is NaN or infinite; or
    leaf counts that are not ``class_count`` per leaf, are negative, or sum
    to zero, and a list of no trees.
    """
    if not docs:
        raise ParseError("a model holds no trees")
    lengths = np.array([[len(doc[c]) for c in ("feature", "threshold", "counts")] for doc in docs])
    feature, counts = (_column(docs, name, "i") for name in ("feature", "counts"))
    threshold = _column(docs, "threshold", "if").astype(np.float64)
    size = lengths[:, 0]
    if feature.shape != (size.sum(),) or threshold.ndim != 1:
        raise ParseError("tree columns are not flat lists")
    tree = np.repeat(np.arange(len(docs)), size)
    split = feature != -1
    splits = np.bincount(tree[split], minlength=len(docs))
    if (size != 2 * splits + 1).any():
        raise ParseError("nodes do not form a tree: a tree's nodes are not 2 * splits + 1")

    def where(i: int) -> str:
        return f"tree {tree[i]} node {i - (np.cumsum(size) - size)[tree[i]]}"

    behind = split & (_left_children(feature, size) <= np.arange(feature.size))
    if behind.any():
        fault = "nodes do not form a tree: a split is not before its children"
        raise ParseError(f"{where(np.argmax(behind))}: {fault}")
    outside = split & ((feature < 0) | (feature >= feature_count))
    if outside.any():
        raise ParseError(f"{where(np.argmax(outside))}: feature out of range")
    if (lengths[:, 1] != splits).any():
        raise ParseError("tree thresholds are not one per split")
    if not np.isfinite(threshold).all():
        raise ParseError("a threshold is not finite")
    leaves = size - splits
    if counts.shape != (leaves.sum(), class_count) or (lengths[:, 2] != leaves).any():
        raise ParseError(f"leaf counts are not {class_count} per leaf")
    if (counts < 0).any() or (counts.sum(axis=1) == 0).any():
        raise ParseError("leaf counts are negative or sum to zero")
    full = np.zeros(feature.size)
    full[split] = threshold
    return Trees(feature.astype(np.intp, copy=False), full, counts, size)


def _left_children(feature: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each node's left child, a leaf being its own, in level-order trees of
    ``sizes`` nodes each, listed one after another.

    A tree of s splits has 2s + 1 nodes, so tree k starts at node 2b + k, b
    counting the splits of the trees before it, and the r-th split of all,
    if it is in tree k, has its left child at 2r + k - 1.
    """
    split = feature != -1
    left = 2 * np.cumsum(split) + np.repeat(np.arange(len(sizes)) - 1, sizes)
    return np.where(split, left, np.arange(feature.size))


def _column(docs: Sequence[dict[str, Any]], name: str, kinds: str) -> np.ndarray:
    # one conversion per tree and column; numpy raises ValueError on ragged nesting.
    # An empty list adds no values and has no type of its own (numpy makes it
    # float64), so it is left out, and the shape checks name what is wrong.
    parts = [part for doc in docs if (part := np.asarray(doc[name])).shape != (0,)]
    if any(part.dtype.kind not in kinds for part in parts):
        raise ParseError(f"tree column {name!r} holds values of the wrong type")
    return np.concatenate(parts) if parts else np.empty(0, kinds[0])


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
) -> Trees:
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
    depth = 0
    while True:
        nodes = tree.size
        labels = estimation.node * class_count + ye[estimation.pos[0]]
        counts = np.bincount(labels, minlength=nodes * class_count).reshape(nodes, class_count)
        feature, threshold = rule(_Level(depth, tree, structure, estimation, counts))
        split = feature >= 0
        columns.append((feature, threshold, tree))
        leaf_counts.append(counts[~split])
        if not split.any():
            break
        structure = structure.children(xs, feature, threshold)
        estimation = structure if xe is None else estimation.children(xe, feature, threshold)
        tree = tree[split].repeat(2)
        depth += 1
    feature, threshold, tree = (np.concatenate(column) for column in zip(*columns))
    # a stable sort by tree keeps each tree's nodes in their order, its own level order
    order = np.argsort(tree, kind="stable")
    counts = np.concatenate(leaf_counts)[np.argsort(tree[feature < 0], kind="stable")]
    return Trees(feature[order], threshold[order], counts, np.bincount(tree, minlength=trees))


def _uniforms(rngs: Sequence[np.random.Generator], node_tree: np.ndarray, width: int) -> np.ndarray:
    """A row of ``width`` uniforms for each node, drawn from its tree's rng in node order.

    ``node_tree`` is the tree of each node, ascending. Each tree makes one
    ``random`` call for all of its nodes; a call for no rows draws nothing.
    """
    counts = np.bincount(node_tree, minlength=len(rngs)).tolist()
    return np.concatenate([rng.random((n, width)) for rng, n in zip(rngs, counts)])


def _nodes_with(mask: np.ndarray, node: np.ndarray, nodes: int) -> np.ndarray:
    """Which of ``nodes`` own a column of ``mask`` holding a True; column c is ``node[c]``'s."""
    found = np.zeros(nodes, dtype=bool)
    found[node[mask.any(axis=0)]] = True
    return found


def build_trees(
    dataset: "Dataset",
    partitions: Sequence[Partition],
    config: "MrfConfig",
    rngs: Sequence[np.random.Generator],
) -> Trees:
    """Grow multinomial trees together, tree i from the structure/estimation
    row split ``partitions[i]`` with ``rngs[i]``.

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
) -> Trees:
    """Grow one multinomial tree from a structure/estimation row split.

    Recursion gate: a node splits only while it holds more than ``k``
    estimation rows, at least two structure rows with a non-constant feature,
    and (in privacy mode) depth below the configured cap. All degenerate
    paths resolve to leaves.
    """
    return build_trees(dataset, [Partition(structure_idx, estimation_idx)], config, [rng])


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
       best decreases per feature. No draw reads an outcome, so each node's
       five feature draws, and then both value draws of each of its pairs,
       are made at once for the whole level: one batch of value laws covers
       every drawn (feature, node) whose feature has a feasible cut, over
       that feature's valid cuts at the node. A drawn feature with no
       feasible cut gets no value law: its value draws could only fail, so
       their uniforms go unread and its attempts miss.

    Each node takes the cut of its first attempt that hits a feasible cut,
    the cut a search that rebuilds both laws at every attempt and reads its
    block's uniforms in order would pick, and is a leaf when no attempt hits.
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
    uniforms = _uniforms(rngs, level.tree[has_cut], _BLOCK)

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
    # 3p + 1 and 3p + 2; no draw reads an outcome, so all run at once
    block = uniforms[is_searched[has_cut]].reshape(searched.size, _PAIRS, 3)
    laws = np.repeat(np.arange(searched.size), _PAIRS)
    picks = select_feature(feature_laws, block[:, :, 0].ravel(), laws)
    drawn = eligible_feature[feature_laws.start[laws] + picks].reshape(searched.size, _PAIRS)
    # one value law per drawn (feature, node) whose feature has a feasible cut,
    # over its valid cuts there: one run per pair, in feature-major order
    rows = np.arange(searched.size)[:, None]
    live = reachable[rows, drawn]
    needed = np.zeros((xs.shape[1], searched.size), dtype=bool)
    needed[drawn, rows] = live
    runs = valid & needed[:, np.repeat(rows[:, 0], sizes)[:-1]]
    cuts = np.flatnonzero(runs)
    run_sizes = np.add.reduceat(runs, starts, axis=1)[needed]
    value_laws = selection_cdfs(decreases.ravel()[cuts], run_sizes, config.b2)
    law_of = np.cumsum(needed).reshape(needed.shape) - 1
    law = law_of[drawn, rows][live]
    picks = select_value(value_laws, block[:, :, 1:][live].ravel(), np.repeat(law, 2))
    # each attempt's cut, -1 where its feature has no feasible cut; structure
    # children are nonempty by construction: valid thresholds lie strictly
    # between two observed structure values
    attempts = np.full((searched.size, _PAIRS, 2), -1)
    attempts[live] = cuts[np.repeat(value_laws.start[law], 2) + picks].reshape(-1, 2)
    attempts = attempts.reshape(searched.size, 2 * _PAIRS)
    hit = (attempts >= 0) & feasible.ravel()[attempts]
    won = hit.any(axis=1)
    cut = attempts[won, np.argmax(hit[won], axis=1)]
    feature[searched[won]] = cut // valid.shape[1]
    threshold[searched[won]] = thresholds.ravel()[cut]
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
) -> Trees:
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
) -> Trees:
    """Greedy CART tree over (possibly bootstrapped) rows.

    Each node draws ``mtry`` features without replacement and takes the
    candidate with the largest impurity decrease, breaking ties toward the
    lowest feature index and then the lowest threshold. Nodes stop when pure
    or at most ``k`` rows remain; leaves predict their majority class. The
    rows are their own estimation rows.
    """
    return build_baseline_trees(x, y, [len(y)], class_count, k, mtry, criterion, [rng])


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
    uniforms = _uniforms(rngs, level.tree[searched], x.shape[1])
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


def route_eta(trees: Trees, x: np.ndarray) -> np.ndarray:
    """The (trees, rows) matrix of leaves reached; ``trees.eta`` of a leaf is its distribution.

    Each of ``trees.depth`` rounds moves every row one level down every tree
    with one gather (left iff value <= threshold). A leaf's feature -1 reads
    the last column, and both of its children are the leaf itself.
    """
    rows = np.arange(x.shape[0])
    # read once: a cached property is slower to look up than a field, round after round
    feature, threshold, left, right = trees.feature, trees.threshold, trees.left, trees.right
    node = np.repeat(trees.roots[:, None], x.shape[0], axis=1)
    for _ in range(trees.depth):
        go_left = x[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return node


def tree_votes(
    trees: Trees, x: np.ndarray, b3: float, rng: np.random.Generator | None
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
