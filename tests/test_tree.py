"""Tree construction, leaf estimation, prediction, and serialization."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from conftest import law_at, random_dataset
from mrforest.data import Dataset, partition
from mrforest.forest import MrfConfig
from mrforest.errors import ConfigError, ParseError
from mrforest.forest import Forest, predict_batch
import mrforest.tree
from mrforest.impurity import cut_points, scan_features
from mrforest.splitsel import softmax_scaled
from mrforest.tree import (
    Trees,
    TreeNode,
    _Level,
    _sample_splits,
    _Segments,
    build_baseline_tree,
    build_tree,
    build_trees,
    read_trees,
    route_eta,
    tree_votes,
)
from oracle import (
    BLOCK,
    TieError,
    depth_first_build_tree,
    exhaustive_cart,
    flat_tree,
    gather_sorted,
    inverse_cdf_draws,
    normalize,
    reference_build_baseline_tree,
    reference_build_tree,
    reference_node_split,
    sorted_positions,
    tree_shape,
    v1_tree_doc,
    walk_eta,
)


def _build(dataset, config, seed=0):
    rng = np.random.default_rng(seed)
    part = partition(dataset, config.partition_rate, rng)
    tree = build_tree(dataset, part.structure_idx, part.estimation_idx, config, rng)
    return tree, part


def leaf_eta(tree: Trees, x: np.ndarray) -> np.ndarray:
    """Leaf class distribution of each row, routed on the tree's arrays."""
    return tree.eta[route_eta(tree, x)[0]]


def votes(tree: Trees, x: np.ndarray, b3: float, rng=None) -> np.ndarray:
    """One tree's votes on the rows of ``x``."""
    return tree_votes(tree, np.atleast_2d(x), b3, rng)[0]


def iter_leaves(tree: Trees):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            yield node
        else:
            stack.extend([node.left, node.right])


MRF_RULES = (
    dict(b1=10.0, b2=10.0),
    dict(b1=math.inf, b2=math.inf),
    dict(b1=0.0, b2=0.0),
    dict(max_depth=2),
    dict(criterion="entropy"),
    dict(partition_rate=0.5, k=1),
)
BASELINE_RULES = (
    dict(bootstrap=True),
    dict(bootstrap=False),
    dict(bootstrap=True, mtry="D"),
    dict(bootstrap=False, criterion="entropy"),
)


def _fuzzed_dataset(rng) -> Dataset:
    """2-300 rows of 1-5 features; half the draws round values so ties and constants occur."""
    n, d, classes = int(rng.integers(2, 300)), int(rng.integers(1, 6)), int(rng.integers(2, 5))
    ds = random_dataset(rng, n, d, n_classes=classes)
    if rng.random() < 0.5:
        return ds
    return Dataset(np.round(ds.features, 1), ds.labels, ds.feature_names, ds.class_count)


def _mrf_case(seed: int) -> tuple[Dataset, MrfConfig]:
    rng = np.random.default_rng(seed)
    ds = _fuzzed_dataset(rng)
    # every other round draws k up to beyond the estimation half, which leaves only a root
    k = int(rng.integers(1, ds.n + 2)) if (seed // len(MRF_RULES)) % 2 else 1 + seed % 3
    return ds, MrfConfig(t=1, **{"k": k, **MRF_RULES[seed % len(MRF_RULES)]})


def _grow_mrf(build, ds: Dataset, config: MrfConfig, seed: int) -> tuple[Trees, float]:
    """The tree ``build`` grows and the next draw of its rng."""
    rng = np.random.default_rng(seed)
    part = partition(ds, config.partition_rate, rng)
    tree = build(ds, part.structure_idx, part.estimation_idx, config, rng)
    return tree, rng.random()


def _baseline_case(seed: int) -> tuple[Dataset, int, int, dict]:
    rng = np.random.default_rng(1000 + seed)
    ds = _fuzzed_dataset(rng)
    rule = BASELINE_RULES[seed % len(BASELINE_RULES)]
    mtry = ds.feature_count if "mtry" in rule else int(rng.integers(1, ds.feature_count + 1))
    # every third case draws k up to twice the row count: k >= n leaves only a root
    k = int(rng.integers(1, 2 * ds.n)) if seed % 3 == 0 else 1 + seed % 4
    return ds, k, mtry, rule


def _grow_baseline(build, ds: Dataset, k: int, mtry: int, rule: dict, seed: int):
    """The tree ``build`` grows and the next draw of its rng."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, ds.n, size=ds.n) if rule["bootstrap"] else np.arange(ds.n)
    criterion = rule.get("criterion", "gini")
    tree = build(ds.features[rows], ds.labels[rows], ds.class_count, k, mtry, criterion, rng)
    return tree, rng.random()


class TestOneGrower:
    """Both builders grow the trees, and draw the rng stream, of their former own node loops.

    The version 1 documents compare every node's feature, threshold, depth,
    counts and eta, in the same node order; the grown arrays must also pass
    the model loader's checks.
    """

    @pytest.mark.parametrize("seed", range(48))
    def test_mrf_matches_reference(self, seed):
        ds, config = _mrf_case(seed)
        tree, draw = _grow_mrf(build_tree, ds, config, seed)
        reference, reference_draw = _grow_mrf(reference_build_tree, ds, config, seed)
        assert v1_tree_doc(tree) == v1_tree_doc(reference)
        assert draw == reference_draw
        read_trees(tree.to_docs(), ds.class_count, ds.feature_count)

    @pytest.mark.parametrize("seed", range(32))
    def test_baseline_matches_reference(self, seed):
        case = _baseline_case(seed)
        tree, draw = _grow_baseline(build_baseline_tree, *case, seed)
        reference, reference_draw = _grow_baseline(reference_build_baseline_tree, *case, seed)
        assert v1_tree_doc(tree) == v1_tree_doc(reference)
        assert draw == reference_draw
        read_trees(tree.to_docs(), case[0].class_count, case[0].feature_count)

    def test_fuzzed_cases_reach_root_only_and_deep_trees(self):
        mrf = [_grow_mrf(build_tree, *_mrf_case(seed), seed)[0].depth for seed in range(48)]
        baseline = [
            _grow_baseline(build_baseline_tree, *_baseline_case(seed), seed)[0].depth
            for seed in range(32)
        ]
        for depths in (mrf, baseline):
            assert min(depths) == 0 and max(depths) >= 5


# estimation row counts of a node, the first three above k as the split rule requires
EST_SIZES = (lambda k: k + 1, lambda k: 2 * k, lambda k: 2 * k + 1, lambda k: 2 * k - 1)
SEARCH_RULES = (
    dict(b1=10.0, b2=10.0),
    dict(b1=math.inf, b2=math.inf),
    dict(b1=0.0, b2=0.0),
    dict(criterion="entropy"),
    dict(b1=0.05, b2=0.05, max_depth=3),  # a privacy-mode depth cap and budgets
)


def _search_level(seed: int):
    """A fuzzed level of 1-6 nodes for ``_sample_splits``, its nodes one by one, and its config.

    Values are integers 0-5, so structure rows tie and every candidate
    threshold is a multiple of 0.5; estimation values are drawn from those
    multiples, so they land on cut points. Every other level draws them from
    only two values, so both order statistics sit inside runs of ties. Most
    nodes pass the gate; some hold one structure row or ``2k - 1``
    estimation rows, and a level at depth 3 under the depth cap has none
    that pass. Returns the level, each node's ``(xs, ys, xe, sorted_pos,
    est_pos, classes)`` for :func:`reference_node_split`, and the config.
    """
    rng = np.random.default_rng(seed)
    k = 1 if seed % 3 == 0 else int(rng.integers(2, 7))
    count, d, classes = int(rng.integers(1, 7)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
    m = rng.integers(2, 20, size=count)
    m[rng.random(count) < 0.1] = 1
    n_est = np.array([EST_SIZES[int(rng.integers(0, len(EST_SIZES)))](k) for _ in range(count)])
    xs = rng.integers(0, 6, size=(m.sum(), d)).astype(np.float64)
    ys = rng.integers(0, classes, size=xs.shape[0])
    pool = np.arange(0.0, 5.5, 0.5)
    if seed % 2:
        pool = rng.choice(pool, size=2, replace=False)
    xe = rng.choice(pool, size=(n_est.sum() + int(rng.integers(0, 5)), d))
    s_rows = np.split(rng.permutation(xs.shape[0]), np.cumsum(m)[:-1])
    e_rows = np.split(rng.permutation(xe.shape[0])[: n_est.sum()], np.cumsum(n_est)[:-1])
    nodes = []
    for rows, est in zip(s_rows, e_rows):
        rows = np.sort(rows)  # ties in row order, as the grower keeps them
        nodes.append((xs, ys, xe, rows[sorted_positions(xs[rows])], est, classes))

    def segments(x, positions):
        sorted_pos = [p[sorted_positions(x[p])] for p in map(np.sort, positions)]
        bounds = np.concatenate(([0], np.cumsum([p.size for p in positions])))
        return _Segments(np.concatenate(sorted_pos, axis=1).astype(np.int32), bounds)

    counts = np.zeros((count, classes), dtype=np.int64)  # the multinomial rule reads none
    tree = np.zeros(count, dtype=np.intp)  # one tree
    level = _Level(seed % 4, tree, segments(xs, s_rows), segments(xe, e_rows), counts)
    config = MrfConfig(t=1, k=k, **SEARCH_RULES[seed % len(SEARCH_RULES)])
    return level, nodes, config


def _decide_level(seed, rng=None):
    level, nodes, config = _search_level(seed)
    xs, ys, xe, _, _, classes = nodes[0]
    rng = np.random.default_rng(seed) if rng is None else rng
    return _sample_splits(xs, ys, xe, classes, config, [rng], level)


class _CountingRng:
    """An rng that records the shape of each ``random`` call."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def random(self, size=None):
        self.calls.append(size)
        return self.rng.random(size)


class TestSplitSearch:
    """A level's nodes get the splits, and the level draws the rng stream, of
    each node searched on its own with its block of 15 uniforms replayed, by
    the search that runs both mechanisms on every attempt and counts
    estimation rows per cut."""

    @pytest.mark.parametrize("seed", range(160))
    def test_matches_reference_search(self, seed):
        level, nodes, config = _search_level(seed)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        feature, threshold = _decide_level(seed, rng)
        for i, node in enumerate(nodes):
            split = reference_node_split(*node, config, level.depth, reference_rng)
            if split is None:
                assert (feature[i], threshold[i]) == (-1, 0.0)
            else:
                assert (feature[i], threshold[i]) == split[:2]
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_fuzzed_nodes_reach_every_outcome(self):
        # outcomes: a split won by the first attempt, by an odd attempt (a
        # pair's second value) and by an attempt of a later pair, so the first
        # hit must win over later ones; feasible cuts that the attempts all
        # missed, a cut but none feasible (no mechanism runs), no cut, and a
        # gated node
        outcomes = set()
        for seed in range(160):
            level, nodes, config = _search_level(seed)
            feature, _ = _decide_level(seed)
            reference_rng = np.random.default_rng(seed)
            for i, node in enumerate(nodes):
                trace = []  # the reference search's attempts, up to its first hit
                reference_node_split(*node, config, level.depth, reference_rng, trace)
                has_cut, has_feasible = _brute_force_cuts(node, config.k)
                capped = config.max_depth is not None and level.depth >= config.max_depth
                if capped or node[4].size <= config.k or node[3].shape[1] < 2:
                    outcomes.add("gated")
                elif feature[i] >= 0:
                    assert has_feasible
                    won = len(trace) - 1
                    if won == 0:
                        outcomes.add("won by attempt 0")
                    if won % 2:
                        outcomes.add("won by an odd attempt")
                    if won >= 2:
                        outcomes.add("won in a later pair")
                else:
                    missed = "missed" if has_feasible else "infeasible"
                    outcomes.add(missed if has_cut else "no cut")
        assert outcomes == {
            "won by attempt 0",
            "won by an odd attempt",
            "won in a later pair",
            "missed",
            "infeasible",
            "no cut",
            "gated",
        }

    @pytest.mark.parametrize(
        "xe, k",
        [
            (np.arange(5.0)[:, None], 3),  # 2k - 1 rows: no cut leaves k on both sides
            (np.full((6, 1), 2.0), 3),  # 2k rows tied at both order statistics
            (np.full((4, 1), 9.0), 1),  # every estimation row above every cut
        ],
    )
    def test_infeasible_node_runs_no_mechanism(self, monkeypatch, xe, k):
        def no_draw(*args):
            raise AssertionError("a mechanism ran for a node without a feasible cut")

        monkeypatch.setattr(mrforest.tree, "select_feature", no_draw)
        monkeypatch.setattr(mrforest.tree, "select_value", no_draw)
        monkeypatch.setattr(mrforest.tree, "selection_cdfs", no_draw)
        xs = np.arange(8.0)[:, None]
        level = _Level(
            0,
            np.zeros(1, dtype=np.intp),
            _Segments.roots(xs, [8]),
            _Segments.roots(xe, [xe.shape[0]]),
            np.zeros((1, 2), dtype=np.int64),
        )
        rng, expected = np.random.default_rng(5), np.random.default_rng(5)
        config = MrfConfig(t=1, k=k)
        feature, _ = _sample_splits(xs, np.arange(8) % 2, xe, 2, config, [rng], level)
        assert feature.tolist() == [-1]
        expected.random(BLOCK)  # the ten value and five feature draws of the attempts
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_scan_runs_only_at_nodes_with_a_feasible_cut(self, monkeypatch):
        # a level with a node past the gate draws one (nodes, 15) block of
        # uniforms for its nodes past the gate with a valid cut, and runs one
        # scan over exactly the columns of its nodes with a feasible cut, or none
        scans = []
        real_scan = mrforest.tree.scan_features

        def counted_scan(*args):
            scans.append(args[0].shape)
            return real_scan(*args)

        monkeypatch.setattr(mrforest.tree, "scan_features", counted_scan)
        kinds = set()
        for seed in range(160):
            level, nodes, config = _search_level(seed)
            capped = config.max_depth is not None and level.depth >= config.max_depth
            passing = with_cut = feasible_columns = 0
            for node in nodes:
                if capped or node[4].size <= config.k or node[3].shape[1] < 2:
                    continue
                has_cut, has_feasible = _brute_force_cuts(node, config.k)
                passing += 1
                with_cut += has_cut
                feasible_columns += has_feasible * node[3].shape[1]
            rng = _CountingRng(seed)
            scans.clear()
            _decide_level(seed, rng)
            assert rng.calls == ([(with_cut, BLOCK)] if passing else [])
            if feasible_columns:
                assert [shape[1] for shape in scans] == [feasible_columns]
                kinds.add("scanned")
            else:
                assert scans == []
                kinds.add("cut, no scan" if with_cut else "no cut")
        assert kinds == {"scanned", "cut, no scan", "no cut"}

    def test_each_law_is_built_at_most_once(self, monkeypatch):
        # per level: one batch of feature laws, each searched node's law over
        # all D features, equal to its own law over its best decreases where a
        # feature has a cut and without mass where it has none, and one batch
        # of value laws, once each for the distinct features its five pairs
        # draw that have a feasible cut, and for no other
        built = []
        real_laws = mrforest.tree.selection_cdfs

        def counted_laws(scores, sizes, budget):
            laws = real_laws(scores, sizes, budget)
            built.append((scores, sizes, laws))
            return laws

        monkeypatch.setattr(mrforest.tree, "selection_cdfs", counted_laws)
        seen = set()
        for seed in range(160):
            level, nodes, config = _search_level(seed)
            built.clear()
            _decide_level(seed)
            reference_rng = np.random.default_rng(seed)
            capped = config.max_depth is not None and level.depth >= config.max_depth
            own_laws, value_law_sizes = [], []
            for node in nodes:
                if capped or node[4].size <= config.k or node[3].shape[1] < 2:
                    continue
                has_cut, has_feasible = _brute_force_feature_cuts(node, config.k)
                if not any(has_cut):
                    continue
                block = reference_rng.random(BLOCK)
                if not any(has_feasible):
                    continue
                xs, ys, _, sorted_pos, _, classes = node
                valid, _ = cut_points(gather_sorted(xs, sorted_pos))
                decreases = scan_features(ys[sorted_pos], classes, config.criterion)
                best = np.where(valid, decreases, -np.inf).max(axis=1)
                own = softmax_scaled(normalize(best[np.array(has_cut)]), config.b1)
                own_laws.append((np.array(has_cut), np.cumsum(own)))
                # the feature draws replay uniforms 0, 3, 6, 9 and 12 of the block
                drawn = np.flatnonzero(has_cut)[inverse_cdf_draws(own, block[::3])]
                reached = {int(f) for f in drawn if has_feasible[f]}
                value_law_sizes += [int(valid[f].sum()) for f in reached]
                if reached:
                    seen.add("one law" if len(reached) == 1 else "several laws")
                if len(reached) < len(set(drawn.tolist())):
                    seen.add("no feasible cut")
            if not own_laws:
                assert built == []
                continue
            (_, _, feature_laws), (_, _, value_laws) = built
            assert len(own_laws) == feature_laws.size.size
            for i, (has_cut, law) in enumerate(own_laws):
                cdf = law_at(feature_laws, i)
                assert cdf.size == has_cut.size
                np.testing.assert_allclose(cdf[has_cut], law, rtol=1e-9)
                np.testing.assert_array_equal(np.diff(cdf, prepend=0.0)[~has_cut], 0.0)
            assert sorted(value_laws.size.tolist()) == sorted(value_law_sizes)
        assert seen == {"one law", "several laws", "no feasible cut"}


# a micro-dataset: n=8, D=2, K=2, whose k=1 trees at b1 = b2 = 1 take many shapes.
# Feature a separates every 4-row structure half that holds both labels; in
# feature b's order the labels alternate, so b ties a on only 18 of those 68
# halves. The feature law's budget thus moves the roots: a witness run at
# b1 = 2 on one side reads root p 8e-5.
WITNESS_X = np.array([[0.0, 1.0], [1, 3], [2, 5], [3, 7], [4, 0], [5, 2], [6, 4], [7, 6]])
WITNESS_Y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
WITNESS_SEEDS = 3000


def _split_key(tree: Trees, node: int = 0) -> tuple:
    """A tree's splits as nested tuples, whatever order its nodes are numbered in."""
    if tree.feature[node] == -1:
        return ()
    left = int(tree.left[node])
    return (
        int(tree.feature[node]),
        float(tree.threshold[node]),
        _split_key(tree, left),
        _split_key(tree, left + 1),
    )


def _two_sample_p(first: Counter, second: Counter) -> float:
    """Chi-square p of two samples over categories; rare categories are pooled."""
    keys = sorted(set(first) | set(second), key=lambda key: -(first[key] + second[key]))
    table, pooled = [], [0, 0]
    for key in keys:
        if first[key] + second[key] >= 20:
            table.append([first[key], second[key]])
        else:
            pooled[0] += first[key]
            pooled[1] += second[key]
    if sum(pooled) >= 20:
        table.append(pooled)
    return float(scipy.stats.chi2_contingency(np.array(table).T).pvalue)


class TestDistributionWitness:
    """The level grower draws trees from the distribution of the depth-first
    grower it replaced: the nodes read other uniforms, under the same law."""

    def test_root_splits_and_tree_shapes_match_the_depth_first_grower(self):
        ds = Dataset(WITNESS_X, WITNESS_Y, ("a", "b"), 2)
        config = MrfConfig(t=1, k=1, b1=1.0, b2=1.0)
        roots, shapes = (Counter(), Counter()), (Counter(), Counter())
        # the library's trees grow together, each from its own seed's partition and rng
        rngs = [np.random.default_rng(seed) for seed in range(WITNESS_SEEDS)]
        parts = [partition(ds, config.partition_rate, rng) for rng in rngs]
        library = build_trees(ds, parts, config, rngs)
        seeds = range(WITNESS_SEEDS, 2 * WITNESS_SEEDS)
        reference = [_grow_mrf(depth_first_build_tree, ds, config, seed)[0] for seed in seeds]
        for side, trees in enumerate((library, reference)):
            for tree in trees:
                shape = _split_key(tree)
                roots[side][shape[:2]] += 1
                shapes[side][shape] += 1
        # enough kinds of root and shape that the test can tell them apart
        assert len(roots[0]) >= 6 and len(shapes[0]) >= 20
        assert _two_sample_p(*roots) > 0.001
        assert _two_sample_p(*shapes) > 0.001


def _brute_force_cuts(node, k) -> tuple[bool, bool]:
    """Whether a node has a cut, and a cut leaving ``k`` estimation rows on each side."""
    has_cut, has_feasible = _brute_force_feature_cuts(node, k)
    return any(has_cut), any(has_feasible)


def _brute_force_feature_cuts(node, k) -> tuple[list[bool], list[bool]]:
    """Per feature: whether it has a cut, and a cut leaving ``k`` estimation rows on each side.

    Each cut of a feature is the midpoint of two adjacent distinct structure
    values that lies below the upper one; its estimation rows are counted by
    comparing every row with it.
    """
    xs, _, xe, sorted_pos, est_pos, _ = node
    has_cut, has_feasible = [], []
    for feature in range(xs.shape[1]):
        distinct = np.unique(xs[sorted_pos[feature], feature])
        any_cut = any_feasible = False
        for lower, upper in zip(distinct[:-1], distinct[1:]):
            threshold = 0.5 * (lower + upper)
            if threshold >= upper:
                continue
            any_cut = True
            left = int((xe[est_pos, feature] <= threshold).sum())
            any_feasible |= left >= k and est_pos.size - left >= k
        has_cut.append(any_cut)
        has_feasible.append(any_feasible)
    return has_cut, has_feasible


class TestStoppingRules:
    def test_estimation_at_k_gives_single_leaf(self, rng):
        ds = random_dataset(rng, 40, 2)
        config = MrfConfig(t=1, k=20, seed=0)  # estimation side gets exactly 20
        tree, part = _build(ds, config)
        assert part.estimation_idx.size == 20
        assert tree.root.is_leaf
        assert tree.depth == 0

    def test_identical_structure_rows_leaf(self):
        features = np.ones((30, 3))
        labels = np.arange(30) % 2
        ds = Dataset(features, labels, ("a", "b", "c"), 2)
        tree, _ = _build(ds, MrfConfig(t=1, k=2, seed=1))
        assert tree.root.is_leaf

    def test_depth_cap_enforced(self, rng):
        ds = random_dataset(rng, 400, 3)
        tree, _ = _build(ds, MrfConfig(t=1, k=2, max_depth=3, seed=2))
        assert tree.depth <= 3
        assert max(leaf.depth for leaf in iter_leaves(tree)) <= 3

    def test_greedy_limit_separable_root_threshold(self, rng):
        # 200 points on one feature, labels split at value 0: the greedy-limit
        # root must match the brute-force best midpoint
        values = np.sort(rng.uniform(-1, 1, size=200))
        labels = (values > 0).astype(int)
        ds = Dataset(values.reshape(-1, 1), labels, ("x",), 2)
        config = MrfConfig(t=1, k=5, b1=math.inf, b2=math.inf, seed=3)
        tree, part = _build(ds, config, seed=3)
        s = part.structure_idx
        best_thr, best_dec = None, -1.0
        svals = np.sort(np.unique(values[s]))
        for lo, hi in zip(svals[:-1], svals[1:]):
            thr = (lo + hi) / 2
            left = labels[s][values[s] <= thr]
            right = labels[s][values[s] > thr]

            def g(y):
                if y.size == 0:
                    return 0.0
                p = np.bincount(y, minlength=2) / y.size
                return 1 - (p * p).sum()

            dec = g(labels[s]) - left.size / s.size * g(left) - right.size / s.size * g(right)
            if dec > best_dec:
                best_thr, best_dec = thr, dec
        assert not tree.root.is_leaf
        assert tree.root.threshold == pytest.approx(best_thr)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(30))
    def test_leaf_occupancy_and_partition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 150))
        ds = random_dataset(rng, n, int(rng.integers(1, 4)), n_classes=int(rng.integers(2, 4)))
        k = int(rng.integers(1, 8))
        config = MrfConfig(t=1, k=k, b1=5.0, b2=5.0, seed=seed)
        tree, part = _build(ds, config, seed)
        leaves = list(iter_leaves(tree))
        # occupancy: at least k estimation rows per leaf when the root had >= k
        if part.estimation_idx.size >= k:
            assert all(leaf.counts.sum() >= k for leaf in leaves)
        # leaf estimation tallies partition the estimation set
        assert sum(int(leaf.counts.sum()) for leaf in leaves) == part.estimation_idx.size
        # every training row routes to exactly one leaf, the one the node walk finds
        eta = leaf_eta(tree, ds.features)
        assert eta.shape == (n, ds.class_count)
        assert np.isfinite(eta).all()
        assert np.array_equal(eta, walk_eta(tree, ds.features, ds.class_count))

    @pytest.mark.parametrize("seed", range(10))
    def test_determinism(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 80, 3)
        config = MrfConfig(t=1, k=3, seed=seed)
        t1, _ = _build(ds, config, seed=seed + 100)
        t2, _ = _build(ds, config, seed=seed + 100)
        assert t1.to_docs() == t2.to_docs()

    @pytest.mark.parametrize("seed", range(12))
    def test_greedy_limit_matches_exhaustive_cart(self, seed):
        # nodes must stay large enough that optima are unique; ties reject the draw
        found = 0
        attempt = 0
        while found < 1 and attempt < 40:
            rng = np.random.default_rng(1000 * seed + attempt)
            attempt += 1
            n = int(rng.integers(120, 256))
            d = int(rng.integers(1, 7))
            ds = random_dataset(rng, n, d, n_classes=int(rng.integers(2, 4)))
            k = int(rng.integers(int(0.12 * n), int(0.2 * n)))
            config = MrfConfig(t=1, k=k, b1=math.inf, b2=math.inf, seed=seed)
            part = partition(ds, 1.0, np.random.default_rng(seed))
            try:
                expected = exhaustive_cart(
                    ds.features[part.structure_idx],
                    ds.labels[part.structure_idx],
                    ds.features[part.estimation_idx],
                    ds.labels[part.estimation_idx],
                    config.k,
                    ds.class_count,
                )
            except TieError:
                continue
            tree = build_tree(
                ds, part.structure_idx, part.estimation_idx, config, np.random.default_rng(9)
            )
            assert tree_shape(tree.root) == expected
            found += 1
        assert found == 1, "could not generate a tie-free dataset"


class TestPrediction:
    def _leaf_tree(self, eta):
        eta = np.asarray(eta, dtype=float)
        counts = (eta * 10).astype(np.int64)
        return flat_tree(TreeNode(depth=0, counts=counts, eta=eta), 2, 1)

    def test_infinite_b3_argmax_with_low_index_ties(self):
        tree = self._leaf_tree([0.5, 0.5])
        assert votes(tree, np.zeros(2), math.inf).tolist() == [0]

    def test_finite_b3_softmax_ratio(self):
        tree = self._leaf_tree([0.8, 0.2])
        rng = np.random.default_rng(5)
        draws = votes(tree, np.zeros((40_000, 1)), 10.0, rng)
        expected = math.exp(4) / (math.exp(4) + math.exp(1))
        assert (draws == 0).mean() == pytest.approx(expected, abs=0.01)

    def test_symmetric_leaf_fair(self):
        tree = self._leaf_tree([0.5, 0.5])
        rng = np.random.default_rng(6)
        draws = votes(tree, np.zeros((40_000, 1)), 3.0, rng)
        assert (draws == 0).mean() == pytest.approx(0.5, abs=0.01)

    def test_pure_leaf_limit(self):
        tree = self._leaf_tree([1.0, 0.0])
        rng = np.random.default_rng(7)
        draws = votes(tree, np.zeros((40_000, 1)), 4.0, rng)
        expected = math.exp(2) / (math.exp(2) + 1)
        assert (draws == 0).mean() == pytest.approx(expected, abs=0.01)
        assert votes(tree, np.zeros(1), math.inf).tolist() == [0]

    def test_finite_b3_requires_rng(self):
        forest = Forest(
            trees=self._leaf_tree([0.5, 0.5]),
            config=MrfConfig(t=1, b3=1.0),
            class_count=2,
            label_values=("a", "b"),
            feature_names=("x",),
        )
        with pytest.raises(ConfigError):
            predict_batch(forest, np.zeros(1), None)

    def test_routing_left_on_equality(self):
        left = TreeNode(depth=1, counts=np.array([3, 0]), eta=np.array([1.0, 0.0]))
        right = TreeNode(depth=1, counts=np.array([0, 3]), eta=np.array([0.0, 1.0]))
        root = TreeNode(depth=0, feature=0, threshold=0.5, left=left, right=right)
        tree = flat_tree(root, 2, 1)
        assert votes(tree, np.array([[0.5], [0.51]]), math.inf).tolist() == [0, 1]


def _shapes(splits: int):
    """Every full binary tree of ``splits`` splits, as a ``TreeNode`` graph."""
    if splits == 0:
        yield TreeNode(depth=0, counts=np.array([1, 1]))
        return
    for below_left in range(splits):
        for left in _shapes(below_left):
            for right in _shapes(splits - 1 - below_left):
                yield TreeNode(depth=0, feature=0, threshold=0.5, left=left, right=right)


class TestDepthAndSerialization:
    def test_reader_accepts_exactly_the_level_order_trees(self):
        # the split masks of every tree of up to four splits, numbered in
        # level order by a queue, against every mask of up to nine nodes
        # that has a leaf
        trees = {
            tuple(flat_tree(root, 2, 1).feature != -1) for splits in range(5) for root in _shapes(splits)
        }
        assert len(trees) == 1 + 1 + 2 + 5 + 14
        for size in range(1, 10):
            for code in range(2**size - 1):
                mask = tuple(bool(code >> i & 1) for i in range(size))
                doc = {
                    "feature": [0 if split else -1 for split in mask],
                    "threshold": [0.5] * sum(mask),
                    "counts": [[1, 1]] * (size - sum(mask)),
                }
                if mask in trees:
                    assert read_trees([doc], 2, 1).to_docs() == [doc]
                else:
                    with pytest.raises(ParseError, match="do not form a tree"):
                        read_trees([doc], 2, 1)

    def test_depth_examples(self, rng):
        leaf = TreeNode(depth=0, counts=np.array([1, 0]), eta=np.array([1.0, 0.0]))
        single = flat_tree(leaf, 2, 2)
        assert single.depth == 0
        ds = random_dataset(rng, 200, 2)
        tree, _ = _build(ds, MrfConfig(t=1, k=5, seed=4))
        deepest = max(leaf.depth for leaf in iter_leaves(tree))
        assert tree.depth == deepest > 0
        # the walk counts the levels of all trees at once
        assert Trees.concatenate([single, tree, single]).depth == deepest

    def test_dict_round_trip_preserves_structure_and_predictions(self, rng):
        ds = random_dataset(rng, 150, 3)
        tree, _ = _build(ds, MrfConfig(t=1, k=4, seed=5))
        clone = read_trees(tree.to_docs(), ds.class_count, ds.feature_count)
        assert clone.to_docs() == tree.to_docs()
        assert np.array_equal(leaf_eta(clone, ds.features), leaf_eta(tree, ds.features))
