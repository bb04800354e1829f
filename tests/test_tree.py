"""Tree construction, leaf estimation, prediction, and serialization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_dataset
from mrforest.data import Dataset, partition
from mrforest.forest import MrfConfig
from mrforest.errors import ConfigError
from mrforest.forest import Forest, predict_batch
import mrforest.tree
from mrforest.tree import (
    Tree,
    TreeNode,
    _sample_split,
    _sorted_index_matrix,
    build_baseline_tree,
    build_tree,
    compile_trees,
    route_eta,
    tree_votes,
)
from oracle import (
    TieError,
    exhaustive_cart,
    flat_tree,
    reference_build_baseline_tree,
    reference_build_tree,
    reference_sample_split,
    tree_shape,
    v1_tree_doc,
    walk_eta,
)


def _build(dataset, config, seed=0):
    rng = np.random.default_rng(seed)
    part = partition(dataset, config.partition_rate, rng)
    tree = build_tree(dataset, part.structure_idx, part.estimation_idx, config, rng)
    return tree, part


def leaf_eta(tree: Tree, x: np.ndarray, class_count: int) -> np.ndarray:
    """Leaf class distribution of each row, routed on the compiled tree."""
    compiled = compile_trees([tree], class_count)
    return compiled.eta[route_eta(compiled, x)[0]]


def votes(tree: Tree, x: np.ndarray, b3: float, rng=None) -> np.ndarray:
    """One compiled tree's votes on the rows of ``x``."""
    return tree_votes(compile_trees([tree], 2), np.atleast_2d(x), b3, rng)[0]


def iter_leaves(tree: Tree):
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


def _grow_mrf(build, ds: Dataset, config: MrfConfig, seed: int) -> tuple[Tree, float]:
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
        Tree.from_dict(tree.to_dict(), ds.class_count, ds.feature_count)

    @pytest.mark.parametrize("seed", range(32))
    def test_baseline_matches_reference(self, seed):
        case = _baseline_case(seed)
        tree, draw = _grow_baseline(build_baseline_tree, *case, seed)
        reference, reference_draw = _grow_baseline(reference_build_baseline_tree, *case, seed)
        assert v1_tree_doc(tree) == v1_tree_doc(reference)
        assert draw == reference_draw
        Tree.from_dict(tree.to_dict(), case[0].class_count, case[0].feature_count)

    def test_fuzzed_cases_reach_root_only_and_deep_trees(self):
        mrf = [_grow_mrf(build_tree, *_mrf_case(seed), seed)[0].depth for seed in range(48)]
        baseline = [
            _grow_baseline(build_baseline_tree, *_baseline_case(seed), seed)[0].depth
            for seed in range(32)
        ]
        for depths in (mrf, baseline):
            assert min(depths) == 0 and max(depths) >= 5


# estimation row counts of a searched node, each above k as the split rule requires
EST_SIZES = (lambda k: k + 1, lambda k: 2 * k - 1, lambda k: 2 * k, lambda k: 2 * k + 1)
SEARCH_RULES = (
    dict(b1=10.0, b2=10.0),
    dict(b1=math.inf, b2=math.inf),
    dict(b1=0.0, b2=0.0),
    dict(criterion="entropy"),
    dict(b1=0.05, b2=0.05, max_depth=3),  # a privacy-mode depth cap and budgets
)


def _search_node(seed: int) -> tuple[tuple, MrfConfig]:
    """A fuzzed node for ``_sample_split`` and the config searching it.

    Values are integers 0-5, so structure rows tie and every candidate
    threshold is a multiple of 0.5; estimation values are drawn from those
    multiples, so they land on cut points. Every other node draws them from
    only two values, so both order statistics sit inside runs of ties.
    """
    rng = np.random.default_rng(seed)
    size_of = EST_SIZES[seed % len(EST_SIZES)]
    # k = 1 on every third group of sizes, except where 2k - 1 rows do not exceed k
    k = 1 if (seed // len(EST_SIZES)) % 3 == 0 and size_of(1) > 1 else int(rng.integers(2, 7))
    n_est, d, classes = size_of(k), int(rng.integers(1, 5)), int(rng.integers(2, 4))
    xs = rng.integers(0, 6, size=(int(rng.integers(2, 40)), d)).astype(np.float64)
    ys = rng.integers(0, classes, size=xs.shape[0])
    pool = np.arange(0.0, 5.5, 0.5)
    if seed % 2:
        pool = rng.choice(pool, size=2, replace=False)
    xe = rng.choice(pool, size=(n_est + int(rng.integers(0, 5)), d))
    est_pos = np.sort(rng.choice(xe.shape[0], size=n_est, replace=False))
    # the node holds a subset of the structure rows, still sorted per feature
    member = rng.random(xs.shape[0]) < 0.8
    member[rng.choice(xs.shape[0], size=2, replace=False)] = True
    full = _sorted_index_matrix(xs)
    sorted_pos = full[member[full]].reshape(d, int(member.sum()))
    config = MrfConfig(t=1, k=k, **SEARCH_RULES[seed % len(SEARCH_RULES)])
    return (xs, ys, xe, sorted_pos, est_pos, classes), config


class TestSplitSearch:
    """``_sample_split`` returns the splits, and draws the rng stream, of the search
    that runs both mechanisms on every attempt and counts estimation rows per cut."""

    @pytest.mark.parametrize("seed", range(160))
    def test_matches_reference_search(self, seed):
        node, config = _search_node(seed)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        split = _sample_split(*node, config, rng)
        reference = reference_sample_split(*node, config, reference_rng)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert (split is None) == (reference is None)
        if split is not None:
            assert split[:2] == reference[:2]
            np.testing.assert_array_equal(split[2], reference[2])

    def test_fuzzed_nodes_reach_every_outcome(self, monkeypatch):
        # outcomes: a split, no feasible cut (no mechanism runs), and feasible
        # cuts that the attempts all missed
        draws = []
        real_select_value = mrforest.tree.select_value

        def counted_select_value(*args):
            draws.append(1)
            return real_select_value(*args)

        monkeypatch.setattr(mrforest.tree, "select_value", counted_select_value)
        outcomes = set()
        for seed in range(160):
            node, config = _search_node(seed)
            draws.clear()
            split = _sample_split(*node, config, np.random.default_rng(seed))
            outcomes.add("split" if split else "missed" if draws else "infeasible")
        assert outcomes == {"split", "missed", "infeasible"}

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
        xs = np.arange(8.0)[:, None]
        node = (xs, np.arange(8) % 2, xe, _sorted_index_matrix(xs), np.arange(xe.shape[0]), 2)
        rng, expected = np.random.default_rng(5), np.random.default_rng(5)
        assert _sample_split(*node, MrfConfig(t=1, k=k), rng) is None
        for _ in range(15):  # the ten value and five feature draws of the attempts
            expected.random()
        assert rng.bit_generator.state == expected.bit_generator.state


    def test_scan_runs_only_at_nodes_with_a_feasible_cut(self, monkeypatch):
        # a node whose cuts all leave fewer than k estimation rows on a side runs
        # no scan, and still draws the 15 uniforms of the attempts if it has a cut
        scans = []
        real_scan = mrforest.tree.scan_features

        def counted_scan(*args):
            scans.append(args[0].shape)
            return real_scan(*args)

        monkeypatch.setattr(mrforest.tree, "scan_features", counted_scan)
        feasible_nodes = 0
        kinds = set()
        for seed in range(160):
            node, config = _search_node(seed)
            cuts, feasible = _brute_force_cuts(node, config.k)
            feasible_nodes += feasible
            rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
            before = len(scans)
            split = _sample_split(*node, config, rng)
            if feasible:
                assert len(scans) == before + 1
                continue
            kinds.add("infeasible" if cuts else "no cut")
            assert len(scans) == before and split is None
            if cuts:
                expected.random(15)  # the ten value and five feature draws of the attempts
            assert rng.bit_generator.state == expected.bit_generator.state
        assert len(scans) == feasible_nodes
        assert kinds == {"infeasible", "no cut"} and 0 < feasible_nodes < 160

    def test_each_law_is_built_at_most_once(self, monkeypatch):
        # a scanned search builds one feature law, and one value law per drawn
        # feature that has a feasible cut; a drawn feature without one builds
        # none and makes no value draw
        events = []
        real_law = mrforest.tree.selection_cdf
        real_feature, real_value = mrforest.tree.select_feature, mrforest.tree.select_value

        def counted_law(*args):
            cdf = real_law(*args)
            events.append(("law", cdf, None))
            return cdf

        def counted_feature(cdf, rng):
            index = real_feature(cdf, rng)
            events.append(("feature", cdf, index))
            return index

        def counted_value(cdf, rng):
            events.append(("value", cdf, None))
            return real_value(cdf, rng)

        monkeypatch.setattr(mrforest.tree, "selection_cdf", counted_law)
        monkeypatch.setattr(mrforest.tree, "select_feature", counted_feature)
        monkeypatch.setattr(mrforest.tree, "select_value", counted_value)
        seen = set()
        for seed in range(160):
            node, config = _search_node(seed)
            has_cut, has_feasible = _brute_force_feature_cuts(node, config.k)
            eligible = np.flatnonzero(has_cut)
            events.clear()
            _sample_split(*node, config, np.random.default_rng(seed))
            if not any(has_feasible):
                assert events == []
                continue
            laws = [cdf for kind, cdf, _ in events if kind == "law"]
            assert events[0][0] == "law"
            feature_law = laws[0]
            value_law_of: dict[int, np.ndarray] = {}
            feature = -1
            for kind, cdf, index in events[1:]:
                if kind == "feature":
                    assert cdf is feature_law
                    feature = int(eligible[index])
                    seen.add("reachable" if has_feasible[feature] else "unreachable")
                elif kind == "value":
                    assert has_feasible[feature]
                    if feature in value_law_of:
                        assert cdf is value_law_of[feature]
                        seen.add("reused")
                    value_law_of[feature] = cdf
            assert len(laws) == 1 + len(value_law_of)
            assert all(any(law is v for v in value_law_of.values()) for law in laws[1:])
        assert seen == {"reachable", "unreachable", "reused"}


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
        eta = leaf_eta(tree, ds.features, ds.class_count)
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
        assert t1.to_dict() == t2.to_dict()

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
            trees=[self._leaf_tree([0.5, 0.5])],
            variant="mrf",
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


class TestDepthAndSerialization:
    def test_depth_examples(self, rng):
        leaf = TreeNode(depth=0, counts=np.array([1, 0]), eta=np.array([1.0, 0.0]))
        single = flat_tree(leaf, 2, 2)
        assert single.depth == compile_trees([single], 2).depth == 0
        ds = random_dataset(rng, 200, 2)
        tree, _ = _build(ds, MrfConfig(t=1, k=5, seed=4))
        deepest = max(leaf.depth for leaf in iter_leaves(tree))
        assert tree.depth == deepest > 0
        # the compile walk counts levels itself and ignores the stored depth
        assert compile_trees([tree, single], 2).depth == deepest
        tree.depth = 0
        assert compile_trees([tree], 2).depth == deepest

    def test_dict_round_trip_preserves_structure_and_predictions(self, rng):
        ds = random_dataset(rng, 150, 3)
        tree, _ = _build(ds, MrfConfig(t=1, k=4, seed=5))
        clone = Tree.from_dict(tree.to_dict(), ds.class_count, ds.feature_count)
        assert clone.to_dict() == tree.to_dict()
        k = ds.class_count
        assert np.array_equal(leaf_eta(clone, ds.features, k), leaf_eta(tree, ds.features, k))
