"""Forest training, voting, baselines, and model round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

import mrforest.forest
from conftest import random_dataset
from mrforest.data import Dataset, partition
from mrforest.errors import ConfigError
from mrforest.forest import (
    BaselineConfig,
    Forest,
    MrfConfig,
    predict,
    predict_batch,
    train_baseline_rf,
    train_mrf,
)
from mrforest.tree import Trees, build_baseline_tree, build_baseline_trees, build_tree
from oracle import flat_tree, naive_decrease


def _one_at_a_time(dataset: Dataset, config: MrfConfig | BaselineConfig) -> list:
    """Each tree of the forest, grown alone by the one-tree builder from its own substream."""
    trees = []
    for index in range(config.t):
        rng = mrforest.forest._tree_rng(config.seed, index)
        if isinstance(config, MrfConfig):
            part = partition(dataset, config.partition_rate, rng)
            trees.append(build_tree(dataset, part.structure_idx, part.estimation_idx, config, rng))
            continue
        n = dataset.n
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        mtry = config.mtry or max(1, math.isqrt(dataset.feature_count))
        trees.append(
            build_baseline_tree(
                dataset.features[rows], dataset.labels[rows], dataset.class_count, config.k,
                mtry, config.criterion, rng,
            )
        )
    return trees


SCHEDULED = [
    MrfConfig(t=1, k=2, seed=3),
    MrfConfig(t=7, k=2, seed=4),
    MrfConfig(t=40, k=2, seed=5),
    MrfConfig(t=7, k=80, seed=6),  # 80 estimation rows of 160, no more than k: bare roots
    MrfConfig(t=7, k=1, max_depth=2, b1=0.5, b2=0.5, seed=7),
    MrfConfig(t=7, k=1, b1=0.0, b2=0.0, seed=8),
    MrfConfig(t=7, k=1, b1=math.inf, b2=math.inf, criterion="entropy", seed=9),
    BaselineConfig(t=1, k=1, seed=10),
    BaselineConfig(t=40, k=1, seed=11),
    BaselineConfig(t=7, k=3, bootstrap=False, mtry=2, seed=12),
]


class TestScheduling:
    """Training is reproducible no matter how trees are scheduled: whether each
    tree grows alone, in groups of three or all together, the forest's bytes
    are those of its trees grown one at a time from their substreams."""

    @pytest.mark.parametrize("config", SCHEDULED, ids=lambda c: f"{type(c).__name__}-{c.seed}")
    def test_group_sizes_do_not_change_the_model(self, config, monkeypatch):
        ds = random_dataset(np.random.default_rng(config.seed), 160, 3, n_classes=3)
        train = train_mrf if isinstance(config, MrfConfig) else train_baseline_rf
        expected = None
        for group_rows in (1, 3 * ds.n, config.t * ds.n):
            monkeypatch.setattr(mrforest.forest, "_GROUP_ROWS", group_rows)
            forest = train(ds, config)
            if expected is None:
                alone = _one_at_a_time(ds, config)
                expected = Forest(
                    Trees.concatenate(alone), config, ds.class_count, ds.label_values,
                    ds.feature_names,
                ).to_json()
            assert forest.to_json() == expected
        depths = {tree.depth for tree in forest.trees}
        if config.k == 80:
            assert depths == {0}
        elif isinstance(config, MrfConfig) and config.max_depth is not None:
            assert max(depths) == config.max_depth
        else:
            assert max(depths) >= 3


class TestConfigs:
    def test_defaults_match_documented_experiment_settings(self):
        config = MrfConfig()
        assert (config.t, config.k, config.partition_rate) == (100, 5, 1.0)
        assert config.b1 == config.b2 == 10.0
        assert math.isinf(config.b3)
        assert config.criterion == "gini"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": 0},
            {"k": 0},
            {"b1": -1.0},
            {"b3": math.nan},
            {"partition_rate": 0.0},
            {"partition_rate": math.nan},
            {"partition_rate": math.inf},
            {"criterion": "mse"},
            {"max_depth": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            MrfConfig(**kwargs)

    @pytest.mark.parametrize("config", [MrfConfig, BaselineConfig])
    def test_negative_seed_rejected(self, config):
        # numpy seeds must be nonnegative; the config says so before training
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config(seed=-1)

    def test_too_small_dataset(self, rng):
        ds = random_dataset(rng, 9, 2)
        with pytest.raises(ConfigError):
            train_mrf(ds, MrfConfig(t=1, k=5))


class TestTrainMrf:
    def test_same_seed_byte_equal_serialization(self, rng):
        ds = random_dataset(rng, 60, 3)
        config = MrfConfig(t=3, k=4, seed=11)
        a = train_mrf(ds, config)
        b = train_mrf(ds, config)
        assert a.to_json() == b.to_json()

    def test_trees_differ_across_indices(self, rng):
        ds = random_dataset(rng, 80, 3)
        forest = train_mrf(ds, MrfConfig(t=5, k=4, seed=1))
        dicts = [str(doc) for doc in forest.trees.to_docs()]
        assert len(set(dicts)) > 1

    def test_greedy_limit_single_tree_fits_separable_training_set(self):
        # 20 separable points: the infinite-budget tree must reach 100% on them
        rng = np.random.default_rng(21)
        values = np.concatenate([rng.uniform(-1, -0.1, 10), rng.uniform(0.1, 1, 10)])
        labels = (values > 0).astype(int)
        ds = Dataset(values.reshape(-1, 1), labels, ("x",), 2)
        config = MrfConfig(t=1, k=2, b1=math.inf, b2=math.inf, seed=5)
        forest = train_mrf(ds, config)
        classes, _ = predict_batch(forest, ds.features)
        assert (classes == labels).mean() == 1.0

    def test_completely_random_variant_label(self, rng):
        ds = random_dataset(rng, 40, 2)
        forest = train_mrf(ds, MrfConfig(t=2, k=3, b1=0.0, b2=0.0, seed=0))
        assert forest.variant == "completely_random"

    def test_completely_random_uniform_node_features(self, rng):
        # chi-square goodness of fit on split-feature frequencies over many trees
        ds = random_dataset(rng, 260, 3)
        forest = train_mrf(ds, MrfConfig(t=450, k=4, b1=0.0, b2=0.0, seed=3))
        chosen = []
        for tree in forest.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    chosen.append(node.feature)
                    stack.extend([node.left, node.right])
        counts = np.bincount(chosen, minlength=3)
        assert counts.sum() >= 10_000
        assert scipy.stats.chisquare(counts).pvalue > 0.001


class TestBaseline:
    def test_full_mtry_matches_exhaustive_root(self, rng):
        ds = random_dataset(rng, 100, 3)
        config = BaselineConfig(t=1, k=5, mtry=3, bootstrap=False, seed=2)
        forest = train_baseline_rf(ds, config)
        root = forest.trees[0].root
        best = (-1.0, None, None)
        for j in range(3):
            distinct = np.unique(ds.features[:, j])
            for lo, hi in zip(distinct[:-1], distinct[1:]):
                thr = (lo + hi) / 2
                dec = naive_decrease(ds.features[:, j], ds.labels, thr, 2)
                if dec > best[0]:
                    best = (dec, j, thr)
        assert root.feature == best[1]
        assert root.threshold == pytest.approx(best[2])

    def test_no_bootstrap_deterministic(self, rng):
        ds = random_dataset(rng, 50, 2)
        config = BaselineConfig(t=1, k=3, bootstrap=False, seed=7)
        a = train_baseline_rf(ds, config)
        b = train_baseline_rf(ds, config)
        assert a.to_json() == b.to_json()

    def test_xor_is_learnable_at_depth_two(self):
        features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        ds = Dataset(features, labels, ("a", "b"), 2)
        forest = train_baseline_rf(ds, BaselineConfig(t=1, k=1, mtry=2, bootstrap=False, seed=0))
        classes, _ = predict_batch(forest, features)
        assert (classes == labels).all()
        assert forest.trees[0].depth == 2

    def test_default_mtry_is_floor_sqrt(self, rng, monkeypatch):
        ds = random_dataset(rng, 60, 5)
        mtrys = []

        def build(x, y, sizes, class_count, k, mtry, criterion, rngs):
            mtrys.extend([mtry] * len(rngs))
            return build_baseline_trees(x, y, sizes, class_count, k, mtry, criterion, rngs)

        monkeypatch.setattr(mrforest.forest, "build_baseline_trees", build)
        train_baseline_rf(ds, BaselineConfig(t=2, k=5, seed=1))
        assert mtrys == [2, 2]

    def test_mtry_exceeding_features_rejected(self, rng):
        ds = random_dataset(rng, 30, 2)
        with pytest.raises(ConfigError):
            train_baseline_rf(ds, BaselineConfig(t=1, mtry=5))

    @pytest.mark.parametrize("seed", range(8))
    def test_restricted_mtry_never_creates_empty_leaves(self, seed):
        # regression: subset scans must gather the subset's own feature columns
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, 50, 2)
        forest = train_baseline_rf(ds, BaselineConfig(t=3, k=3, seed=seed))
        for tree in forest.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    assert node.counts.sum() >= 1
                    assert np.isfinite(node.eta).all()
                else:
                    stack.extend([node.left, node.right])


class TestPrediction:
    def _forest(self, rng, b3=math.inf, t=7):
        ds = random_dataset(rng, 90, 3)
        forest = train_mrf(ds, MrfConfig(t=t, k=4, b3=b3, seed=2))
        return ds, forest

    def test_vote_conservation_and_majority(self, rng):
        ds, forest = self._forest(rng, t=10)
        classes, votes = predict_batch(forest, ds.features)
        assert votes.shape == (10, ds.n)
        for col in range(ds.n):
            tallies = np.bincount(votes[:, col], minlength=ds.class_count)
            assert tallies.sum() == 10
            assert classes[col] == np.argmax(tallies)

    def test_tie_breaks_to_lowest_class(self):
        # two trees voting 0 and 1 produce class 0
        from mrforest.tree import TreeNode

        def leaf_tree(c):
            eta = np.zeros(2)
            eta[c] = 1.0
            return flat_tree(TreeNode(depth=0, counts=(eta * 5).astype(np.int64), eta=eta), 2, 1)

        forest = Forest(
            trees=Trees.concatenate([leaf_tree(1), leaf_tree(0)]),
            config=MrfConfig(t=2, k=1),
            class_count=2,
            label_values=("a", "b"),
            feature_names=("x",),
        )
        assert predict(forest, np.zeros(1)) == 0

    def test_empty_rows(self, rng):
        _, forest = self._forest(rng)
        classes, votes = predict_batch(forest, np.empty((0, 3)))
        assert classes.size == 0
        assert votes.shape == (7, 0)

    def test_single_row_matches_batch_protocol(self, rng):
        ds, forest = self._forest(rng, b3=3.0)
        x = ds.features[4]
        lone = predict(forest, x, np.random.default_rng(42))
        batch, _ = predict_batch(forest, x.reshape(1, -1), np.random.default_rng(42))
        assert lone == batch[0]

    def test_finite_b3_requires_rng(self, rng):
        ds, forest = self._forest(rng, b3=2.0)
        with pytest.raises(ConfigError):
            predict_batch(forest, ds.features)

    def test_infinite_b3_deterministic(self, rng):
        ds, forest = self._forest(rng)
        a, _ = predict_batch(forest, ds.features)
        b, _ = predict_batch(forest, ds.features)
        assert np.array_equal(a, b)


class TestSerialization:
    def test_round_trip_bit_exact_predictions(self, rng, tmp_path):
        from mrforest.forest import load_forest, save_forest

        ds = random_dataset(rng, 70, 3)
        forest = train_mrf(ds, MrfConfig(t=4, k=4, b3=5.0, seed=9))
        path = tmp_path / "model.json"
        save_forest(forest, path)
        clone = load_forest(path)
        assert clone.to_json() == forest.to_json()
        a, va = predict_batch(forest, ds.features, np.random.default_rng(1))
        b, vb = predict_batch(clone, ds.features, np.random.default_rng(1))
        assert np.array_equal(a, b)
        assert np.array_equal(va, vb)

    def test_infinite_budgets_survive_json(self, rng):
        ds = random_dataset(rng, 40, 2)
        forest = train_mrf(ds, MrfConfig(t=1, k=3, b1=math.inf, b2=math.inf, seed=0))
        clone = Forest.from_json(forest.to_json())
        assert math.isinf(clone.config.b1)
        assert math.isinf(clone.config.b3)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ConfigError):
            Forest.from_json('{"format": "something-else", "version": 1}')


def test_per_tree_partitions_differ():
    # re-derive the per-tree streams and confirm the structure sets vary
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, 60, 2)
    from mrforest.forest import _tree_rng

    sets = {
        tuple(partition(ds, 1.0, _tree_rng(123, i)).structure_idx) for i in range(20)
    }
    assert len(sets) == 20
