"""Whole-forest prediction against the node-walk oracle, and the input boundary.

The compiled kernel must reproduce the per-tree walk of ``oracle.walk_votes``
bit for bit: the same votes, the same classes and the same rng consumption,
at infinite and at finite b3. Bad rows and bad model documents must raise a
typed ``MrfError`` instead of predicting, crashing or hanging.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import mrforest.cli as cli
import mrforest.forest
import mrforest.tree
from conftest import random_dataset
from mrforest.errors import ParseError, SchemaError
from mrforest.forest import (
    BaselineConfig,
    Forest,
    MrfConfig,
    load_forest,
    predict,
    predict_batch,
    save_forest,
    train_baseline_rf,
    train_mrf,
)
from mrforest.tree import Trees, tree_votes
from oracle import tree_shape, v1_forest_doc, v2_forest_doc, walk_votes

VARIANTS = ("mrf", "completely_random", "breiman")


def _forest(variant: str, t: int, class_count: int, seed: int):
    """A t-tree forest whose trees mix root-only stumps with deep trees."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 120, 3, n_classes=class_count)
    if variant == "breiman":
        deep = train_baseline_rf(ds, BaselineConfig(t=t, k=2, seed=seed))
        stumps = train_baseline_rf(ds, BaselineConfig(t=t, k=ds.n, seed=seed))
    else:
        budget = 0.0 if variant == "completely_random" else 8.0
        deep = train_mrf(ds, MrfConfig(t=t, k=2, b1=budget, b2=budget, seed=seed))
        stumps = train_mrf(ds, MrfConfig(t=t, k=ds.n // 2, seed=seed))
    pairs = enumerate(zip(deep.trees, stumps.trees))
    trees = [stump if i % 3 == 1 else tree for i, (tree, stump) in pairs]
    assert any(tree.depth == 0 for tree in trees) or t < 2
    return ds, replace(deep, trees=Trees.concatenate(trees))


def _on_thresholds(forest: Forest, ds) -> np.ndarray:
    """Rows that sit exactly on a split threshold of the forest, one per split."""
    rows = []
    for tree in forest.trees:
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                row = ds.features[len(rows) % ds.n].copy()
                row[node.feature] = node.threshold
                rows.append(row)
                stack.extend([node.left, node.right])
    return np.asarray(rows).reshape(-1, ds.feature_count)


def _with_b3(forest: Forest, b3: float) -> Forest:
    return replace(forest, config=replace(forest.config, b3=b3))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("t", range(1, 8))
@pytest.mark.parametrize("class_count", (2, 3, 4))
def test_votes_bit_equal_to_node_walk(variant, t, class_count):
    ds, forest = _forest(variant, t, class_count, seed=10 * t + class_count)
    x = np.vstack([ds.features, _on_thresholds(forest, ds)])
    budgets = (math.inf,) if variant == "breiman" else (math.inf, 0.5, 6.0)
    for b3 in budgets:
        model = forest if math.isinf(b3) else _with_b3(forest, b3)
        rng_kernel, rng_walk = np.random.default_rng(3), np.random.default_rng(3)
        classes, votes = predict_batch(model, x, rng_kernel)
        expected_classes, expected_votes = walk_votes(model, x, rng_walk)
        assert votes.shape == (t, x.shape[0])
        assert np.array_equal(votes, expected_votes)
        assert np.array_equal(classes, expected_classes)
        # both consumed the same uniforms: the streams continue in step
        assert rng_kernel.random() == rng_walk.random()


@pytest.mark.parametrize("b3", (math.inf, 2.0))
def test_single_row_call_equals_batch_call(b3):
    ds, forest = _forest("mrf", 5, 3, seed=7)
    forest = _with_b3(forest, b3)
    batch, _ = predict_batch(forest, ds.features[:30], np.random.default_rng(1))
    for i, row in enumerate(ds.features[:30]):
        if math.isinf(b3):
            assert predict(forest, row) == batch[i]
        # a lone row draws the uniforms its batch of one would draw
        lone = predict(forest, row, np.random.default_rng(i))
        alone, _ = predict_batch(forest, row.reshape(1, -1), np.random.default_rng(i))
        walked, _ = walk_votes(forest, row, np.random.default_rng(i))
        assert lone == alone[0] == walked[0]


def test_replaced_forest_compiles_its_own_trees():
    ds, forest = _forest("mrf", 6, 3, seed=5)
    predict_batch(forest, ds.features)  # compiles and caches the six trees
    fewer = replace(forest, trees=forest.trees[3:])
    _, votes = predict_batch(fewer, ds.features)
    assert np.array_equal(votes, walk_votes(fewer, ds.features)[1])
    randomized = _with_b3(forest, 1.0)
    got = predict_batch(randomized, ds.features, np.random.default_rng(2))
    expected = walk_votes(randomized, ds.features, np.random.default_rng(2))
    assert np.array_equal(got[1], expected[1])
    # the original keeps predicting with its own trees and budget
    _, votes = predict_batch(forest, ds.features)
    assert np.array_equal(votes, walk_votes(forest, ds.features)[1])


def test_replaced_forest_shares_what_prediction_derives(monkeypatch):
    # a copy with another b3 holds the same trees, so the children, leaf
    # distributions and depth that routing reads are derived once for both
    ds, forest = _forest("mrf", 6, 3, seed=5)
    calls = []
    derive = mrforest.tree._left_children
    monkeypatch.setattr(
        mrforest.tree, "_left_children", lambda *args: calls.append(args) or derive(*args)
    )
    randomized = _with_b3(forest, 1.0)
    predict_batch(forest, ds.features)
    predict_batch(randomized, ds.features, np.random.default_rng(2))
    assert randomized.trees is forest.trees
    assert len(calls) == 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_concatenated_slices_are_the_forest_and_vote_as_it(variant):
    ds, forest = _forest(variant, 5, 3, seed=4)
    trees = forest.trees
    for k in range(len(trees) + 1):
        head, tail = trees[:k], trees[k:]
        assert (len(head), len(tail)) == (k, len(trees) - k)
        joined = Trees.concatenate([head, tail])
        for name in ("feature", "threshold", "counts", "sizes"):
            assert np.array_equal(getattr(joined, name), getattr(trees, name))
        # the graph view of several trees is their first tree's
        assert tree_shape(joined.root) == tree_shape(trees[0].root)
        for b3 in (math.inf, 2.0):
            # finite-b3 votes draw tree by tree, so the parts draw what the whole does
            rngs = np.random.default_rng(k), np.random.default_rng(k)
            parts = [tree_votes(part, ds.features, b3, rngs[0]) for part in (head, tail)]
            assert np.array_equal(tree_votes(joined, ds.features, b3, rngs[1]), np.vstack(parts))


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_load_round_trip_predicts_the_same(variant, tmp_path):
    ds, forest = _forest(variant, 4, 3, seed=8)
    path = tmp_path / "model.json"
    predict_batch(forest, ds.features)
    save_forest(forest, path)
    loaded = load_forest(path)
    assert loaded.to_json() == forest.to_json()
    budgets = (math.inf,) if variant == "breiman" else (math.inf, 1.5)
    for b3 in budgets:
        a, b = (f if math.isinf(b3) else _with_b3(f, b3) for f in (forest, loaded))
        got = predict_batch(a, ds.features, np.random.default_rng(9))
        again = predict_batch(b, ds.features, np.random.default_rng(9))
        assert np.array_equal(got[0], again[0]) and np.array_equal(got[1], again[1])


class TestBadRows:
    @pytest.fixture
    def forest(self):
        ds = random_dataset(np.random.default_rng(0), 60, 2)
        return train_mrf(ds, MrfConfig(t=3, k=3, seed=0))

    @pytest.mark.parametrize("width", (0, 1, 3, 5))
    def test_wrong_width_is_schema_error(self, forest, width):
        with pytest.raises(SchemaError):
            predict_batch(forest, np.zeros((4, width)))
        with pytest.raises(SchemaError):
            predict(forest, np.zeros(width))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_value_is_parse_error(self, forest, bad):
        rows = np.zeros((3, 2))
        rows[2, 1] = bad
        with pytest.raises(ParseError):
            predict_batch(forest, rows)
        with pytest.raises(ParseError):
            predict(forest, rows[2])

    @pytest.mark.parametrize("shape", ((3, 2), (2, 2), (0, 2), (1, 1, 2), ()))
    def test_predict_takes_exactly_one_row(self, forest, shape):
        with pytest.raises(SchemaError):
            predict(forest, np.zeros(shape))

    def test_predict_accepts_a_row_or_a_one_row_matrix(self, forest):
        rows = np.array([[-3.0, 0.0], [3.0, 0.0]])
        classes, _ = predict_batch(forest, rows)
        for row, expected in zip(rows, classes):
            assert predict(forest, row) == predict(forest, row[None, :]) == expected
            assert predict(forest, list(row)) == expected

    def test_empty_batch(self, forest):
        classes, votes = predict_batch(forest, np.empty((0, 2)))
        assert classes.shape == (0,) and votes.shape == (3, 0)


def _model_doc() -> dict:
    ds = random_dataset(np.random.default_rng(1), 80, 2, n_classes=3)
    doc = json.loads(train_mrf(ds, MrfConfig(t=2, k=3, seed=1)).to_json())
    assert doc["version"] == 3 and doc["trees"][0]["feature"][0] != -1
    return doc


def _splits(doc, tree=0):
    return [i for i, f in enumerate(doc["trees"][tree]["feature"]) if f != -1]


def _with_features(doc, feature):
    """Tree 0 replaced by a tree of ``feature`` whose other columns have the lengths it needs."""
    counts = doc["trees"][0]["counts"][0]
    doc["trees"][0] = {
        "feature": feature,
        "threshold": [0.5] * sum(f != -1 for f in feature),
        "counts": [counts] * feature.count(-1),
    }


# The ``_v2`` cases were first written for version 2's columns, which
# version 3 keeps but for the child indices; they keep their names.


def _backward_child_v2(doc):
    # the last split moved to the last node, just after its implied left child
    feature = doc["trees"][0]["feature"]
    last = _splits(doc)[-1]
    feature[last], feature[-1] = feature[-1], feature[last]


def _child_out_of_range_v2(doc):
    # an appended split, whose implied children are past the end
    tree = doc["trees"][0]
    tree["feature"].append(0)
    tree["threshold"].append(0.5)


def _orphan_node_v2(doc):
    # an appended leaf, which no split's implied children reach
    tree = doc["trees"][0]
    tree["feature"].append(-1)
    tree["counts"].append(tree["counts"][0])


def _feature_out_of_range_v2(doc):
    doc["trees"][0]["feature"][0] = len(doc["feature_names"])


def _nan_threshold_v2(doc):
    doc["trees"][0]["threshold"][0] = math.nan


def _negative_counts_v2(doc):
    doc["trees"][1]["counts"][0][0] = -1


def _zero_sum_leaf_v2(doc):
    counts = doc["trees"][0]["counts"][0]
    counts[:] = [0] * len(counts)


def _wrong_class_count_v2(doc):
    for counts in doc["trees"][0]["counts"]:
        counts.append(1)


def _column_lengths_differ_v2(doc):
    # one threshold fewer than the splits
    doc["trees"][1]["threshold"].pop()


def _self_loop(doc):
    # the one split, node 1, is its own implied left child
    _with_features(doc, [-1, 0, -1])


def _backward_child(doc):
    # the one split, node 2, comes after its implied left child, node 1
    _with_features(doc, [-1, -1, 0])


def _child_out_of_range(doc):
    # the last node, a leaf, made a split: its implied children are past the end
    tree = doc["trees"][0]
    tree["feature"][-1] = 0
    tree["threshold"].append(0.5)
    tree["counts"].pop()


def _negative_feature(doc):
    doc["trees"][0]["feature"][0] = -2


def _missing_nodes(doc):
    for column in ("feature", "threshold", "counts"):
        del doc["trees"][1][column]


def _no_trees(doc):
    doc["trees"] = []


def _labels_short(doc):
    doc["label_values"] = doc["label_values"][:2]


def _nan_threshold(doc):
    # the last split's threshold, below the root
    doc["trees"][0]["threshold"][-1] = math.nan


def _orphan_node(doc):
    # a split made a leaf orphans its implied children
    tree, index = doc["trees"][0], _splits(doc)[1]
    tree["feature"][index] = -1
    del tree["threshold"][1]
    leaves_before = tree["feature"][:index].count(-1)
    tree["counts"].insert(leaves_before, tree["counts"][0])


def _threshold_not_a_number(doc):
    doc["trees"][0]["threshold"][0] = "0.5"


# An empty column is not a column of the wrong type: each of these returns
# the fault its document must be refused for.


def _split_without_counts(doc):
    doc["trees"][0] = {"feature": [0], "threshold": [0.5], "counts": []}
    return "nodes do not form a tree"


def _empty_tree(doc):
    doc["trees"][0] = {"feature": [], "threshold": [], "counts": []}
    return "nodes do not form a tree"


def _leaf_without_counts(doc):
    doc["trees"][0] = {"feature": [-1], "threshold": [], "counts": []}
    return "leaf counts are not 3 per leaf"


# A config that its class refuses is a corrupt model, refused as its config.


def _zero_leaf_size(doc):
    doc["config"]["k"] = 0
    return "invalid model config: k must be >= 1"


def _zero_trees(doc):
    doc["config"]["t"] = 0
    return "invalid model config: t must be >= 1"


def _negative_partition_rate(doc):
    doc["config"]["partition_rate"] = -1
    return "invalid model config: partition_rate must be positive and finite"


def _unknown_criterion(doc):
    doc["config"]["criterion"] = "foo"
    return "invalid model config: unknown criterion 'foo'"


def _budget_as_text(doc):
    doc["config"]["b3"] = "-1"
    return "invalid model config: must be real number, not str"


# A config value must have the JSON type that saving writes, and the variant
# must be the one the config implies.


def _bool_leaf_size(doc):
    doc["config"]["k"] = True
    return "invalid model config: k is not of type int"


def _float_tree_count(doc):
    doc["config"]["t"] = 2.0
    return "invalid model config: t is not of type int"


def _bool_seed(doc):
    doc["config"]["seed"] = True
    return "invalid model config: seed is not of type int"


def _bool_budget(doc):
    doc["config"]["b1"] = True
    return "invalid model config: b1 is not of type float"


def _fractional_max_depth(doc):
    doc["config"]["max_depth"] = 3.5
    return "invalid model config: max_depth is not of type int"


def _integer_bootstrap(doc):
    ds = random_dataset(np.random.default_rng(1), 80, 2, n_classes=3)
    doc.update(json.loads(train_baseline_rf(ds, BaselineConfig(t=2, k=3, seed=1)).to_json()))
    doc["config"]["bootstrap"] = 0
    return "invalid model config: bootstrap is not of type bool"


def _unknown_variant(doc):
    doc["variant"] = "foo"
    return "'foo' is not the variant of the model's config"


def _mrf_labelled_completely_random(doc):
    doc["variant"] = "completely_random"
    return "'completely_random' is not the variant of the model's config"


def _mrf_labelled_breiman(doc):
    doc["variant"] = "breiman"
    return "invalid model config: .*unexpected keyword argument 'b1'"


CORRUPTIONS = (
    _self_loop,
    _backward_child,
    _child_out_of_range,
    _negative_feature,
    _missing_nodes,
    _no_trees,
    _labels_short,
    _nan_threshold,
    _orphan_node,
    _threshold_not_a_number,
    _split_without_counts,
    _empty_tree,
    _leaf_without_counts,
    _zero_leaf_size,
    _zero_trees,
    _negative_partition_rate,
    _unknown_criterion,
    _budget_as_text,
    _bool_leaf_size,
    _float_tree_count,
    _bool_seed,
    _bool_budget,
    _fractional_max_depth,
    _integer_bootstrap,
    _unknown_variant,
    _mrf_labelled_completely_random,
    _mrf_labelled_breiman,
)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_bad_model_document_raises_parse_error(corrupt):
    doc = _model_doc()
    fault = corrupt(doc)
    with pytest.raises(ParseError, match=fault):
        Forest.from_json(json.dumps(doc))


def test_intact_model_document_loads():
    forest = Forest.from_json(json.dumps(_model_doc()))
    assert predict_batch(forest, np.zeros((1, 2)))[1].shape == (2, 1)


CORRUPTIONS_V2 = (
    _backward_child_v2,
    _child_out_of_range_v2,
    _orphan_node_v2,
    _feature_out_of_range_v2,
    _nan_threshold_v2,
    _negative_counts_v2,
    _zero_sum_leaf_v2,
    _wrong_class_count_v2,
    _column_lengths_differ_v2,
)


@pytest.mark.parametrize("corrupt", CORRUPTIONS_V2, ids=lambda f: f.__name__.strip("_"))
def test_bad_v2_model_document_raises_parse_error(corrupt):
    doc = _model_doc()
    corrupt(doc)
    with pytest.raises(ParseError):
        Forest.from_json(json.dumps(doc))


def test_v2_trees_are_read_and_checked_once_per_forest(monkeypatch):
    # all trees' columns go through one read_trees call, and a fault is
    # reported with its tree and node
    calls = []
    real_read_trees = mrforest.forest.read_trees

    def counted(docs, *args):
        calls.append(len(docs))
        return real_read_trees(docs, *args)

    monkeypatch.setattr(mrforest.forest, "read_trees", counted)
    doc = _model_doc()
    forest = Forest.from_json(json.dumps(doc))
    assert calls == [2]
    assert forest.to_dict() == doc
    split = _splits(doc, tree=1)[0]
    doc["trees"][1]["feature"][split] = len(doc["feature_names"])
    with pytest.raises(ParseError, match=f"tree 1 node {split}: feature out of range"):
        Forest.from_json(json.dumps(doc))


def _refused_version_exits_2(tmp_path, capsys, doc, version):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1,f2\n0.1,0.2,0.3\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(model), "--data", str(rows)])
    assert code == cli.EXIT_CONFIG
    assert f"unsupported model version {version}" in capsys.readouterr().err


@pytest.mark.parametrize("variant", VARIANTS)
def test_v1_model_file_exits_2_on_the_cli(tmp_path, capsys, variant):
    # version 1 files, which list each tree's nodes, are refused: such models are re-trained
    _, forest = _forest(variant, 5, 3, seed=12)
    _refused_version_exits_2(tmp_path, capsys, v1_forest_doc(forest), 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_v2_model_file_exits_2_on_the_cli(tmp_path, capsys, variant):
    # version 2 files, whose columns store each split's child, are refused too
    _, forest = _forest(variant, 5, 3, seed=12)
    _refused_version_exits_2(tmp_path, capsys, v2_forest_doc(forest), 2)


@pytest.mark.parametrize(
    "content",
    (b"", b'{"format": "mrforest", "version": 3, "trees": [', b"\xff\xfe\x00garbage", b"not json"),
    ids=("empty", "truncated", "binary", "text"),
)
def test_unreadable_model_file_is_parse_error(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        load_forest(path)


def test_truncated_model_file_exits_3_on_the_cli(tmp_path, capsys):
    ds = random_dataset(np.random.default_rng(2), 60, 2)
    text = train_mrf(ds, MrfConfig(t=2, k=3, seed=0)).to_json()
    model = tmp_path / "model.json"
    model.write_text(text[: len(text) // 2], encoding="utf-8")
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1\n0.1,0.2\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(model), "--data", str(rows)])
    assert code == cli.EXIT_DATA
    assert "error:" in capsys.readouterr().err


def _corrupt_model_exits_3(tmp_path, capsys, corrupt) -> str:
    """The CLI's error message on a corrupted :func:`_model_doc`, which must exit 3."""
    doc = _model_doc()
    corrupt(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1\n0.1,0.2\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(model), "--data", str(rows)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "error:" in err
    return err


@pytest.mark.parametrize(
    "corrupt", (_nan_threshold, _nan_threshold_v2), ids=("nan-threshold", "nan-threshold-v2")
)
def test_non_finite_model_value_exits_3_on_the_cli(tmp_path, capsys, corrupt):
    err = _corrupt_model_exits_3(tmp_path, capsys, corrupt)
    assert "not finite" in err or "infinite" in err


@pytest.mark.parametrize(
    "corrupt",
    (
        _orphan_node,
        _orphan_node_v2,
        _self_loop,
        _backward_child,
        _backward_child_v2,
        _child_out_of_range,
        _child_out_of_range_v2,
    ),
    ids=("orphan", "orphan-v2", "self-loop", "backward", "backward-v2", "range", "range-v2"),
)
def test_model_that_is_not_a_tree_exits_3_on_the_cli(tmp_path, capsys, corrupt):
    assert "do not form a tree" in _corrupt_model_exits_3(tmp_path, capsys, corrupt)


@pytest.mark.parametrize(
    "corrupt",
    (_column_lengths_differ_v2, _threshold_not_a_number),
    ids=("one-short", "not-a-number"),
)
def test_bad_threshold_column_exits_3_on_the_cli(tmp_path, capsys, corrupt):
    assert "threshold" in _corrupt_model_exits_3(tmp_path, capsys, corrupt)


@pytest.mark.parametrize(
    "body", ("0.1,nan\n", "0.1,inf\n", "0.1\n", "0.1,0.2,0.3\n", "0.1,oops\n", "")
)
def test_bad_feature_rows_exit_3_on_the_cli(tmp_path, capsys, body):
    ds = random_dataset(np.random.default_rng(3), 60, 2)
    model = tmp_path / "model.json"
    save_forest(train_mrf(ds, MrfConfig(t=2, k=3, seed=0)), model)
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1\n0.5,0.5\n" + body if body else "f0,f1\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(model), "--data", str(rows)])
    assert code == cli.EXIT_DATA
    assert "error:" in capsys.readouterr().err

