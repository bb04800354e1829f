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
from oracle import walk_votes

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
    return ds, replace(deep, trees=trees)


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
    assert doc["trees"][0]["nodes"][0]["kind"] == "split"
    return doc


def _self_loop(doc):
    doc["trees"][0]["nodes"][0]["left"] = 0


def _backward_child(doc):
    index, node = next(
        (i, n) for i, n in enumerate(doc["trees"][0]["nodes"]) if i > 0 and n["kind"] == "split"
    )
    node["right"] = index - 1


def _child_out_of_range(doc):
    doc["trees"][0]["nodes"][0]["right"] = len(doc["trees"][0]["nodes"])


def _eta_too_short(doc):
    next(node for node in doc["trees"][0]["nodes"] if node["kind"] == "leaf")["eta"] = [1.0, 0.0]


def _feature_out_of_range(doc):
    doc["trees"][0]["nodes"][0]["feature"] = len(doc["feature_names"])


def _negative_feature(doc):
    doc["trees"][0]["nodes"][0]["feature"] = -1


def _child_not_a_number(doc):
    doc["trees"][0]["nodes"][0]["left"] = "1"


def _missing_nodes(doc):
    del doc["trees"][1]["nodes"]


def _no_trees(doc):
    doc["trees"] = []


def _labels_short(doc):
    doc["label_values"] = doc["label_values"][:2]


def _nan_threshold(doc):
    doc["trees"][0]["nodes"][0]["threshold"] = math.nan


def _inf_eta(doc):
    next(node for node in doc["trees"][1]["nodes"] if node["kind"] == "leaf")["eta"][0] = math.inf


def _first_leaf(doc):
    return next(node for node in doc["trees"][0]["nodes"] if node["kind"] == "leaf")


def _negative_eta(doc):
    _first_leaf(doc)["eta"] = [-5.0, 7.0, -1.0]


def _eta_sum_not_one(doc):
    _first_leaf(doc)["eta"] = [0.5, 0.5, 1e-8]


def _negative_counts(doc):
    _first_leaf(doc)["counts"][0] = -1


CORRUPTIONS = (
    _self_loop,
    _backward_child,
    _child_out_of_range,
    _eta_too_short,
    _feature_out_of_range,
    _negative_feature,
    _child_not_a_number,
    _missing_nodes,
    _no_trees,
    _labels_short,
    _nan_threshold,
    _inf_eta,
    _negative_eta,
    _eta_sum_not_one,
    _negative_counts,
)


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__.strip("_"))
def test_bad_model_document_raises_parse_error(corrupt):
    doc = _model_doc()
    corrupt(doc)
    with pytest.raises(ParseError):
        Forest.from_json(json.dumps(doc))


def test_intact_model_document_loads():
    forest = Forest.from_json(json.dumps(_model_doc()))
    assert predict_batch(forest, np.zeros((1, 2)))[1].shape == (2, 1)


@pytest.mark.parametrize(
    "content",
    (b"", b'{"format": "mrforest", "version": 1, "trees": [', b"\xff\xfe\x00garbage", b"not json"),
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


@pytest.mark.parametrize("corrupt", (_nan_threshold, _inf_eta), ids=("nan-threshold", "inf-eta"))
def test_non_finite_model_value_exits_3_on_the_cli(tmp_path, capsys, corrupt):
    doc = _model_doc()
    corrupt(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    rows = tmp_path / "rows.csv"
    rows.write_text("f0,f1\n0.1,0.2\n", encoding="utf-8")
    code = cli.main(["predict", "--model", str(model), "--data", str(rows)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "error:" in err and ("not finite" in err or "infinite" in err)


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

