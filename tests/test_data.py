"""Loader, partition, and fold-plan behavior."""

from __future__ import annotations

import io

import numpy as np
import pytest

import mrforest.harness as harness
from conftest import same_plan
from mrforest.data import (
    Dataset,
    load_dataset,
    make_folds,
    partition,
    structure_size,
)
from mrforest.errors import EmptyError, ParseError, SchemaError, SizeError
from mrforest.forest import MrfConfig


def _csv(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestLoadDataset:
    def test_dense_reindexing_first_appearance(self):
        ds = load_dataset(_csv("x,y\n1.0,a\n2.0,b\n3.0,a\n"))
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_count == 2
        assert ds.label_values == ("a", "b")
        assert ds.feature_names == ("x",)

    def test_nan_cell_rejected(self):
        with pytest.raises(ParseError):
            load_dataset(_csv("x,y\nNaN,a\n2.0,b\n"))

    def test_inf_cell_rejected(self):
        with pytest.raises(ParseError):
            load_dataset(_csv("x,y\ninf,a\n2.0,b\n"))

    def test_non_numeric_feature_rejected(self):
        with pytest.raises(ParseError):
            load_dataset(_csv("x,y\nhello,a\n2.0,b\n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError):
            load_dataset(_csv("x,z,y\n1.0,2.0,a\n2.0,b\n"))

    def test_empty_rejected(self):
        with pytest.raises(EmptyError):
            load_dataset(_csv("x,y\n"))

    def test_single_class_rejected(self):
        with pytest.raises(SchemaError):
            load_dataset(_csv("x,y\n1.0,a\n2.0,a\n"))

    def test_label_col_by_name_and_index(self):
        text = "y,x\na,1.0\nb,2.0\n"
        by_name = load_dataset(_csv(text), label_col="y")
        by_index = load_dataset(_csv(text), label_col=0)
        assert by_name.features.tolist() == by_index.features.tolist() == [[1.0], [2.0]]

    def test_missing_label_col(self):
        with pytest.raises(SchemaError):
            load_dataset(_csv("x,y\n1.0,a\n2.0,b\n"), label_col="nope")

    def test_delimiter_override(self):
        ds = load_dataset(_csv("x;y\n1.0;a\n2.0;b\n"), delimiter=";")
        assert ds.n == 2

    def test_row_order_preserved(self):
        ds = load_dataset(_csv("x,y\n5,a\n1,b\n3,a\n"))
        assert ds.features[:, 0].tolist() == [5.0, 1.0, 3.0]

    def test_bytes_stream_with_blank_lines(self):
        # blank and whitespace-only lines are skipped before the header too
        ds = load_dataset(io.BytesIO(b"\n  \t\nx,y\n1.0,a\n\n 2.0 , b \n"))
        assert ds.features.tolist() == [[1.0], [2.0]]
        assert ds.label_values == ("a", "b")

    def test_dataset_immutable(self):
        ds = load_dataset(_csv("x,y\n1.0,a\n2.0,b\n"))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1


class TestPartition:
    def test_rate_one_even_split(self, rng):
        ds = _dummy(100)
        part = partition(ds, 1.0, rng)
        assert part.structure_idx.size == 50
        assert part.estimation_idx.size == 50

    def test_rounding_rule_half_up(self, rng):
        # 3 * 1/(1+1) = 1.5 rounds up to 2 structure rows
        assert structure_size(3, 1.0) == 2
        part = partition(_dummy(3), 1.0, rng)
        assert part.structure_idx.size == 2

    def test_deterministic_given_seed(self):
        ds = _dummy(37)
        a = partition(ds, 1.0, np.random.default_rng(7))
        b = partition(ds, 1.0, np.random.default_rng(7))
        assert np.array_equal(a.structure_idx, b.structure_idx)

    def test_disjoint_and_covering(self, rng):
        ds = _dummy(53)
        part = partition(ds, 0.7, rng)
        merged = np.concatenate([part.structure_idx, part.estimation_idx])
        assert np.array_equal(np.sort(merged), np.arange(53))

    def test_single_row_fails(self, rng):
        with pytest.raises(SizeError):
            partition(_dummy(2).subset(np.array([0])), 1.0, rng)

    def test_degenerate_rate_fails(self, rng):
        with pytest.raises(SizeError):
            partition(_dummy(10), 1e9, rng)
        with pytest.raises(SizeError):
            partition(_dummy(10), -1.0, rng)
        with pytest.raises(SizeError):
            partition(_dummy(10), float("nan"), rng)
        with pytest.raises(SizeError):
            partition(_dummy(10), float("inf"), rng)

    def test_seeds_vary_structure_sets(self):
        # statistical smoke test: 100 seeds on n=40 are not all identical
        ds = _dummy(40)
        sets = {
            tuple(partition(ds, 1.0, np.random.default_rng(seed)).structure_idx)
            for seed in range(100)
        }
        assert len(sets) > 1


class TestFoldPlan:
    def test_equal_division(self, rng):
        plan = make_folds(10, 10, 1, rng)
        assert all(fold.size == 1 for fold in plan[0])

    def test_remainder_rule(self, rng):
        plan = make_folds(11, 10, 1, rng)
        sizes = sorted(fold.size for fold in plan[0])
        assert sizes == [1] * 9 + [2]

    def test_same_seed_same_plan(self):
        a = make_folds(23, 4, 3, np.random.default_rng(5))
        b = make_folds(23, 4, 3, np.random.default_rng(5))
        assert same_plan(a, b)

    def test_every_index_in_exactly_one_test_fold(self, rng):
        plan = make_folds(29, 4, 5, rng)
        assert len(plan) == 5
        for repeat in plan:
            merged = np.concatenate(repeat)
            assert np.array_equal(np.sort(merged), np.arange(29))
            assert all(np.array_equal(fold, np.sort(fold)) for fold in repeat)

    def test_train_complements_test(self, monkeypatch):
        # cross validation trains each cell on the ascending complement of its test fold
        trained = []
        train = harness._train_for_method

        def record(dataset, method, config):
            trained.append(dataset.features[:, 0].astype(np.int64))
            return train(dataset, method, config)

        monkeypatch.setattr(harness, "_train_for_method", record)
        rows = Dataset(np.arange(17.0).reshape(-1, 1), np.arange(17) % 2, ("row",), 2)
        harness.run_cv(rows, "mrf", MrfConfig(t=1, k=1, seed=4), folds=3, repeats=2)
        plan_seed = np.random.SeedSequence(4, spawn_key=(harness._PLAN_STREAM,))
        plan = make_folds(17, 3, 2, np.random.default_rng(plan_seed))
        tests = [fold for repeat in plan for fold in repeat]
        assert len(trained) == len(tests) == 6
        for train_rows, test_rows in zip(trained, tests):
            assert np.array_equal(train_rows, np.setdiff1d(np.arange(17), test_rows))

    def test_too_many_folds(self, rng):
        with pytest.raises(SizeError):
            make_folds(5, 6, 1, rng)


def _dummy(n: int) -> Dataset:
    rng = np.random.default_rng(0)
    return Dataset(
        features=rng.normal(size=(n, 2)),
        labels=np.arange(n) % 2,
        feature_names=("a", "b"),
        class_count=2,
    )
