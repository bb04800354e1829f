"""Cross-validation harness, signed-rank statistics, sweeps, and report I/O."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats

import mrforest.harness
from conftest import random_dataset, same_plan
from mrforest.data import Dataset
from mrforest.cli import _write
from mrforest.errors import ConfigError, TooFewPairs
from mrforest.forest import BaselineConfig, MrfConfig, predict_batch, train_mrf
from mrforest.harness import (
    CvReport,
    average_ranks,
    emit_report,
    run_cv,
    sweep,
    wilcoxon_signed_rank,
)
from oracle import walk_votes


def _constant_cluster_dataset(n: int = 60) -> Dataset:
    labels = np.arange(n) % 2
    return Dataset((labels * 10.0).reshape(-1, 1), labels, ("x",), 2)


def _separable_dataset(n: int = 120) -> Dataset:
    rng = np.random.default_rng(8)
    labels = np.arange(n) % 2
    features = np.column_stack(
        [labels * 10.0 + rng.normal(scale=0.1, size=n), rng.normal(size=n)]
    )
    return Dataset(features, labels, ("sep", "noise"), 2)


def _recording_pool(monkeypatch, sizes: list, jobs: list) -> None:
    """Install a pool class that records each pool's size and jobs, runs its
    initializer and maps serially, all in this process: no process starts."""

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            jobs.extend(items)
            return map(fn, items)

    monkeypatch.setattr(mrforest.harness, "ProcessPoolExecutor", SerialPool)
    # the dataset that the initializer holds in this process is dropped after the test
    monkeypatch.setattr(mrforest.harness, "_pool_dataset", None)


def _carries_a_dataset(jobs: list) -> bool:
    return any(isinstance(part, Dataset) for job in jobs for part in job)


class TestRunCv:
    def test_any_method_perfect_on_trivially_separable_data(self):
        ds = _constant_cluster_dataset()
        config = MrfConfig(t=5, k=2, seed=1)
        for method in ("mrf", "breiman", "completely_random"):
            report = run_cv(ds, method, config, folds=5, repeats=1, name="const")
            assert report.mean == 1.0
            assert report.std == 0.0

    def test_margin_separable_data(self):
        ds = _separable_dataset()
        config = MrfConfig(t=25, k=3, seed=4)
        for method in ("mrf", "breiman"):
            report = run_cv(ds, method, config, folds=5, repeats=2)
            assert report.mean == 1.0

    def test_deterministic(self):
        ds = _separable_dataset()
        config = MrfConfig(t=5, k=3, seed=9)
        a = run_cv(ds, "mrf", config, 4, 2)
        b = run_cv(ds, "mrf", config, 4, 2)
        # wall-clock naturally varies; everything else must match exactly
        assert a.accuracies == b.accuracies
        assert (a.mean, a.std, a.seed) == (b.mean, b.std, b.seed)

    def test_parallel_equals_sequential(self):
        ds = _separable_dataset(80)
        config = MrfConfig(t=4, k=3, seed=3)
        seq = run_cv(ds, "mrf", config, 4, 1, n_jobs=1)
        par = run_cv(ds, "mrf", config, 4, 1, n_jobs=2)
        assert seq.accuracies == par.accuracies

    @pytest.mark.parametrize(
        ("n_jobs", "cpus", "workers"),
        [(5000, 64, 6), (5000, 4, 4), (3, 64, 3), (5000, None, None), (1, 64, None)],
    )
    def test_workers_capped_at_cells_and_cores(self, monkeypatch, n_jobs, cpus, workers):
        sizes, jobs = [], []
        _recording_pool(monkeypatch, sizes, jobs)
        monkeypatch.setattr(mrforest.harness.os, "cpu_count", lambda: cpus)
        ds = _separable_dataset(60)
        config = MrfConfig(t=2, k=3, seed=3)
        report = run_cv(ds, "mrf", config, 3, 2, n_jobs=n_jobs)
        assert sizes == ([] if workers is None else [workers])
        # pooled cells carry no dataset: the pool's initializer hands it over once
        assert len(jobs) == (0 if workers is None else 6) and not _carries_a_dataset(jobs)
        assert report.accuracies == run_cv(ds, "mrf", config, 3, 2).accuracies

    def test_accuracies_bounded_and_counted(self, rng):
        ds = random_dataset(rng, 90, 3)
        report = run_cv(ds, "mrf", MrfConfig(t=3, k=3, seed=5), folds=4, repeats=2)
        assert len(report.accuracies) == 8
        assert all(0.0 <= a <= 1.0 for a in report.accuracies)
        assert report.mean == pytest.approx(np.mean(report.accuracies))

    def test_baseline_config_accepted_directly(self, rng):
        ds = random_dataset(rng, 80, 2)
        report = run_cv(ds, "breiman", BaselineConfig(t=3, k=3, seed=2), 4, 1)
        assert len(report.accuracies) == 4

    def test_unknown_method(self, rng):
        ds = random_dataset(rng, 40, 2)
        with pytest.raises(ConfigError):
            run_cv(ds, "boosting", MrfConfig(t=1), 4, 1)

    def test_finite_b3_reproducible(self, rng):
        ds = random_dataset(rng, 80, 2)
        config = MrfConfig(t=5, k=3, b3=2.0, seed=6)
        a = run_cv(ds, "mrf", config, 4, 1)
        b = run_cv(ds, "mrf", config, 4, 1)
        assert a.accuracies == b.accuracies


class TestWilcoxon:
    def test_all_zero_differences(self):
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank([1.0] * 10, [1.0] * 10)

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])

    def test_constant_shift_ten_pairs(self):
        base = np.arange(10.0)
        p = wilcoxon_signed_rank(base + 0.1, base)
        assert p == pytest.approx(2.0 / 1024.0)
        assert p < 0.01

    def test_two_sidedness_swap_invariance(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=12), rng.normal(size=12)
        assert wilcoxon_signed_rank(a, b) == wilcoxon_signed_rank(b, a)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(
            wilcoxon_signed_rank(a + 3.0, b + 3.0)
        )

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scipy_exact_regime(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 15))
        a, b = rng.normal(size=n), rng.normal(size=n)
        ours = wilcoxon_signed_rank(a, b)
        theirs = scipy.stats.wilcoxon(a, b, mode="exact").pvalue
        assert ours == pytest.approx(theirs, abs=1e-12)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_scipy_normal_regime(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(16, 50))
        a, b = rng.normal(size=n), rng.normal(size=n)
        ours = wilcoxon_signed_rank(a, b)
        theirs = scipy.stats.wilcoxon(a, b, mode="approx", correction=True).pvalue
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_null_calibration(self):
        # independent same-distribution samples: rejection rate near the level
        rng = np.random.default_rng(777)
        rejections = sum(
            wilcoxon_signed_rank(rng.normal(size=20), rng.normal(size=20)) < 0.05
            for _ in range(1000)
        )
        assert 0.03 <= rejections / 1000 <= 0.07


class TestSweep:
    def test_single_cell_equals_run_cv(self):
        ds = _separable_dataset(80)
        config = MrfConfig(t=3, k=3, b1=4.0, b2=6.0, seed=11)
        report = sweep(ds, [4.0], [6.0], config, 4, 1)
        single = run_cv(ds, "mrf", config, 4, 1)
        assert report.cells[0]["mean_acc"] == single.mean
        assert report.cells[0]["std"] == single.std

    def test_value_budget_direction_on_structured_data(self):
        # sharp-boundary data: informed thresholds must beat uniform ones
        rng = np.random.default_rng(42)
        n = 300
        x0 = rng.uniform(0, 1, n)
        labels = (x0 > 0.5).astype(int)
        features = np.column_stack([x0, rng.uniform(0, 1, n), rng.uniform(0, 1, n)])
        ds = Dataset(features, labels, ("sig", "n1", "n2"), 2)
        report = sweep(ds, [0.0], [0.0, 10.0], MrfConfig(t=30, k=5, b1=0.0, seed=7), 5, 1)
        means = {(cell["b1"], cell["b2"]): cell["mean_acc"] for cell in report.cells}
        assert means[(0.0, 10.0)] > means[(0.0, 0.0)]

    def test_one_fold_plan_and_one_pool_per_sweep(self, monkeypatch):
        # 2 x 2 configs x 3 folds: twelve cells, planned once and run in one pool of 8
        ds = _separable_dataset(60)
        config = MrfConfig(t=2, k=3, seed=3)
        serial = sweep(ds, [0.0, 5.0], [1.0, 2.0], config, 3, 1)
        sizes, plans, jobs = [], [], []
        make_folds = mrforest.harness.make_folds
        _recording_pool(monkeypatch, sizes, jobs)
        monkeypatch.setattr(mrforest.harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            mrforest.harness, "make_folds", lambda *args: plans.append(args) or make_folds(*args)
        )
        report = sweep(ds, [0.0, 5.0], [1.0, 2.0], config, 3, 1, n_jobs=8)
        assert sizes == [8]
        assert len(plans) == 1
        assert len(jobs) == 12 and not _carries_a_dataset(jobs)
        assert report.cells == serial.cells

    def test_grid_shape(self, rng):
        ds = random_dataset(rng, 70, 2)
        report = sweep(ds, [0.0, 5.0], [1.0, 2.0, 3.0], MrfConfig(t=2, k=3, seed=2), 3, 1)
        assert len(report.cells) == 6
        assert report.b1_grid == (0.0, 5.0)

    def test_empty_grid_rejected(self, rng):
        ds = random_dataset(rng, 40, 2)
        with pytest.raises(ConfigError):
            sweep(ds, [], [1.0], MrfConfig(t=1), 3, 1)

    def test_full_grid_desk_scale_budget(self, rng):
        # 25-cell [0,20] step-5 grid on a small dataset stays well under budget
        import time

        ds = random_dataset(rng, 150, 2)
        grid = [0.0, 5.0, 10.0, 15.0, 20.0]
        start = time.perf_counter()
        report = sweep(ds, grid, grid, MrfConfig(t=10, k=4, seed=3), 3, 1)
        elapsed = time.perf_counter() - start
        assert len(report.cells) == 25
        assert elapsed < 600


def test_fold_plans_are_method_and_config_independent():
    # the pairing contract: plans derive from (n, folds, repeats, seed) only
    from mrforest.data import make_folds
    from mrforest.harness import _PLAN_STREAM

    plan_a = make_folds(
        97, 5, 3, np.random.default_rng(np.random.SeedSequence(42, spawn_key=(_PLAN_STREAM,)))
    )
    plan_b = make_folds(
        97, 5, 3, np.random.default_rng(np.random.SeedSequence(42, spawn_key=(_PLAN_STREAM,)))
    )
    assert same_plan(plan_a, plan_b)


class TestTreeDistribution:
    """Per-tree accuracy as the ``tree-dist`` command computes it from the vote matrix."""

    def test_single_tree_matches_forest_accuracy(self, rng):
        ds = random_dataset(rng, 100, 2)
        forest = train_mrf(ds.subset(np.arange(70)), MrfConfig(t=1, k=3, seed=0))
        test_x = ds.features[70:]
        test_y = ds.labels[70:]
        classes, votes = predict_batch(forest, test_x)
        accs = (votes == test_y).mean(axis=1)
        assert accs.shape == (1,)
        assert accs[0] == pytest.approx(np.mean(classes == test_y))

    def test_unanimous_forest_equal_entries(self):
        ds = _constant_cluster_dataset(40)
        forest = train_mrf(ds, MrfConfig(t=6, k=2, seed=1))
        _, votes = predict_batch(forest, ds.features)
        accs = (votes == ds.labels).mean(axis=1)
        assert np.allclose(accs, accs[0])
        assert accs[0] == 1.0

    def test_consistent_with_vote_matrix(self, rng):
        ds = random_dataset(rng, 90, 3)
        forest = train_mrf(ds.subset(np.arange(60)), MrfConfig(t=8, k=3, seed=2))
        test_x, test_y = ds.features[60:], ds.labels[60:]
        _, votes = predict_batch(forest, test_x)
        _, walked = walk_votes(forest, test_x)
        assert np.allclose((votes == test_y).mean(axis=1), (walked == test_y).mean(axis=1))


class TestReports:
    def _report(self) -> CvReport:
        return CvReport.build("demo", "mrf", 2, 1, 7, [0.5, 2 / 3], [0.01, 0.02])

    def test_json_round_trip_exact(self):
        report = self._report()
        doc = json.loads(emit_report(report, "json"))
        assert list(doc) == ["kind", *(field.name for field in fields(CvReport))]
        assert doc.pop("kind") == "cv_report"
        rebuilt = {name: tuple(v) if isinstance(v, list) else v for name, v in doc.items()}
        assert CvReport(**rebuilt) == report

    def test_csv_six_significant_digits(self):
        text = emit_report(self._report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "repeat,fold,accuracy,seconds"
        assert "0.666667" in lines[2]

    def test_sweep_csv_header(self, rng):
        ds = random_dataset(rng, 60, 2)
        report = sweep(ds, [0.0], [1.0], MrfConfig(t=1, k=3, seed=1), 3, 1)
        text = emit_report(report, "csv")
        assert text.splitlines()[0] == "B1,B2,mean_acc,std"

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_report(self._report(), "yaml")

    def test_written_file_matches_returned_text(self, tmp_path):
        path = tmp_path / "report.json"
        text = emit_report(self._report(), "json")
        _write(text, str(path))
        assert path.read_text(encoding="utf-8") == text


class TestAverageRanks:
    def test_basic_ranking(self):
        scores = {
            "a": {"d1": 0.9, "d2": 0.8},
            "b": {"d1": 0.8, "d2": 0.9},
            "c": {"d1": 0.7, "d2": 0.7},
        }
        ranks = average_ranks(scores)
        assert ranks["a"] == ranks["b"] == 1.5
        assert ranks["c"] == 3.0

    def test_mismatched_datasets_rejected(self):
        with pytest.raises(ConfigError):
            average_ranks({"a": {"d1": 0.5}, "b": {"d2": 0.5}})
