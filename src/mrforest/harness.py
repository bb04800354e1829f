"""Cross-validation benchmarking, paired statistics, sweeps, and reports.

:func:`run_cv` (one config) and :func:`sweep` (its b1 x b2 configs) share one
runner: it plans the folds once and runs every (config, repeat, fold) cell in
one pool. All randomness derives from the master seed ``config.seed``: the
fold plan, the per-cell training seeds and evaluation streams come from fixed
spawn-key domains, so every method and grid cell sees identical splits
(enabling paired comparisons) and results do not depend on execution order.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Any, ClassVar, Sequence

import numpy as np

from .data import Dataset, make_folds
from .errors import ConfigError, TooFewPairs
from .forest import (
    BaselineConfig,
    Forest,
    MrfConfig,
    predict_batch,
    train_baseline_rf,
    train_mrf,
)

__all__ = [
    "CvReport",
    "SweepReport",
    "TreeDistReport",
    "run_cv",
    "sweep",
    "wilcoxon_signed_rank",
    "average_ranks",
    "emit_report",
]

METHODS = ("mrf", "breiman", "completely_random")

# Spawn-key domains under the harness master seed.
_PLAN_STREAM = 10
_TRAIN_STREAM = 11
_EVAL_STREAM = 12


# A report's JSON is its kind and then its fields in declaration order (emit_report),
# so the order of the fields below is part of the report format.
@dataclass(frozen=True)
class CvReport:
    """Per-fold accuracies of one method on one dataset."""

    kind: ClassVar[str] = "cv_report"
    dataset: str
    method: str
    folds: int
    repeats: int
    seed: int
    mean: float
    std: float
    accuracies: tuple[float, ...]  # repeat-major, then fold order
    fold_seconds: tuple[float, ...]

    @classmethod
    def build(
        cls,
        dataset: str,
        method: str,
        folds: int,
        repeats: int,
        seed: int,
        accuracies: Sequence[float],
        fold_seconds: Sequence[float],
    ) -> "CvReport":
        acc = np.asarray(accuracies, dtype=np.float64)
        return cls(
            dataset=dataset,
            method=method,
            folds=folds,
            repeats=repeats,
            seed=seed,
            accuracies=tuple(float(a) for a in acc),
            fold_seconds=tuple(float(s) for s in fold_seconds),
            mean=float(acc.mean()),
            std=float(acc.std(ddof=1)) if acc.size > 1 else 0.0,
        )

    def csv_rows(self) -> tuple[list[str], list[list[Any]]]:
        header = ["repeat", "fold", "accuracy", "seconds"]
        rows = [
            [i // self.folds, i % self.folds, acc, sec]
            for i, (acc, sec) in enumerate(zip(self.accuracies, self.fold_seconds))
        ]
        return header, rows


@dataclass(frozen=True)
class SweepReport:
    """Mean accuracy per (b1, b2) grid cell, all cells on one fold plan."""

    kind: ClassVar[str] = "sweep_report"
    dataset: str
    b1_grid: tuple[float, ...]
    b2_grid: tuple[float, ...]
    folds: int
    repeats: int
    seed: int
    cells: tuple[dict[str, float], ...]  # b1-major, then b2 order

    def csv_rows(self) -> tuple[list[str], list[list[Any]]]:
        header = ["B1", "B2", "mean_acc", "std"]
        rows = [[c["b1"], c["b2"], c["mean_acc"], c["std"]] for c in self.cells]
        return header, rows


@dataclass(frozen=True)
class TreeDistReport:
    """Per-tree accuracies of one forest on a held-out row set."""

    kind: ClassVar[str] = "tree_dist_report"
    dataset: str
    method: str
    forest_accuracy: float
    accuracies: tuple[float, ...]

    def csv_rows(self) -> tuple[list[str], list[list[Any]]]:
        return ["tree", "accuracy"], [[i, a] for i, a in enumerate(self.accuracies)]


def _cell_seed(seed: int, repeat: int, fold: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(_TRAIN_STREAM, repeat, fold))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _eval_rng(seed: int, repeat: int, fold: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_EVAL_STREAM, repeat, fold))
    )


def _train_for_method(
    dataset: Dataset, method: str, config: MrfConfig | BaselineConfig
) -> Forest:
    if method == "mrf":
        return train_mrf(dataset, config)
    if method == "completely_random":
        return train_mrf(dataset, replace(config, b1=0.0, b2=0.0))
    if method == "breiman":
        if isinstance(config, MrfConfig):
            config = BaselineConfig(
                t=config.t, k=config.k, criterion=config.criterion, seed=config.seed
            )
        return train_baseline_rf(dataset, config)
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")


# A pool worker's dataset, handed to it once by the pool's initializer, not with each job
_pool_dataset: Dataset | None = None


def _hold_dataset(dataset: Dataset) -> None:
    global _pool_dataset
    _pool_dataset = dataset


def _run_cell(job: tuple, dataset: Dataset | None = None) -> tuple[float, float]:
    method, config, seed, repeat, fold, test_idx = job
    dataset = _pool_dataset if dataset is None else dataset
    start = time.perf_counter()
    # a fold trains on the ascending complement of its test rows
    train_idx = np.delete(np.arange(dataset.n), test_idx)
    cell_config = replace(config, seed=_cell_seed(seed, repeat, fold))
    forest = _train_for_method(dataset.subset(train_idx), method, cell_config)
    test_rng = _eval_rng(seed, repeat, fold)
    classes, _ = predict_batch(forest, dataset.features[test_idx], test_rng)
    accuracy = float(np.mean(classes == dataset.labels[test_idx]))
    return accuracy, time.perf_counter() - start


def _cross_validate(
    dataset: Dataset,
    method: str,
    configs: Sequence[MrfConfig | BaselineConfig],
    folds: int,
    repeats: int,
    seed: int,
    n_jobs: int,
) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    """Each config's accuracies and seconds, repeat-major then in fold order, on one
    fold plan of (n, folds, repeats, seed); a cell trains with the seed derived from
    (seed, repeat, fold), whatever its config's seed."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    plan_seed = np.random.SeedSequence(seed, spawn_key=(_PLAN_STREAM,))
    plan = make_folds(dataset.n, folds, repeats, np.random.default_rng(plan_seed))
    cells = [(r, f, test_idx) for r, repeat in enumerate(plan) for f, test_idx in enumerate(repeat)]
    jobs = [(method, config, seed, *cell) for config in configs for cell in cells]
    # a forked pool starts all its workers at once: no more than can be used
    workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_hold_dataset, initargs=(dataset,)) as pool:
            results = list(pool.map(_run_cell, jobs, chunksize=1))
    else:
        results = [_run_cell(job, dataset) for job in jobs]
    per_config = len(cells)
    return [tuple(zip(*results[i : i + per_config])) for i in range(0, len(results), per_config)]


def run_cv(
    dataset: Dataset,
    method: str,
    config: MrfConfig | BaselineConfig,
    folds: int,
    repeats: int,
    name: str = "dataset",
    n_jobs: int = 1,
) -> CvReport:
    """Repeated k-fold cross validation of one method under the master seed ``config.seed``.

    The fold plan depends only on (n, folds, repeats, config.seed), so different
    methods at the same seed see byte-identical splits.
    """
    [result] = _cross_validate(dataset, method, [config], folds, repeats, config.seed, n_jobs)
    return CvReport.build(name, method, folds, repeats, config.seed, *result)


def sweep(
    dataset: Dataset,
    b1_grid: Sequence[float],
    b2_grid: Sequence[float],
    config: MrfConfig,
    folds: int,
    repeats: int,
    name: str = "dataset",
    n_jobs: int = 1,
) -> SweepReport:
    """Cross-validated mrf accuracy per (b1, b2) grid cell, all on ``config.seed``'s fold plan."""
    if not b1_grid or not b2_grid:
        raise ConfigError("sweep grids must be nonempty")
    grid = [(float(b1), float(b2)) for b1 in b1_grid for b2 in b2_grid]
    configs = [replace(config, b1=b1, b2=b2) for b1, b2 in grid]
    results = _cross_validate(dataset, "mrf", configs, folds, repeats, config.seed, n_jobs)
    cells = []
    for (b1, b2), result in zip(grid, results):
        report = CvReport.build(name, "mrf", folds, repeats, config.seed, *result)
        cells.append({"b1": b1, "b2": b2, "mean_acc": report.mean, "std": report.std})
    return SweepReport(
        dataset=name,
        b1_grid=tuple(float(b) for b in b1_grid),
        b2_grid=tuple(float(b) for b in b2_grid),
        folds=folds,
        repeats=repeats,
        seed=config.seed,
        cells=tuple(cells),
    )


def _rank_average(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided signed-rank p-value for paired samples.

    Zero differences are dropped; at least six nonzero pairs are required.
    Up to 15 pairs the exact permutation distribution is enumerated (ties get
    average ranks); beyond that a normal approximation with tie and
    continuity corrections is used.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise TooFewPairs("paired samples must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0]
    n = diffs.size
    if n < 6:
        raise TooFewPairs(f"need >= 6 nonzero paired differences, got {n}")
    ranks = _rank_average(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())

    if n <= 15:
        # Subset-sum distribution of W+ over all 2^n sign patterns; average
        # ranks are half-integers, so doubling makes everything integral.
        ranks2 = np.rint(2.0 * ranks).astype(np.int64)
        dist = np.zeros(int(ranks2.sum()) + 1, dtype=np.float64)
        dist[0] = 1.0
        for r in ranks2:
            shifted = np.zeros_like(dist)
            shifted[r:] = dist[: dist.size - r]
            dist += shifted
        total = 2.0**n
        w2 = int(np.rint(2.0 * w_plus))
        p_low = dist[: w2 + 1].sum() / total
        p_high = dist[w2:].sum() / total
        return min(1.0, 2.0 * min(p_low, p_high))

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    variance -= float(((tie_counts**3 - tie_counts) / 48.0).sum())
    delta = w_plus - mean
    if delta == 0:
        return 1.0
    z = (delta - 0.5 * math.copysign(1.0, delta)) / math.sqrt(variance)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def average_ranks(scores: dict[str, dict[str, float]]) -> dict[str, float]:
    """Average rank of each method across datasets (rank 1 = highest score).

    ``scores`` maps method -> dataset -> accuracy; every method must cover
    the same datasets. External baseline numbers can be merged in before the
    call to rank against published results.
    """
    methods = sorted(scores)
    datasets = sorted(next(iter(scores.values())))
    for method in methods:
        if sorted(scores[method]) != datasets:
            raise ConfigError("all methods must report the same datasets")
    totals = {m: 0.0 for m in methods}
    for ds in datasets:
        accs = np.asarray([scores[m][ds] for m in methods])
        ranks = _rank_average(-accs)
        for m, r in zip(methods, ranks):
            totals[m] += float(r)
    return {m: totals[m] / len(datasets) for m in methods}


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def emit_report(report: CvReport | SweepReport | TreeDistReport, format: str = "json") -> str:
    """Render a report as text: JSON holds its kind and then its fields in order, at
    full float precision for exact re-parsing; CSV holds its table, floats printed
    with 6 significant digits for plotting.
    """
    if format == "json":
        return json.dumps({"kind": report.kind, **asdict(report)}, indent=2) + "\n"
    if format == "csv":
        header, rows = report.csv_rows()
        lines = [",".join(header)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format {format!r}")
