"""Seeded synthetic inputs for the benchmark workloads.

Every array the library receives is generated here from the workload seed;
nothing is read from disk or downloaded. The same seed gives the same arrays.

Why these shapes:

- The four UCI shapes (banknote, transfusion, car, cmc) are the data sets the
  paper and the acceptance suite use. Their row counts, feature counts, class
  counts, class priors and feature granularity set node sizes, the number of
  candidate thresholds per node and the tree sizes, which is what training and
  prediction cost depends on. Labels come from a noisy linear score, so trees
  of realistic size grow; the score weights are fixed per shape, so seeds
  change the rows but not how hard the task is. The noise is set so that even a one-tree forest
  beats the majority-class rate on every shape; transfusion is kept easier
  than the real set (which sits 2-3 points above its majority rate) so that
  the accuracy check never fails by chance.
- car keeps its six ordinal attributes with 3-4 levels and cmc its mix of
  binary, ordinal and near-continuous columns: tied values leave few valid
  cuts per feature, a different regime for the impurity scan than the
  continuous banknote columns.
- The 20k x 10 shape is the scale point: its large upper nodes make the
  impurity scan and child filtering dominate instead of per-node overhead.
- Micro-datasets (n 2-12, D 1-3, K 2-3) are the shapes the exhaustive privacy
  audit accepts. The benchmark fixes which (n, D, K) cases a round audits and
  the seed draws only their values, so audit cost does not swing with how
  many large cases a seed happens to draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mrforest.data import Dataset

HOLDOUT_SHARE = 0.3


@dataclass(frozen=True)
class Shape:
    """Generator settings for one synthetic table.

    ``levels`` gives, per feature, the number of ordinal levels the column is
    cut into, or ``None`` for a continuous column.
    """

    name: str
    n: int
    levels: tuple[int | None, ...]
    priors: tuple[float, ...]
    noise: float

    @property
    def feature_count(self) -> int:
        return len(self.levels)

    @property
    def class_count(self) -> int:
        return len(self.priors)


UCI_SHAPES = (
    Shape("banknote", 1372, (None,) * 4, (0.555, 0.445), 0.15),
    Shape("transfusion", 748, (30, 40, 40, 80), (0.76, 0.24), 0.15),
    Shape("car", 1728, (4, 4, 4, 3, 3, 3), (0.70, 0.22, 0.04, 0.04), 0.0),
    Shape("cmc", 1473, (34, 4, 4, 15, 2, 2, 4, 4, 2), (0.43, 0.23, 0.34), 0.4),
)


def large_shape(n: int) -> Shape:
    return Shape("large", n, (None,) * 10, (0.5, 0.5), 0.5)


@dataclass(frozen=True)
class Split:
    """A shape's rows split into a training Dataset and held-out rows."""

    shape: Shape
    train: Dataset
    holdout_x: np.ndarray
    holdout_y: np.ndarray

    @property
    def majority_rate(self) -> float:
        """Share of the most frequent class among the held-out rows."""
        counts = np.bincount(self.holdout_y, minlength=self.shape.class_count)
        return float(counts.max() / counts.sum())


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def make_split(shape: Shape, seed: int, key: int) -> Split:
    """Generate ``shape`` from ``seed`` and hold out 30% of its rows."""
    rng = _rng(seed, key)
    raw = rng.normal(size=(shape.n, shape.feature_count))
    x = np.empty_like(raw)
    for j, levels in enumerate(shape.levels):
        if levels is None:
            x[:, j] = raw[:, j]
        else:
            edges = np.quantile(raw[:, j], np.linspace(0, 1, levels + 1)[1:-1])
            x[:, j] = np.searchsorted(edges, raw[:, j])
    z = (x - x.mean(axis=0)) / np.maximum(x.std(axis=0), 1e-12)
    # fixed weights: the seed moves the rows, not how hard the task is
    d = shape.feature_count
    weights = (1.0 - 0.5 * np.arange(d) / d) * (-1.0) ** np.arange(d)
    score = z @ weights
    score = score / score.std() + shape.noise * rng.normal(size=shape.n)
    edges = np.quantile(score, np.cumsum(shape.priors)[:-1])
    y = np.searchsorted(edges, score)
    perm = rng.permutation(shape.n)
    hold = perm[: round(HOLDOUT_SHARE * shape.n)]
    keep = np.sort(perm[hold.size:])
    train = Dataset(
        features=x[keep],
        labels=y[keep],
        feature_names=tuple(f"f{j}" for j in range(shape.feature_count)),
        class_count=shape.class_count,
    )
    return Split(shape, train, x[np.sort(hold)], y[np.sort(hold)])


def micro_dataset(seed: int, case: int, n: int, d: int, k: int) -> Dataset:
    """Unstructured micro-dataset for the exhaustive audits (>= 2 labels seen)."""
    rng = _rng(seed, 1000, case)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    if np.unique(y).size < 2:
        y[0] = (y[0] + 1) % k
    return Dataset(
        features=x, labels=y, feature_names=tuple(f"f{j}" for j in range(d)), class_count=k
    )


def audit_budget_inputs(seed: int, case: int) -> tuple[float, int, int, int, float]:
    """(epsilon, t, estimation_size, k, split) for one allocate_budget call."""
    rng = _rng(seed, 2000, case)
    return (
        float(rng.uniform(0.01, 40.0)),
        int(rng.integers(1, 150)),
        int(rng.integers(1, 4000)),
        int(rng.integers(1, 40)),
        float(rng.uniform(0.1, 0.9)),
    )
