"""Forest training, majority-vote prediction, and model serialization.

Three variants share one prediction path: the multinomial forest, its
B1 = B2 = 0 completely-random limit, and a greedy bootstrap baseline whose
trees vote their majority class. Each tree draws its partition or bootstrap
rows, and then its splits' uniforms, from its own counter-derived substream
of the master seed. Trees grow in groups, a level at a time (see
:mod:`mrforest.tree`): consecutive trees whose rows together fit
``_GROUP_ROWS`` grow together, and a tree with more rows grows alone. A tree
reads the same uniforms whatever trees it grows with, and its mechanism
laws, built in one batch with theirs, agree with its own up to rounding, so
a draw could differ only where a uniform falls within that rounding of a
law's step: training is reproducible however trees are grouped.

:func:`predict_batch` rejects rows of the wrong width or with NaN or inf, then
runs all trees at once on the forest's compiled trees (see
:mod:`mrforest.tree`), built on its first prediction and kept: its trees must
not be mutated after that. A model document (version 2) stores each tree's
columns and nothing they determine; it is checked as it loads, as whole
arrays, all trees' columns at once. Version 1 documents, which list each
tree's nodes, still load; their nodes are renumbered in level order, so a
version 1 document of a tree re-saves as that tree's version 2 document.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from .data import Dataset, partition
from .errors import ConfigError, ParseError, SchemaError
from .tree import (
    CompiledTrees,
    Tree,
    _leaf_eta,
    build_baseline_tree,
    build_baseline_trees,
    build_tree,
    build_trees,
    compile_trees,
    read_trees,
    tree_votes,
)

__all__ = [
    "MrfConfig",
    "BaselineConfig",
    "Forest",
    "train_mrf",
    "train_baseline_rf",
    "predict",
    "predict_batch",
    "save_forest",
    "load_forest",
]

FOREST_FORMAT = "mrforest"
FOREST_VERSION = 2

# Spawn-key domain for per-tree rng substreams of the master seed.
_TREE_STREAM = 0

# Rows, counted once per tree that holds them, that one group of trees grown
# together may hold; a tree with more grows alone. A whole forest at once
# would hold every tree's rows and level arrays together (a t=30 forest on
# 14000 x 10 rows peaks at 200 MB, against 50 MB one tree at a time and 56 MB
# in this budget's groups of two), and large groups run slower: t=100 on 1031
# x 9 rows took 0.72-0.76 s at 2^15 rows against 0.84-0.90 s at 2^16.
_GROUP_ROWS = 1 << 15


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_TREE_STREAM, index))
    )


def _groups(t: int, rows: int) -> list[range]:
    """Consecutive tree indices of ``t`` trees of ``rows`` rows each, grown together."""
    size = max(1, _GROUP_ROWS // rows)
    return [range(first, min(first + size, t)) for first in range(0, t, size)]


@dataclass(frozen=True)
class MrfConfig:
    """Hyper-parameters of a multinomial forest.

    ``b1``, ``b2`` and ``b3`` may be ``math.inf``: infinite split budgets give
    greedy selection, infinite ``b3`` gives deterministic leaf labels.
    """

    b1: float = 10.0
    b2: float = 10.0
    b3: float = math.inf
    k: int = 5
    t: int = 100
    partition_rate: float = 1.0
    criterion: str = "gini"
    max_depth: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigError(f"t must be >= 1, got {self.t}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        for name in ("b1", "b2", "b3"):
            value = getattr(self, name)
            if math.isnan(value) or value < 0:
                raise ConfigError(f"{name} must be nonnegative, got {value}")
        if not 0 < self.partition_rate < math.inf:
            raise ConfigError(
                f"partition_rate must be positive and finite, got {self.partition_rate}"
            )
        if self.criterion not in ("gini", "entropy"):
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1 when set")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class BaselineConfig:
    """Hyper-parameters of the greedy bootstrap baseline forest."""

    t: int = 100
    k: int = 5
    mtry: int | None = None
    bootstrap: bool = True
    criterion: str = "gini"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ConfigError(f"t must be >= 1, got {self.t}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.mtry is not None and self.mtry < 1:
            raise ConfigError("mtry must be >= 1 when set")
        if self.criterion not in ("gini", "entropy"):
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(eq=False)
class Forest:
    trees: list[Tree]
    variant: str
    config: MrfConfig | BaselineConfig
    class_count: int
    label_values: tuple[str, ...]
    feature_names: tuple[str, ...]

    @property
    def b3(self) -> float:
        return self.config.b3 if isinstance(self.config, MrfConfig) else math.inf

    @cached_property
    def compiled(self) -> CompiledTrees:
        """The trees in flat arrays, compiled on first use and then kept."""
        return compile_trees(self.trees, self.class_count)

    def to_dict(self) -> dict[str, Any]:
        config = {
            key: ("inf" if isinstance(value, float) and math.isinf(value) else value)
            for key, value in asdict(self.config).items()
        }
        return {
            "format": FOREST_FORMAT,
            "version": FOREST_VERSION,
            "variant": self.variant,
            "config": config,
            "class_count": self.class_count,
            "label_values": list(self.label_values),
            "feature_names": list(self.feature_names),
            "trees": [tree.to_dict() for tree in self.trees],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Forest":
        """Forest of a :meth:`to_dict` or version 1 document; :class:`ParseError` if malformed."""
        if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
            raise ConfigError("not a mrforest model document")
        if doc.get("version") not in (1, FOREST_VERSION):
            raise ConfigError(f"unsupported model version {doc.get('version')!r}")
        try:
            raw = {
                key: (math.inf if value == "inf" else value)
                for key, value in doc["config"].items()
            }
            config_cls = BaselineConfig if doc["variant"] == "breiman" else MrfConfig
            class_count, width = int(doc["class_count"]), len(doc["feature_names"])
            if doc["version"] == FOREST_VERSION:
                trees = read_trees(doc["trees"], class_count, width)
            else:
                trees = [_tree_from_v1(tree, class_count, width) for tree in doc["trees"]]
            forest = cls(
                trees=trees,
                variant=doc["variant"],
                config=config_cls(**raw),
                class_count=class_count,
                label_values=tuple(doc["label_values"]),
                feature_names=tuple(doc["feature_names"]),
            )
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed model document: {exc!r}") from exc
        if len(forest.trees) != forest.config.t or not 2 <= class_count == len(forest.label_values):
            raise ParseError("model's tree or class count disagrees with its config or labels")
        return forest

    @classmethod
    def from_json(cls, text: str | bytes) -> "Forest":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # truncated, not JSON, or not UTF-8
            raise ParseError(f"model is not a JSON document: {exc}") from exc
        return cls.from_dict(doc)


def _tree_from_v1(doc: dict[str, Any], class_count: int, feature_count: int) -> Tree:
    """Tree of a version 1 node list, whose nodes follow their parent in any order.

    A first-in first-out walk renumbers the nodes in level order, the order
    the grower numbers them in, and the columns then pass
    :func:`read_trees`' checks. A leaf ``eta`` that is not exactly its counts
    over their sum raises :class:`ParseError`.
    """
    entries = doc["nodes"]
    size = len(entries)
    order = [0]  # node list index of each node in level order; the walk's queue
    feature, threshold, left = [-1] * size, [0.0] * size, [-1] * size
    node = 0
    # children point forward, so the walk ends; it reaches each node once, and
    # no more than ``size`` nodes, exactly when the nodes form a tree
    while node < len(order) <= size:
        index = order[node]
        entry = entries[index]
        if entry["kind"] == "split":
            if not (index < entry["left"] < size and index < entry["right"] < size):
                raise ParseError(f"node {index}: child index out of order or range")
            if not 0 <= entry["feature"] < feature_count:
                raise ParseError(f"node {index}: feature {entry['feature']} out of range")
            feature[node], threshold[node] = entry["feature"], entry["threshold"]
            left[node] = len(order)
            order += (entry["left"], entry["right"])
        node += 1
    if len(order) != size or len(set(order)) != size:
        raise ParseError("nodes do not form a tree: a node is shared by two splits or orphaned")
    leaves = [entries[i] for i in order if entries[i]["kind"] != "split"]
    counts = [leaf["counts"] for leaf in leaves]
    columns = {"feature": feature, "threshold": threshold, "left": left, "counts": counts}
    tree = Tree.from_dict(columns, class_count, feature_count)
    etas = np.array([leaf["eta"] for leaf in leaves], dtype=np.float64)
    if etas.shape != tree.counts.shape:
        raise ParseError(f"leaf eta does not have {class_count} classes")
    if not np.isfinite(etas).all():
        raise ParseError("leaf eta holds NaN or infinite values")
    if not np.array_equal(etas, _leaf_eta(tree.counts)):
        raise ParseError("leaf eta is not its counts over their sum")
    return tree


def train_mrf(dataset: Dataset, config: MrfConfig) -> Forest:
    """Train a multinomial forest: fresh partition plus one tree per substream."""
    if dataset.n < 2 * config.k:
        raise ConfigError(
            f"need n >= 2k for a leaf-capable partition, got n={dataset.n} k={config.k}"
        )
    trees = []
    for group in _groups(config.t, dataset.n):
        rngs = [_tree_rng(config.seed, index) for index in group]
        parts = [partition(dataset, config.partition_rate, rng) for rng in rngs]
        splits = [(part.structure_idx, part.estimation_idx) for part in parts]
        if len(group) == 1:
            # the one-tree call, which perfbench's tracer times tree by tree
            trees.append(build_tree(dataset, *splits[0], config, rngs[0]))
        else:
            trees += build_trees(dataset, splits, config, rngs)
    variant = "completely_random" if config.b1 == 0 and config.b2 == 0 else "mrf"
    return Forest(
        trees=trees,
        variant=variant,
        config=config,
        class_count=dataset.class_count,
        label_values=dataset.label_values,
        feature_names=dataset.feature_names,
    )


def train_baseline_rf(dataset: Dataset, config: BaselineConfig) -> Forest:
    """Train the greedy baseline: bootstrap rows, sqrt-D feature draws per node."""
    feature_count = dataset.feature_count
    mtry = config.mtry if config.mtry is not None else max(1, int(math.isqrt(feature_count)))
    if mtry > feature_count:
        raise ConfigError(f"mtry={mtry} exceeds feature count {feature_count}")
    trees = []
    for group in _groups(config.t, dataset.n):
        rngs = [_tree_rng(config.seed, index) for index in group]
        rows = np.concatenate([
            rng.integers(0, dataset.n, size=dataset.n) if config.bootstrap else np.arange(dataset.n)
            for rng in rngs
        ])
        x, y = dataset.features[rows], dataset.labels[rows]
        args = (dataset.class_count, config.k, mtry, config.criterion)
        if len(group) == 1:
            # the one-tree call, which perfbench's tracer times tree by tree
            trees.append(build_baseline_tree(x, y, *args, rngs[0]))
        else:
            trees += build_baseline_trees(x, y, [dataset.n] * len(group), *args, rngs)
    return Forest(
        trees=trees,
        variant="breiman",
        config=config,
        class_count=dataset.class_count,
        label_values=dataset.label_values,
        feature_names=dataset.feature_names,
    )


def predict_batch(
    forest: Forest, rows: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Classes and the (t, n) per-tree vote matrix for a batch of rows.

    Rows need one finite value per feature of the forest; a wrong width
    raises :class:`SchemaError` and NaN or inf raises :class:`ParseError`.
    Finite-b3 votes draw one uniform each, tree by tree in row order, so a
    single-row batch consumes the rng identically to :func:`predict`.
    Ensemble ties break toward the lowest class index.
    """
    x = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != len(forest.feature_names):
        raise SchemaError(
            f"model expects rows of {len(forest.feature_names)} features, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ParseError("rows contain NaN or infinite values")
    b3 = forest.b3
    if not math.isinf(b3) and rng is None:
        raise ConfigError("finite b3 prediction requires an rng")
    n = x.shape[0]
    votes = tree_votes(forest.compiled, x, b3, rng)
    tallies = np.bincount(
        (votes * n + np.arange(n)).ravel(), minlength=forest.class_count * n
    ).reshape(forest.class_count, n)
    return np.argmax(tallies, axis=0), votes


def predict(
    forest: Forest, x: np.ndarray, rng: np.random.Generator | None = None
) -> int:
    """Majority vote over all trees for one row, given 1-D or shaped (1, D).

    Any other shape raises :class:`SchemaError`; :func:`predict_batch`
    takes many rows.
    """
    shape = np.shape(x)
    if len(shape) != 1 and (len(shape) != 2 or shape[0] != 1):
        raise SchemaError(f"predict takes one row, got shape {shape}")
    classes, _ = predict_batch(forest, x, rng)
    return int(classes[0])


def save_forest(forest: Forest, path: str | Path) -> None:
    Path(path).write_text(forest.to_json(), encoding="utf-8")


def load_forest(path: str | Path) -> Forest:
    return Forest.from_json(Path(path).read_bytes())
