"""Forest training, majority-vote prediction, and model serialization.

Three variants share one prediction path: the multinomial forest, its
B1 = B2 = 0 completely-random limit, and a greedy bootstrap baseline whose
trees vote their majority class. Each tree draws its partition or bootstrap
rows, and then its splits' uniforms, from its own counter-derived substream
of the master seed. Trees grow in groups, a level at a time (see
:mod:`mrforest.tree`): consecutive trees whose rows together fit
``_GROUP_ROWS`` grow together, and a tree with more rows grows alone. A tree
reads the same uniforms whatever trees it grows with, and draws from the same
feature laws; only its value laws, built in one batch with theirs, agree with
its own up to rounding, so a value draw could differ only where a uniform
falls within that rounding of a law's step: training is reproducible however
trees are grouped.

:attr:`Forest.trees` is one :class:`~mrforest.tree.Trees`, and what prediction
derives from it is kept on it, so ``dataclasses.replace`` copies with another
config share that too. :func:`predict_batch` rejects rows of the wrong width
or with NaN or inf, then runs all trees at once. A model document (version
3) stores each tree's columns, in level order, and nothing they determine;
it is checked as it loads, all trees' columns at once as whole arrays, and
so are the JSON types of its config and of its other fields (an int class
count, lists of strings for names) and the variant its config implies. Other
versions, such as the version 1 node lists and version 2 child columns of
earlier releases, are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from .data import Dataset, partition
from .errors import ConfigError, ParseError, SchemaError
from .tree import (
    Trees,
    build_baseline_tree,
    build_baseline_trees,
    build_tree,
    build_trees,
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
FOREST_VERSION = 3

# Spawn-key domain for per-tree rng substreams of the master seed.
_TREE_STREAM = 0

# Rows, counted once per tree that holds them, that one group of trees grown
# together may hold; a tree with more grows alone. A whole forest at once
# would hold every tree's rows and level arrays together (a t=30 forest on
# 14000 x 10 rows peaks at 200 MB, against 50 MB one tree at a time and 56 MB
# in this budget's groups of two), and large groups run slower: t=100 on 1031
# x 9 rows took 0.72-0.76 s at 2^15 rows against 0.84-0.90 s at 2^16.
_GROUP_ROWS = 1 << 15

# The JSON types that Forest.to_dict writes for each type of config field
_JSON_TYPES = {"bool": (bool,), "float": (float, int), "int": (int,), "str": (str,)}
_JSON_TYPES["int | None"] = (int, type(None))


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
    trees: Trees
    config: MrfConfig | BaselineConfig
    class_count: int
    label_values: tuple[str, ...]
    feature_names: tuple[str, ...]

    @property
    def b3(self) -> float:
        return self.config.b3 if isinstance(self.config, MrfConfig) else math.inf

    @property
    def variant(self) -> str:
        """``breiman`` for the baseline, ``completely_random`` at b1 = b2 = 0, else ``mrf``."""
        if isinstance(self.config, BaselineConfig):
            return "breiman"
        return "completely_random" if self.config.b1 == self.config.b2 == 0 else "mrf"

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
            "trees": self.trees.to_docs(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Forest":
        """Forest of a :meth:`to_dict` document; :class:`ParseError` if malformed."""
        if not isinstance(doc, dict) or doc.get("format") != FOREST_FORMAT:
            raise ConfigError("not a mrforest model document")
        if doc.get("version") != FOREST_VERSION:
            raise ConfigError(f"unsupported model version {doc.get('version')!r}")
        try:
            # a config that its class refuses is a corrupt model, not a configuration error
            config_cls = BaselineConfig if doc.get("variant") == "breiman" else MrfConfig
            config = config_cls(**{
                key: (math.inf if value == "inf" else value)
                for key, value in doc["config"].items()
            })
        except (ConfigError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"invalid model config: {exc}") from exc
        for field in fields(config):
            if type(getattr(config, field.name)) not in _JSON_TYPES[field.type]:
                raise ParseError(f"invalid model config: {field.name} is not of type {field.type}")
        class_count, labels, names = map(doc.get, ("class_count", "label_values", "feature_names"))
        texts = all(type(v) is list and all(type(s) is str for s in v) for v in (labels, names))
        if type(class_count) is not int or not texts:
            raise ParseError("a model's class_count must be an int, and its names lists of strings")
        try:
            forest = cls(
                trees=read_trees(doc["trees"], class_count, len(names)),
                config=config,
                class_count=class_count,
                label_values=tuple(labels),
                feature_names=tuple(names),
            )
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed model document: {exc!r}") from exc
        if len(forest.trees) != forest.config.t or not 2 <= class_count == len(forest.label_values):
            raise ParseError("model's tree or class count disagrees with its config or labels")
        if doc.get("variant") != forest.variant:
            raise ParseError(f"{doc.get('variant')!r} is not the variant of the model's config")
        return forest

    @classmethod
    def from_json(cls, text: str | bytes) -> "Forest":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # truncated, not JSON, or not UTF-8
            raise ParseError(f"model is not a JSON document: {exc}") from exc
        return cls.from_dict(doc)


def train_mrf(dataset: Dataset, config: MrfConfig) -> Forest:
    """Train a multinomial forest: fresh partition plus one tree per substream."""
    if dataset.n < 2 * config.k:
        raise ConfigError(
            f"need n >= 2k for a leaf-capable partition, got n={dataset.n} k={config.k}"
        )
    groups = []
    for group in _groups(config.t, dataset.n):
        rngs = [_tree_rng(config.seed, index) for index in group]
        parts = [partition(dataset, config.partition_rate, rng) for rng in rngs]
        if len(group) == 1:
            # the one-tree call, which perfbench's tracer times tree by tree
            groups.append(build_tree(dataset, *parts[0], config, rngs[0]))
        else:
            groups.append(build_trees(dataset, parts, config, rngs))
    return Forest(
        trees=Trees.concatenate(groups),
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
    groups = []
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
            groups.append(build_baseline_tree(x, y, *args, rngs[0]))
        else:
            groups.append(build_baseline_trees(x, y, [dataset.n] * len(group), *args, rngs))
    return Forest(
        trees=Trees.concatenate(groups),
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
    votes = tree_votes(forest.trees, x, b3, rng)
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
