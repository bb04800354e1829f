"""Shared fixtures and generators for the mrforest test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from mrforest.data import Dataset
from mrforest.splitsel import Laws

UCI_FILES = {
    "banknote": "banknote.csv",
    "transfusion": "transfusion.csv",
    "car": "car.csv",
    "cmc": "cmc.csv",
}


def uci_dir() -> Path:
    return Path(os.environ.get("MRF_UCI_DIR", Path(__file__).resolve().parent.parent / "data" / "uci"))


def uci_path(name: str) -> Path:
    return uci_dir() / UCI_FILES[name]


def require_uci(*names: str) -> None:
    missing = [n for n in names if not uci_path(n).exists()]
    if missing:
        pytest.skip(
            f"UCI CSVs not found: {', '.join(UCI_FILES[n] for n in missing)} under {uci_dir()} "
            "(run scripts/fetch_uci.py or set MRF_UCI_DIR)"
        )


def random_dataset(
    rng: np.random.Generator,
    n: int,
    n_features: int,
    n_classes: int = 2,
    informative: bool = True,
) -> Dataset:
    """Random continuous dataset; labels follow feature 0 when informative."""
    features = rng.normal(size=(n, n_features))
    if informative:
        noisy = features[:, 0] + 0.5 * rng.normal(size=n)
        edges = np.quantile(noisy, np.linspace(0, 1, n_classes + 1)[1:-1])
        labels = np.searchsorted(edges, noisy)
    else:
        labels = rng.integers(0, n_classes, size=n)
    if np.unique(labels).size < 2:
        labels[0] = (labels[0] + 1) % n_classes
    return Dataset(
        features=features,
        labels=labels,
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        class_count=n_classes,
    )


def same_plan(a: list[list[np.ndarray]], b: list[list[np.ndarray]]) -> bool:
    """Whether two fold plans hold the same test folds, in the same order."""
    return [len(repeat) for repeat in a] == [len(repeat) for repeat in b] and all(
        np.array_equal(fold_a, fold_b)
        for repeat_a, repeat_b in zip(a, b)
        for fold_a, fold_b in zip(repeat_a, repeat_b)
    )


def one_law(cdf: np.ndarray) -> Laws:
    """The cumulative law ``cdf`` as the only law of a :class:`Laws`."""
    return Laws(np.asarray(cdf, dtype=np.float64), np.array([0]), np.array([len(cdf)]))


def law_at(laws: Laws, index: int) -> np.ndarray:
    """The cumulative probabilities of law ``index`` of ``laws``."""
    return laws.cdf[laws.start[index] : laws.start[index] + laws.size[index]]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
