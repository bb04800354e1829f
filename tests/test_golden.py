"""Golden values of seeded outputs: model bytes and cross-validation accuracies.

Each forest's ``to_json()`` is pinned by its sha256, and one seeded
``run_cv`` and one ``sweep`` by their accuracies. A change that alters what
a seed produces on purpose updates these values and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from conftest import random_dataset
from mrforest.forest import BaselineConfig, MrfConfig, train_baseline_rf, train_mrf
from mrforest.harness import run_cv, sweep

INF = math.inf


def _dataset(n: int, features: int, classes: int):
    return random_dataset(np.random.default_rng(1000 * classes + n), n, features, classes)


# name -> (rows, features, classes, config)
FORESTS = {
    "mrf_defaults": (400, 4, 2, MrfConfig()),
    "completely_random": (150, 3, 2, MrfConfig(t=8, b1=0.0, b2=0.0, seed=2)),
    "greedy_entropy_depth_4": (
        150, 3, 2, MrfConfig(t=8, b1=INF, b2=INF, k=1, criterion="entropy", max_depth=4, seed=3)
    ),
    "finite_b3": (150, 3, 2, MrfConfig(t=8, b3=2.0, seed=4)),
    "baseline_bootstrap": (150, 3, 2, BaselineConfig(t=8, seed=5)),
    "baseline_no_bootstrap": (150, 3, 2, BaselineConfig(t=8, bootstrap=False, seed=6)),
    "k3_rate_half": (200, 5, 3, MrfConfig(t=8, k=3, b1=5.0, b2=1.0, partition_rate=0.5, seed=7)),
    "k4_mrf": (240, 6, 4, MrfConfig(t=8, seed=8)),
    "k4_baseline_mtry_3": (240, 6, 4, BaselineConfig(t=8, mtry=3, criterion="entropy", seed=9)),
}

FOREST_SHA256 = {
    "mrf_defaults": "896db89794095d1576704ad7a278aa671b786b3b3da76785a7dd31ac281a69af",
    "completely_random": "082b4077aebc1353cdb4cc6cd3024ee9cfcd7daf5bee73c4df73c52ac7d618ae",
    "greedy_entropy_depth_4": "b61d3261c6fa0c3736a9f1b5d9b38833b3aad1616423c1e1df3be8445c25c3e8",
    "finite_b3": "182f116ed55ccdd932238cc48956cea516926e8a6ff66db40d15865f07c5e8ff",
    "baseline_bootstrap": "91958944ae8fac894572174d83c2e9a51c4c7f23c165ba22edea07838f3a8df0",
    "baseline_no_bootstrap": "b6c0738795f6117297994c430f18ac3cca0b6a8c3c73786c1298927f7264d89e",
    "k3_rate_half": "0bf41e3ae90fcffb37bb0f324119327b72ce8684bcc79b96dfb144914761cb17",
    "k4_mrf": "49eadf881b0c9700597913cb25d14d2ad716ea4a59e95d418676070d089db853",
    "k4_baseline_mtry_3": "996f6f73f9c6d137d3424b9aa2fe8955597cb1bce2b842be74aa55a2924aef29",
}

CV_CONFIG = MrfConfig(t=4, k=3, b3=2.0, seed=11)
CV_ACCURACIES = (
    0.5, 0.3333333333333333, 0.5666666666666667, 0.6, 0.5333333333333333, 0.4666666666666667,
)

SWEEP_CONFIG = MrfConfig(t=3, k=3, seed=12)
SWEEP_CELLS = (  # (b1, b2, mean_acc, std)
    (0.0, 1.0, 0.7245963912630579, 0.07917631280947657),
    (0.0, INF, 0.8000949667616334, 0.05594380613614966),
    (5.0, 1.0, 0.7991452991452991, 0.08119658119658119),
    (5.0, INF, 0.8632478632478632, 0.0550233843755783),
)


def _train(rows: int, features: int, classes: int, config):
    dataset = _dataset(rows, features, classes)
    train = train_baseline_rf if isinstance(config, BaselineConfig) else train_mrf
    return train(dataset, config)


@pytest.mark.parametrize("name", sorted(FORESTS))
def test_model_bytes(name):
    text = _train(*FORESTS[name]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == FOREST_SHA256[name]


def test_run_cv_accuracies():
    report = run_cv(_dataset(90, 3, 3), "mrf", CV_CONFIG, folds=3, repeats=2)
    assert report.accuracies == CV_ACCURACIES


def test_sweep_cells():
    report = sweep(_dataset(80, 3, 2), [0.0, 5.0], [1.0, INF], SWEEP_CONFIG, folds=3, repeats=1)
    assert tuple((c["b1"], c["b2"], c["mean_acc"], c["std"]) for c in report.cells) == SWEEP_CELLS
