"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1 and 9 replay published benchmark numbers and therefore need the
UCI CSVs (user-supplied; see scripts/fetch_uci.py and README). They skip
with instructions when the files are absent; everything else is
self-contained.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from conftest import random_dataset, require_uci, uci_path
from mrforest.data import Dataset, load_dataset, partition
from mrforest.forest import MrfConfig, predict_batch, train_mrf, Forest
from mrforest.harness import run_cv, sweep
from mrforest.impurity import ClassCounts
from mrforest.privacy import (
    allocate_budget,
    audit_feature_mechanism,
    audit_label_mechanism,
    audit_value_mechanism,
    compose_budget,
    enumerate_neighbors,
)
from mrforest.splitsel import select_feature, softmax_scaled
from mrforest.tree import build_tree
from oracle import (
    TieError,
    exhaustive_cart,
    feature_probability_bounds,
    inverse_cdf_draws,
    normalize,
    tree_shape,
)

JOBS = min(8, os.cpu_count() or 1)


def _announce(number: int, description: str) -> None:
    print(f"\n[ACCEPTANCE] criterion {number}: PASS - {description}", flush=True)


# --------------------------------------------------------------------------
# Criterion 1: published-benchmark reproduction at default hyper-parameters
# --------------------------------------------------------------------------

UCI_TARGETS = {  # mean accuracy (%), 10x10-fold CV
    "banknote": 99.49,
    "transfusion": 78.53,
    "car": 96.30,
    "cmc": 56.12,
}
UCI_TOLERANCE_PP = 2.0


@pytest.mark.parametrize("name", sorted(UCI_TARGETS))
def test_criterion_1_uci_reproduction(name):
    require_uci(name)
    dataset = load_dataset(uci_path(name))
    config = MrfConfig(seed=2024)  # t=100, k=5, rate 1, b1=b2=10, b3=inf, gini
    start = time.perf_counter()
    report = run_cv(dataset, "mrf", config, folds=10, repeats=10, name=name, n_jobs=JOBS)
    elapsed = time.perf_counter() - start
    mean_pct = 100.0 * report.mean
    target = UCI_TARGETS[name]
    print(
        f"\n[ACCEPTANCE] criterion 1 [{name}]: mean={mean_pct:.2f}% target={target}%"
        f" (+-{UCI_TOLERANCE_PP}pp), wall={elapsed:.0f}s",
        flush=True,
    )
    assert abs(mean_pct - target) <= UCI_TOLERANCE_PP
    _announce(1, f"{name} mean accuracy {mean_pct:.2f}% within {UCI_TOLERANCE_PP}pp of {target}%")


# --------------------------------------------------------------------------
# Criterion 2: greedy limit reproduces an independent exhaustive-CART oracle
# --------------------------------------------------------------------------


def test_criterion_2_greedy_limit_oracle_equivalence():
    matched = 0
    draws = 0
    seed = 0
    while matched < 50:
        seed += 1
        draws += 1
        assert draws < 500, "tie-free dataset generation stalled"
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 257))
        d = int(rng.integers(1, 7))
        dataset = random_dataset(rng, n, d, n_classes=int(rng.integers(2, 4)))
        k = int(rng.integers(int(0.12 * n), int(0.2 * n)))
        part = partition(dataset, 1.0, np.random.default_rng(seed))
        try:
            expected = exhaustive_cart(
                dataset.features[part.structure_idx],
                dataset.labels[part.structure_idx],
                dataset.features[part.estimation_idx],
                dataset.labels[part.estimation_idx],
                k,
                dataset.class_count,
            )
        except TieError:
            continue
        config = MrfConfig(t=1, k=k, b1=math.inf, b2=math.inf, seed=seed)
        tree = build_tree(
            dataset, part.structure_idx, part.estimation_idx, config, np.random.default_rng(7)
        )
        assert tree_shape(tree.root) == expected, f"structural mismatch on dataset seed {seed}"
        matched += 1
    _announce(2, f"50 greedy-limit trees matched the brute-force oracle ({draws} draws)")


# --------------------------------------------------------------------------
# Criterion 3: the zero-budget limit selects features uniformly
# --------------------------------------------------------------------------


def test_criterion_3_completely_random_uniform_selection():
    rng = np.random.default_rng(33)
    dataset = random_dataset(rng, 200, 5)
    # root candidate scores from a real dataset; mechanism sampled 10^4 times
    from mrforest.privacy import _feature_scores, _sorted_scan

    scores = _feature_scores(*_sorted_scan(dataset.features, dataset.labels, 2, "gini"))
    cdf = np.cumsum(softmax_scaled(normalize(scores), 0.0))
    draws = select_feature(cdf[None], rng.random((1, 10_000)), np.array([4]))[0]
    counts = np.bincount(draws, minlength=5)
    pvalue = scipy.stats.chisquare(counts).pvalue
    assert pvalue > 0.001

    # end to end: root features of a 1000-tree zero-budget forest
    small = random_dataset(np.random.default_rng(5), 40, 3)
    forest = train_mrf(small, MrfConfig(t=1000, k=5, b1=0.0, b2=0.0, seed=9))
    roots = [t.root.feature for t in forest.trees if not t.root.is_leaf]
    root_counts = np.bincount(roots, minlength=3)
    root_p = scipy.stats.chisquare(root_counts).pvalue
    assert root_p > 0.001
    _announce(
        3,
        f"uniform feature choice at b1=0 (chi-square p={pvalue:.3f} mechanism, "
        f"p={root_p:.3f} over {len(roots)} tree roots)",
    )


# --------------------------------------------------------------------------
# Criterion 4: selection frequencies respect the closed-form envelope
# --------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("b1", [0.0, 1.0, 10.0])
def test_criterion_4_selection_probability_envelope(d, b1):
    rng = np.random.default_rng(int(10 * b1) * 100 + d)
    fixed_vectors = [
        rng.uniform(0.0, 0.6, size=d),
        np.eye(d)[0],  # extreme: one dominant feature
    ]
    lower, upper = feature_probability_bounds(d, b1)
    n_draws = 100_000
    sigma_low = math.sqrt(lower * (1 - lower) / n_draws)
    sigma_up = math.sqrt(upper * (1 - upper) / n_draws)
    for scores in fixed_vectors:
        probs = softmax_scaled(normalize(scores), b1)
        draws = inverse_cdf_draws(probs, rng.random(n_draws))
        freqs = np.bincount(draws, minlength=d) / n_draws
        assert (freqs >= lower - 3 * sigma_low - 1e-12).all()
        assert (freqs <= upper + 3 * sigma_up + 1e-12).all()
    _announce(4, f"D={d}, b1={b1}: all empirical frequencies inside [P1, upper] +- 3 sigma")


@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("b1", [0.0, 1.0, 10.0])
def test_criterion_4_exact_law_inside_tight_envelope(d, b1):
    # the mechanism weighs exp(b1/2 * x) with x in [0, 1], so no feature's
    # probability leaves [1/(1 + (D-1)e^(b1/2)), e^(b1/2)/(e^(b1/2) + D-1)];
    # the envelope above is the same bounds at 2*b1, twice as wide in the exponent
    rng = np.random.default_rng(int(10 * b1) * 100 + d)
    half = math.exp(b1 / 2)
    lower, upper = 1 / (1 + (d - 1) * half), half / (half + d - 1)
    dominant, dominated = np.eye(d)[0], 1 - np.eye(d)[0]
    for scores in [*rng.uniform(0.0, 0.6, size=(20, d)), dominant, dominated]:
        probs = softmax_scaled(normalize(scores), b1)
        assert (probs >= lower * (1 - 1e-12)).all()
        assert (probs <= upper * (1 + 1e-12)).all()
    # a feature alone at the top attains the upper bound, alone at the bottom the lower
    assert softmax_scaled(normalize(dominant), b1)[0] == pytest.approx(upper, rel=1e-12)
    assert softmax_scaled(normalize(dominated), b1)[0] == pytest.approx(lower, rel=1e-12)
    _announce(4, f"D={d}, b1={b1}: exact law inside the tight envelope, both bounds attained")


# --------------------------------------------------------------------------
# Criterion 5: exhaustive privacy audits on 1000 fuzzed micro-datasets
# --------------------------------------------------------------------------


def test_criterion_5_privacy_audits_fuzz():
    budgets = (0.0, 0.1, 1.0, 5.0)
    slowest = 0.0
    audits = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k_classes = int(rng.integers(2, 4))
        micro = random_dataset(rng, n, d, n_classes=k_classes, informative=False)
        neighborhood = enumerate_neighbors(micro)
        counts = ClassCounts.from_labels(micro.labels, k_classes)
        auditable_value = np.unique(micro.features[:, 0]).size > 1
        for budget in budgets:
            bound = math.exp(budget) * (1 + 1e-9)
            start = time.perf_counter()
            feature_report = audit_feature_mechanism(micro, budget, neighborhood=neighborhood)
            slowest = max(slowest, time.perf_counter() - start)
            assert feature_report.worst_ratio <= bound
            audits += 1
            if auditable_value:
                start = time.perf_counter()
                value_report = audit_value_mechanism(micro, 0, budget, neighborhood=neighborhood)
                slowest = max(slowest, time.perf_counter() - start)
                assert value_report.worst_ratio <= bound
                audits += 1
            start = time.perf_counter()
            label_report = audit_label_mechanism(counts, budget)
            slowest = max(slowest, time.perf_counter() - start)
            assert label_report.worst_ratio <= bound
            audits += 1
    assert slowest < 1.0, f"slowest audit took {slowest:.3f}s"
    _announce(5, f"{audits} audits on 1000 micro-datasets all within e^B (slowest {slowest*1000:.0f}ms)")


# --------------------------------------------------------------------------
# Criterion 6: budget allocation round-trips and matches the published rows
# --------------------------------------------------------------------------


def test_criterion_6_budget_round_trip_and_published_rows():
    rng = np.random.default_rng(6)
    for _ in range(100):
        epsilon = float(rng.uniform(0.01, 40.0))
        t = int(rng.integers(1, 150))
        estimation = int(rng.integers(1, 4000))
        k = int(rng.integers(1, 40))
        split = float(rng.uniform(0.1, 0.9))
        budget = allocate_budget(epsilon, t, estimation, k, split)
        back = compose_budget(budget.b1 + budget.b2, budget.d, budget.b3, budget.t)
        assert abs(back - epsilon) <= 1e-9

    # published per-tree rows at d=10 with an even split
    row1 = allocate_budget(1.0, 1, 50, 5, split=0.5)
    assert (row1.d, row1.b3) == (10, 1.0)
    assert row1.b1 == 0.05 and row1.b2 == 0.05
    row4 = allocate_budget(20.0, 1, 50, 5, split=0.5)
    assert (row4.d, row4.b3) == (10, 20.0)
    assert row4.b1 == 1.0 and row4.b2 == 1.0
    _announce(6, "100 allocate/compose round trips within 1e-9; published budget rows exact")


# --------------------------------------------------------------------------
# Criterion 7: risk decreases with n on a known-Bayes-risk distribution
# --------------------------------------------------------------------------


def test_criterion_7_consistency_trend():
    dims = 4
    distance = 2 * 1.2815515655446004  # Phi(-distance/2) = 10% Bayes error
    shift = distance / math.sqrt(dims)  # oblique boundary: diagonal mean offset

    def draw(rng, n):
        labels = rng.integers(0, 2, size=n)
        feats = rng.normal(size=(n, dims)) + shift * labels[:, None]
        return feats, labels

    errors = {512: [], 16384: []}
    for seed in range(10):
        for n in (512, 16384):
            rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(seed, n)))
            features, labels = draw(rng, n)
            dataset = Dataset(features, labels, tuple(f"x{i}" for i in range(dims)), 2)
            k = math.ceil(math.sqrt(n))
            forest = train_mrf(dataset, MrfConfig(t=20, k=k, seed=seed))
            test_x, test_y = draw(rng, 4096)
            classes, _ = predict_batch(forest, test_x)
            errors[n].append(1.0 - float(np.mean(classes == test_y)))
    small_n = float(np.mean(errors[512]))
    large_n = float(np.mean(errors[16384]))
    improvement_pp = 100.0 * (small_n - large_n)
    assert improvement_pp >= 1.0, f"only {improvement_pp:.2f}pp improvement"
    _announce(
        7,
        f"test error {small_n:.3f} (n=512) -> {large_n:.3f} (n=16384), "
        f"{improvement_pp:.1f}pp drop toward the 10% Bayes risk",
    )


# --------------------------------------------------------------------------
# Criterion 8: structural invariants as generated-case property suites
# --------------------------------------------------------------------------


def _case_rng(tag: int, case: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(88, spawn_key=(tag, case)))


def test_criterion_8a_leaf_occupancy():
    for case in range(100):
        rng = _case_rng(0, case)
        n = int(rng.integers(24, 120))
        k = int(rng.integers(1, 8))
        dataset = random_dataset(rng, n, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        b = float(rng.choice([0.0, 2.0, 10.0, math.inf]))
        config = MrfConfig(t=1, k=k, b1=b, b2=b, seed=case)
        part = partition(dataset, 1.0, rng)
        tree = build_tree(dataset, part.structure_idx, part.estimation_idx, config, rng)
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.counts.sum() >= min(k, part.estimation_idx.size)
            else:
                stack.extend([node.left, node.right])
    _announce(8, "leaf occupancy >= k over 100 generated trees")


def test_criterion_8b_vote_conservation_and_majority():
    for case in range(100):
        rng = _case_rng(1, case)
        n = int(rng.integers(20, 70))
        t = int(rng.integers(1, 6))
        dataset = random_dataset(rng, n, 2, int(rng.integers(2, 4)))
        forest = train_mrf(dataset, MrfConfig(t=t, k=2, seed=case))
        classes, votes = predict_batch(forest, dataset.features)
        assert votes.shape == (t, n)
        for col in range(n):
            tallies = np.bincount(votes[:, col], minlength=dataset.class_count)
            assert tallies.sum() == t
            assert classes[col] == int(np.argmax(tallies))
    _announce(8, "vote conservation and majority correctness over 100 generated forests")


def test_criterion_8c_partition_disjointness():
    for case in range(100):
        rng = _case_rng(2, case)
        n = int(rng.integers(2, 400))
        rate = float(rng.uniform(0.2, 4.0))
        dataset = random_dataset(rng, n, 1)
        try:
            part = partition(dataset, rate, rng)
        except Exception:
            continue  # degenerate sizes raise SizeError; covered elsewhere
        merged = np.concatenate([part.structure_idx, part.estimation_idx])
        assert np.array_equal(np.sort(merged), np.arange(n))
        assert np.intersect1d(part.structure_idx, part.estimation_idx).size == 0
    _announce(8, "partition disjointness and coverage over 100 generated partitions")


def test_criterion_8d_determinism():
    for case in range(100):
        rng = _case_rng(3, case)
        n = int(rng.integers(20, 60))
        dataset = random_dataset(rng, n, 2)
        config = MrfConfig(t=2, k=2, b3=float(rng.choice([2.0, math.inf])), seed=case)
        a = train_mrf(dataset, config)
        b = train_mrf(dataset, config)
        assert a.to_json() == b.to_json()
    _announce(8, "seeded determinism (byte-equal serializations) over 100 forest pairs")


def test_criterion_8e_serialization_round_trip():
    for case in range(100):
        rng = _case_rng(4, case)
        n = int(rng.integers(20, 60))
        dataset = random_dataset(rng, n, 2, int(rng.integers(2, 4)))
        forest = train_mrf(dataset, MrfConfig(t=2, k=2, seed=case))
        clone = Forest.from_json(forest.to_json())
        assert clone.to_json() == forest.to_json()
        a, _ = predict_batch(forest, dataset.features)
        b, _ = predict_batch(clone, dataset.features)
        assert np.array_equal(a, b)
    _announce(8, "serialization round trip preserves bytes and predictions, 100 forests")


# --------------------------------------------------------------------------
# Criterion 9: value-budget direction on the published medium dataset
# --------------------------------------------------------------------------


def test_criterion_9_value_budget_trend_on_cmc():
    require_uci("cmc")
    dataset = load_dataset(uci_path("cmc"))
    config = MrfConfig(t=100, k=5, b1=0.0, seed=11)
    report = sweep(
        dataset, [0.0], [0.0, 10.0], config, folds=5, repeats=5, name="cmc", n_jobs=JOBS
    )
    means = {(cell["b1"], cell["b2"]): cell["mean_acc"] for cell in report.cells}
    low, high = means[(0.0, 0.0)], means[(0.0, 10.0)]
    print(f"\n[ACCEPTANCE] criterion 9: mean acc b2=0: {low:.4f}, b2=10: {high:.4f}", flush=True)
    assert high > low
    _announce(9, f"informed value selection beats uniform on cmc ({high:.4f} > {low:.4f})")
