"""Impurity criteria and candidate-split enumeration through ``scan_features``,
checked against naive recomputation oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrforest.impurity
from mrforest.errors import MismatchError
from mrforest.impurity import ClassCounts, cut_points, scan_features
from oracle import impurity_of, naive_decrease, reference_scan_features


def scan_one(values, labels, class_count, criterion="gini"):
    """(threshold, decrease) of every valid cut of one feature, in sorted order."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    valid, thresholds = cut_points(values[order][None, :])
    decreases = scan_features(labels[order][None, :], class_count, criterion)
    take = np.flatnonzero(valid[0])
    return [(float(thresholds[0, i]), float(decreases[0, i])) for i in take]


def cut_decrease(left, right, criterion="gini"):
    """Decrease of the one cut between a node's left rows (value 0) and right rows (value 1)."""
    left, right = np.asarray(left), np.asarray(right)
    classes = np.arange(left.size)
    labels = np.concatenate([np.repeat(classes, left), np.repeat(classes, right)])
    values = np.repeat([0.0, 1.0], [left.sum(), right.sum()])
    [(_, decrease)] = scan_one(values, labels, left.size, criterion)
    return decrease


def node_impurity(a, b, criterion="gini"):
    """Impurity of a node with ``a`` rows of class 0 and ``b`` of class 1.

    The rows sit at distinct values in class order, so the cut after the last
    class-0 row (or any cut of a pure node) leaves pure children and
    decreases the node's impurity by all of it.
    """
    cuts = scan_one(np.arange(a + b), np.repeat([0, 1], [a, b]), 2, criterion)
    return cuts[a - 1 if a and b else 0][1]


class TestImpurity:
    def test_pure_node_gini_zero(self):
        assert node_impurity(7, 0, "gini") == 0.0

    def test_balanced_gini(self):
        assert node_impurity(5, 5, "gini") == pytest.approx(0.5)

    def test_two_one_gini(self):
        assert node_impurity(2, 1, "gini") == pytest.approx(4.0 / 9.0)

    def test_entropy_balanced_is_one_bit(self):
        assert node_impurity(5, 5, "entropy") == pytest.approx(1.0)

    def test_entropy_pure_zero(self):
        assert node_impurity(4, 0, "entropy") == 0.0

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=6).filter(lambda c: sum(c) > 0))
    def test_ranges(self, raw):
        # every cut of a node lowers impurity by at most the node's own impurity,
        # which lies in [0, 1] (gini) or [0, log2 K] (entropy)
        labels = np.repeat(np.arange(len(raw)), raw)
        for criterion, top in (("gini", 1.0), ("entropy", np.log2(len(raw)))):
            parent = impurity_of(labels, len(raw), criterion)
            assert -1e-12 <= parent <= top + 1e-12
            for _, decrease in scan_one(labels, labels, len(raw), criterion):
                assert 0.0 <= decrease <= parent + 1e-12


class TestImpurityDecrease:
    def test_perfect_split(self):
        assert cut_decrease([2, 0], [0, 2]) == pytest.approx(0.5)

    def test_uninformative_split(self):
        assert cut_decrease([1, 1], [1, 1]) == pytest.approx(0.0)

    def test_hand_worked_value(self):
        value = cut_decrease([2, 1], [1, 0])
        assert value == pytest.approx(0.375 - 0.75 * (4.0 / 9.0))

    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=4),
        st.lists(st.integers(0, 30), min_size=2, max_size=4),
        st.sampled_from(["gini", "entropy"]),
    )
    @settings(max_examples=500)
    def test_nonnegative_by_concavity(self, left_raw, right_raw, criterion):
        if len(left_raw) != len(right_raw):
            return
        if sum(left_raw) == 0 or sum(right_raw) == 0:
            return
        assert cut_decrease(left_raw, right_raw, criterion) >= -1e-12

    def test_nonnegative_over_ten_thousand_random_triples(self):
        rng = np.random.default_rng(123)
        for i in range(10_000):
            k = int(rng.integers(2, 5))
            left = rng.integers(0, 20, size=k)
            right = rng.integers(0, 20, size=k)
            if left.sum() == 0 or right.sum() == 0:
                continue
            criterion = "gini" if i % 2 == 0 else "entropy"
            assert cut_decrease(left, right, criterion) >= -1e-12


class TestClassCounts:
    def test_negative_or_ragged_counts_raise(self):
        with pytest.raises(MismatchError):
            ClassCounts(np.array([3, -1]))
        with pytest.raises(MismatchError):
            ClassCounts(np.array([[1, 2]]))


def _naive_candidates(values, labels, class_count, criterion):
    """Brute-force oracle: recount both sides from scratch per threshold."""
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels)
    distinct = np.unique(values)
    thresholds = (distinct[:-1] + distinct[1:]) / 2.0
    return [
        (thr, naive_decrease(values, labels, thr, class_count, criterion)) for thr in thresholds
    ]


class TestCandidateSplits:
    def test_constant_feature_empty(self):
        assert scan_one([1.0, 1.0, 1.0], [0, 1, 0], 2) == []

    def test_two_points_perfect(self):
        cands = scan_one([0.0, 1.0], [0, 1], 2)
        assert len(cands) == 1
        assert cands[0][0] == pytest.approx(0.5)
        assert cands[0][1] == pytest.approx(0.5)

    def test_four_point_maximum_location(self):
        values = np.array([0.0, 1.0, 2.0, 3.0])
        labels = np.array([0, 0, 1, 1])
        cands = scan_one(values, labels, 2)
        assert len(cands) == 3
        best = max(cands, key=lambda c: c[1])
        assert best[0] == pytest.approx(1.5)
        oracle = _naive_candidates(values, labels, 2, "gini")
        for (thr, dec), (oracle_thr, oracle_dec) in zip(cands, oracle):
            assert thr == pytest.approx(oracle_thr)
            assert dec == pytest.approx(oracle_dec)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("seed", range(25))
    def test_sweep_matches_naive_oracle(self, seed, criterion):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 64)
        class_count = rng.integers(2, 4)
        # low-cardinality values force duplicate handling
        values = rng.integers(0, 6, size=n).astype(float)
        labels = rng.integers(0, class_count, size=n)
        cands = scan_one(values, labels, class_count, criterion)
        oracle = _naive_candidates(values, labels, class_count, criterion)
        assert len(cands) == len(oracle)
        for (thr, dec), (oracle_thr, oracle_dec) in zip(cands, oracle):
            assert thr == pytest.approx(oracle_thr)
            assert dec == pytest.approx(oracle_dec, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_tally_conservation(self, seed):
        # prefix + suffix class counts reconstruct the parent at every cut
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        class_count = 3
        values = rng.normal(size=n)
        labels = rng.integers(0, class_count, size=n)
        order = np.argsort(values)
        onehot = labels[order][:, None] == np.arange(class_count)
        prefix = np.cumsum(onehot, axis=0)
        total = prefix[-1]
        for i in range(n - 1):
            left = prefix[i]
            right = total - left
            assert np.array_equal(left + right, total)

    def test_adjacent_doubles_yield_no_degenerate_threshold(self):
        # the midpoint of consecutive doubles can round onto the upper value;
        # such a cut cannot separate the pair and must not become a candidate
        hi = 1.0
        lo = np.nextafter(1.0, 0.0)
        assert (lo + hi) / 2.0 == hi
        assert scan_one([lo, hi], [0, 1], 2) == []
        spread = scan_one([lo, hi, 2.0], [0, 1, 0], 2)
        assert len(spread) == 1  # only the separable pair yields a cut
        assert hi < spread[0][0] < 2.0

    def test_down_rounding_midpoint_still_separates(self):
        # when the midpoint rounds down onto the lower value it still splits
        # (lower rows go left on <=), so the candidate is kept
        lo = 1.0
        hi = np.nextafter(1.0, 2.0)
        assert (lo + hi) / 2.0 == lo
        cands = scan_one([lo, hi], [0, 1], 2)
        assert len(cands) == 1
        assert cands[0][0] == lo

    def test_multi_feature_scan_agrees_with_single(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        sorted_pos = np.argsort(x, axis=0).T
        cols = np.arange(3)[:, None]
        valid, thr = cut_points(x[sorted_pos, cols])
        dec = scan_features(y[sorted_pos], 2)
        for j in range(3):
            cands = scan_one(x[:, j], y, 2)
            assert valid[j].sum() == len(cands)
            assert np.allclose(thr[j][valid[j]], [c[0] for c in cands])
            assert np.allclose(dec[j][valid[j]], [c[1] for c in cands])


def _scan_case(rng, depth, m, class_count, kind):
    """Sorted (depth, m) value rows and their labels for one kind of node."""
    if kind == "ties":  # few distinct values: runs of equal values, no cut inside them
        values = rng.integers(0, 6, size=(depth, m)).astype(np.float64)
    elif kind == "adjacent":  # neighbouring doubles: midpoints round onto an end
        values = 1.0 + rng.integers(0, 4, size=(depth, m)) * np.spacing(1.0)
    else:
        values = rng.normal(size=(depth, m)) * 10.0 ** rng.integers(-300, 300)
    values.sort(axis=1)
    if kind == "one class":
        labels = np.full((depth, m), rng.integers(0, class_count))
    else:
        labels = rng.integers(0, class_count, size=(depth, m))
    return values, labels


def _assert_same_bytes(got, expected):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestScanMatchesReference:
    """The class-first kernel returns the bytes of the class-last one-hot scan."""

    KINDS = ("ties", "adjacent", "spread", "one class")

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("class_count", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize(
        "depth, m",
        [
            (3, 1),
            (4, 2),
            (5, 3),
            (6, 17),
            (9, 1500),  # more cells than one block holds
            (600, 6),  # the audit's batch: neighbours x features rows of one micro-dataset
        ],
    )
    def test_bytes_equal_reference(self, depth, m, class_count, criterion):
        rng = np.random.default_rng([depth, m, class_count])
        for kind in self.KINDS:
            values, labels = _scan_case(rng, depth, m, class_count, kind)
            _assert_same_bytes(
                (*cut_points(values), scan_features(labels, class_count, criterion)),
                reference_scan_features(values, labels, class_count, criterion),
            )

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_bytes_equal_reference_across_small_blocks(self, monkeypatch, budget):
        monkeypatch.setattr(mrforest.impurity, "_SCAN_BLOCK_BUDGET", budget)
        rng = np.random.default_rng(budget)
        for seed in range(40):
            depth, m = int(rng.integers(1, 12)), int(rng.integers(2, 30))
            class_count = int(rng.integers(2, 6))
            criterion = ("gini", "entropy")[seed % 2]
            values, labels = _scan_case(rng, depth, m, class_count, self.KINDS[seed % 4])
            _assert_same_bytes(
                (*cut_points(values), scan_features(labels, class_count, criterion)),
                reference_scan_features(values, labels, class_count, criterion),
            )
