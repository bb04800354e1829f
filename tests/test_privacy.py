"""Budget allocation identities and exhaustive mechanism audits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import law_at, random_dataset
from oracle import (
    reference_feature_audit,
    reference_label_audit,
    reference_neighbors,
    reference_value_audit,
)
import mrforest.privacy
import mrforest.tree
from mrforest.data import Dataset
from mrforest.errors import DomainError, SizeError
from mrforest.forest import MrfConfig, train_mrf
from mrforest.impurity import ClassCounts, cut_points
from mrforest.tree import build_tree
from mrforest.privacy import (
    allocate_budget,
    audit_feature_mechanism,
    audit_label_mechanism,
    audit_value_mechanism,
    compose_budget,
    enumerate_neighbors,
)


class TestAllocateBudget:
    def test_unit_epsilon_depth_ten(self):
        # d=10 from 50 estimation rows at k=5
        budget = allocate_budget(1.0, 1, 50, 5, split=0.5)
        assert budget.d == 10
        assert budget.b3 == pytest.approx(1.0)
        assert budget.b1 == pytest.approx(0.05)
        assert budget.b2 == pytest.approx(0.05)

    def test_epsilon_twenty(self):
        budget = allocate_budget(20.0, 1, 50, 5, split=0.5)
        assert budget.b3 == pytest.approx(20.0)
        assert budget.b1 == budget.b2 == pytest.approx(1.0)

    def test_direct_evaluation(self):
        budget = allocate_budget(2.0, 1, 4, 5, split=0.5)
        assert budget.d == 1
        assert (budget.b1, budget.b2, budget.b3) == (1.0, 1.0, 2.0)

    def test_ceiling_depth(self):
        assert allocate_budget(1.0, 2, 11, 5).d == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "t": 1, "estimation_size": 10, "k": 2},
            {"epsilon": -1.0, "t": 1, "estimation_size": 10, "k": 2},
            {"epsilon": float("nan"), "t": 1, "estimation_size": 10, "k": 2},
            {"epsilon": 1.0, "t": 0, "estimation_size": 10, "k": 2},
            {"epsilon": 1.0, "t": 1, "estimation_size": 0, "k": 2},
            {"epsilon": 1.0, "t": 1, "estimation_size": 10, "k": 2, "split": 0.0},
            {"epsilon": 1.0, "t": 1, "estimation_size": 10, "k": 2, "split": 1.0},
            {"epsilon": math.inf, "t": 1, "estimation_size": 10, "k": 2},
        ],
    )
    def test_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            allocate_budget(**kwargs)


# seeds per dataset of the end-to-end check below; the base root splits about
# half the time, so a few hundred seeds leave no doubt that it can split
PIPELINE_SEEDS = 300


class TestPipelineGuarantee:
    """Whether ``--epsilon``'s budgets make the whole training pipeline private."""

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the guarantee does not hold for the pipeline as implemented: estimation rows "
            "gate structure decisions, so removing one row of four leaves an estimation half "
            "of at most k rows, whose root never splits, and no finite epsilon bounds the ratio"
        ),
    )
    @pytest.mark.parametrize("epsilon", [0.1, 1.0])
    def test_root_split_is_epsilon_close_on_the_remove_one_neighbour(self, epsilon):
        budget = allocate_budget(epsilon, 1, 2, 1)
        x, y = np.arange(4.0)[:, None], np.array([0, 1, 0, 1])

        def split_rate(x, y):
            dataset = Dataset(x, y, ("x",), 2)
            splits = 0
            for seed in range(PIPELINE_SEEDS):
                config = MrfConfig(
                    t=1, k=1, b1=budget.b1, b2=budget.b2, b3=budget.b3,
                    max_depth=budget.d, seed=seed,
                )
                splits += int(train_mrf(dataset, config).trees[0].feature[0] >= 0)
            return splits / PIPELINE_SEEDS

        base, removed = split_rate(x, y), split_rate(x[:3], y[:3])
        # epsilon-DP bounds the probability of every output, here "the root
        # splits", by e^epsilon times its probability on any neighbour
        assert base <= math.exp(epsilon) * removed


class TestComposeBudget:
    def test_structure_phase_dominant(self):
        assert compose_budget(0.1, 10, 1.0, 1) == pytest.approx(1.0)

    def test_label_phase_dominant(self):
        assert compose_budget(0.01, 5, 2.0, 3) == pytest.approx(6.0)

    def test_all_zero(self):
        assert compose_budget(0.0, 0, 0.0, 0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            compose_budget(-0.1, 1, 1.0, 1)

    @pytest.mark.parametrize("seed", range(100))
    def test_round_trip_identity(self, seed):
        rng = np.random.default_rng(seed)
        epsilon = float(rng.uniform(0.01, 50))
        t = int(rng.integers(1, 200))
        estimation = int(rng.integers(1, 5000))
        k = int(rng.integers(1, 50))
        split = float(rng.uniform(0.05, 0.95))
        budget = allocate_budget(epsilon, t, estimation, k, split)
        back = compose_budget(budget.b1 + budget.b2, budget.d, budget.b3, budget.t)
        assert back == pytest.approx(epsilon, abs=1e-9)


def _micro(rng, n=8, d=2, k_classes=2) -> Dataset:
    return random_dataset(rng, n, d, n_classes=k_classes, informative=False)


class TestFeatureAudit:
    def test_constant_labels_ratio_one(self):
        features = np.random.default_rng(0).normal(size=(6, 2))
        ds = Dataset(features, np.zeros(6, dtype=int), ("a", "b"), 2)
        report = audit_feature_mechanism(ds, 1.0)
        assert report.worst_ratio == pytest.approx(1.0)
        assert report.passed

    def test_zero_budget_ratio_one(self, rng):
        report = audit_feature_mechanism(_micro(rng), 0.0)
        assert report.worst_ratio == pytest.approx(1.0)
        assert report.passed

    def test_eight_row_bound(self, rng):
        report = audit_feature_mechanism(_micro(rng), 0.5)
        assert report.worst_ratio <= math.exp(0.5) * (1 + 1e-9)
        assert report.passed
        assert report.worst_ratio >= 1.0

    def test_infinite_budget_rejected(self, rng):
        with pytest.raises(DomainError):
            audit_feature_mechanism(_micro(rng), math.inf)

    def test_oversized_dataset_rejected(self, rng):
        big = random_dataset(rng, 33, 2)
        with pytest.raises(SizeError):
            audit_feature_mechanism(big, 1.0)


class TestValueAudit:
    def test_single_threshold_ratio_one(self):
        features = np.array([[0.0], [0.0], [1.0], [1.0]])
        labels = np.array([0, 1, 0, 1])
        ds = Dataset(features, labels, ("x",), 2)
        report = audit_value_mechanism(ds, 0, 1.0)
        assert report.worst_ratio == pytest.approx(1.0)

    def test_zero_budget_ratio_one(self, rng):
        report = audit_value_mechanism(_micro(rng), 0, 0.0)
        assert report.worst_ratio == pytest.approx(1.0)

    def test_eight_row_bound(self, rng):
        report = audit_value_mechanism(_micro(rng), 0, 1.0)
        assert report.worst_ratio <= math.e * (1 + 1e-9)
        assert report.passed

    def test_mismatch_counting(self, rng):
        # continuous features: replacing a row almost always moves midpoints
        report = audit_value_mechanism(_micro(rng), 0, 1.0)
        assert report.candidate_mismatches > 0

    def test_near_miss_thresholds_are_mismatches(self):
        # replacing row 2 moves the upper threshold to 1500.002: within
        # np.isclose's tolerance of the grid's 1500, but not a threshold of it
        ds = Dataset(np.array([[0.0], [1000.0], [2000.0]]), np.array([0, 1, 0]), ("x",), 2)
        neighborhood = enumerate_neighbors(ds, [(np.array([2000.004]), 0)])
        report = audit_value_mechanism(ds, 0, 1.0, neighborhood=neighborhood)
        assert report.neighbor_count == 6
        assert report.candidate_mismatches == 6

    def test_constant_feature_rejected(self):
        ds = Dataset(np.ones((4, 1)), np.array([0, 1, 0, 1]), ("x",), 2)
        with pytest.raises(DomainError):
            audit_value_mechanism(ds, 0, 1.0)

    def test_feature_whose_only_midpoint_rounds_up_rejected(self):
        # adjacent doubles: the midpoint rounds onto the upper value, a cut
        # that routes every row left and that a tree never draws
        low = -4.604265724722594
        column = np.array([low, np.nextafter(low, np.inf)] * 2)
        assert 0.5 * (column[0] + column[1]) == column[1]
        ds = Dataset(column[:, None], np.array([0, 1, 0, 1]), ("x",), 2)
        with pytest.raises(DomainError, match="no candidate thresholds"):
            audit_value_mechanism(ds, 0, 1.0)

    @pytest.mark.parametrize("feature", (-1, 2, 7))
    def test_feature_outside_columns_rejected(self, rng, feature):
        with pytest.raises(DomainError):
            audit_value_mechanism(_micro(rng), feature, 1.0)


class TestLabelAudit:
    def test_hand_worked_two_class(self):
        report = audit_label_mechanism(ClassCounts(np.array([1, 1])), 2.0)
        # worst neighbor is (2,0) or a removal: eta (1,0) vs (.5,.5)
        e = math.e
        expected = 0.5 / (1.0 / (e + 1.0))
        assert report.worst_ratio == pytest.approx(expected)
        assert report.passed

    def test_single_class_ratio_one(self):
        report = audit_label_mechanism(ClassCounts(np.array([5])), 3.0)
        assert report.worst_ratio == pytest.approx(1.0)

    def test_zero_budget_ratio_one(self):
        report = audit_label_mechanism(ClassCounts(np.array([3, 2, 1])), 0.0)
        assert report.worst_ratio == pytest.approx(1.0)

    def test_empty_leaf_rejected(self):
        with pytest.raises(DomainError):
            audit_label_mechanism(ClassCounts(np.array([0, 0])), 1.0)


class TestAuditProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_fuzzed_micro_datasets_pass_all_audits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k_classes = int(rng.integers(2, 4))
        micro = _micro(rng, n=n, d=d, k_classes=k_classes)
        neighborhood = enumerate_neighbors(micro)
        counts = ClassCounts.from_labels(micro.labels, k_classes)
        for budget in (0.0, 0.1, 1.0, 5.0):
            feature_report = audit_feature_mechanism(micro, budget, neighborhood=neighborhood)
            label_report = audit_label_mechanism(counts, budget)
            assert feature_report.passed and feature_report.worst_ratio >= 1.0
            assert label_report.passed and label_report.worst_ratio >= 1.0
            if np.unique(micro.features[:, 0]).size > 1:
                value_report = audit_value_mechanism(micro, 0, budget, neighborhood=neighborhood)
                assert value_report.passed and value_report.worst_ratio >= 1.0

    def test_worst_ratio_monotone_in_budget(self, rng):
        micro = _micro(rng, n=10, d=2)
        neighborhood = enumerate_neighbors(micro)
        counts = ClassCounts.from_labels(micro.labels, micro.class_count)
        budgets = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0]
        for audit in (
            lambda b: audit_feature_mechanism(micro, b, neighborhood=neighborhood),
            lambda b: audit_value_mechanism(micro, 0, b, neighborhood=neighborhood),
            lambda b: audit_label_mechanism(counts, b),
        ):
            ratios = [audit(b).worst_ratio for b in budgets]
            assert all(lo <= hi + 1e-12 for lo, hi in zip(ratios, ratios[1:]))

    def test_neighbor_enumeration_covers_replace_and_remove(self, rng):
        micro = _micro(rng, n=4, d=1)
        neighborhood = enumerate_neighbors(micro)
        kinds = {desc["kind"] for desc, _, _ in neighborhood.neighbors}
        assert kinds == {"replace", "remove"}
        # replace-one keeps n rows, remove-one drops to n-1
        sizes = {x.shape[0] for _, x, _ in neighborhood.neighbors}
        assert sizes == {4, 3}


# budgets up to 700 reach the inf and NaN ratios of underflowing probabilities
REFERENCE_BUDGETS = (0.0, 0.1, 1.0, 5.0, 50.0, 300.0, 700.0)


def _integer_micro(rng, n, d, k_classes) -> Dataset:
    """Features in {0, 1, 2}: equal values, duplicate rows and tied neighbors."""
    features = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    labels = rng.integers(0, k_classes, size=n)
    return Dataset(features, labels, tuple(f"f{i}" for i in range(d)), k_classes)


def _assert_all_audits_match_reference(micro, criterion, grid=None, records=None):
    neighborhood = enumerate_neighbors(micro, records)
    expected = reference_neighbors(micro.features, micro.labels, records)
    assert len(neighborhood.neighbors) == len(expected)
    for (desc, x, y), (ref_desc, ref_x, ref_y) in zip(neighborhood.neighbors, expected):
        assert desc == ref_desc
        assert np.array_equal(x, ref_x) and np.array_equal(y, ref_y)
    counts = ClassCounts.from_labels(micro.labels, micro.class_count)
    auditable_value = grid is not None or np.unique(micro.features[:, 0]).size > 1
    has_cut = any(np.unique(column).size > 1 for column in micro.features.T)
    for budget in REFERENCE_BUDGETS:
        if has_cut:
            report = audit_feature_mechanism(micro, budget, criterion, neighborhood)
            assert report.to_dict() == reference_feature_audit(micro, budget, criterion, records)
        else:  # the root is a leaf, where no feature is drawn
            with pytest.raises(DomainError):
                audit_feature_mechanism(micro, budget, criterion, neighborhood)
            with pytest.raises(DomainError):
                reference_feature_audit(micro, budget, criterion, records)
        if auditable_value:
            report = audit_value_mechanism(micro, 0, budget, criterion, neighborhood, grid)
            assert report.to_dict() == reference_value_audit(
                micro, 0, budget, criterion, grid, records
            )
        report = audit_label_mechanism(counts, budget)
        assert report.to_dict() == reference_label_audit(counts.counts, budget)


class TestBatchedAuditsMatchReference:
    """Batched scoring equals per-neighbor scoring with a sequential ratio scan."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_micro_datasets(self, seed, criterion):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        k_classes = int(rng.integers(2, 4))
        if seed % 2:
            micro = _micro(rng, n=n, d=d, k_classes=k_classes)
        else:
            micro = _integer_micro(rng, n, d, k_classes)
        _assert_all_audits_match_reference(micro, criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("labels", [[0, 1], [1, 1], [0, 2]])
    def test_two_rows_remove_neighbors_are_not_scanned(self, labels, criterion):
        micro = Dataset(np.array([[0.0, 2.0], [1.0, 2.0]]), np.array(labels), ("a", "b"), 3)
        neighborhood = enumerate_neighbors(micro)
        removed = [x for desc, x, _ in neighborhood.neighbors if desc["kind"] == "remove"]
        assert [x.shape for x in removed] == [(1, 2), (1, 2)]
        _assert_all_audits_match_reference(micro, criterion)

    def test_one_row_has_no_default_neighbors(self):
        micro = Dataset(np.array([[1.0, 2.0]]), np.array([1]), ("a", "b"), 2)
        assert enumerate_neighbors(micro).neighbors == ()
        _assert_all_audits_match_reference(micro, "gini", grid=np.array([1.5]))

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_constant_features(self, criterion, rng):
        features = np.column_stack([rng.normal(size=7), np.full(7, 3.0), np.zeros(7)])
        labels = np.array([0, 1, 1, 0, 2, 2, 1])
        micro = Dataset(features, labels, ("a", "b", "c"), 3)
        _assert_all_audits_match_reference(micro, criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_custom_grid_and_replacement_records(self, criterion, rng):
        micro = _integer_micro(rng, 6, 2, 2)
        records = [
            (micro.features[0], int(micro.labels[0])),  # the row itself: skipped there
            (np.array([-4.0, 9.0]), 1),
            (np.array([0.5, 0.5]), 0),
            (np.array([-4.0, 9.0]), 1),  # a duplicate record ties with the first
        ]
        grid = np.array([-1.0, 0.25, 1.5, 5.0])
        _assert_all_audits_match_reference(micro, criterion, grid=grid, records=records)
        _assert_all_audits_match_reference(micro, criterion, grid=grid, records=[])

    def test_tied_neighbors_report_the_first(self):
        # rows 0 and 1 are equal, and so are default records 1 and 3: replacing
        # either of a tied pair gives the same dataset and the same ratios
        features = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0]])
        micro = Dataset(features, np.array([0, 0, 1, 1, 0]), ("a", "b"), 2)
        neighborhood = enumerate_neighbors(micro)
        for budget in (0.5, 5.0, 50.0):
            feature = audit_feature_mechanism(micro, budget, neighborhood=neighborhood)
            assert feature.witness["neighbor"] == {"kind": "replace", "row": 0, "record": 4}
            value = audit_value_mechanism(micro, 0, budget, neighborhood=neighborhood)
            assert value.witness["neighbor"] == {"kind": "replace", "row": 3, "record": 1}
            label = audit_label_mechanism(ClassCounts(np.array([2, 2])), budget)
            assert label.witness["neighbor"] == {"kind": "relabel", "from": 0, "to": 1}
        _assert_all_audits_match_reference(micro, "gini")

    def test_neighbors_are_read_only_views_of_the_blocks(self, rng):
        micro = _micro(rng, n=5, d=2)
        neighborhood = enumerate_neighbors(micro)
        for desc, x, y in neighborhood.neighbors:
            assert x.base is not None and y.base is not None
            assert not x.flags.writeable and not y.flags.writeable
        sizes = [block_x.shape for block_x, _ in neighborhood.blocks]
        assert sizes == [(len(neighborhood.neighbors) - 5, 5, 2), (5, 4, 2)]

    def test_wrong_width_or_non_finite_records_rejected(self, rng):
        micro = _micro(rng, n=4, d=2)
        for record in (np.array([1.0]), np.array([1.0, 2.0, 3.0]), np.array([np.nan, 0.0])):
            with pytest.raises(DomainError):
                enumerate_neighbors(micro, [(record, 0)])


class TestFeaturesWithoutACut:
    def test_a_neighbor_that_loses_a_features_only_cut_has_an_infinite_ratio(self):
        # feature b's only cut falls below row 2: replacing row 2 with row 0,
        # or removing it, leaves b without a cut and a with one, so training
        # never draws b there
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]])
        micro = Dataset(x, np.array([0, 1, 0]), ("a", "b"), 2)
        records = [(x[0], 0)]
        neighborhood = enumerate_neighbors(micro, records)
        report = audit_feature_mechanism(micro, 1.0, neighborhood=neighborhood)
        assert report.worst_ratio == math.inf and not report.passed
        assert report.witness["neighbor"] == {"kind": "replace", "row": 2, "record": 0}
        assert report.witness["output"] == 1
        assert report.candidate_mismatches == 2
        assert report.to_dict() == reference_feature_audit(micro, 1.0, records=records)

    def test_neighbors_without_a_cut_are_counted_not_scored(self):
        # every neighbor of two rows that removes one, or copies one onto the
        # other, has no cut: its root is a leaf, where no feature is drawn
        micro = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]), ("a",), 2)
        neighborhood = enumerate_neighbors(micro)
        report = audit_feature_mechanism(micro, 1.0, neighborhood=neighborhood)
        assert len(neighborhood.neighbors) == 8
        assert report.candidate_mismatches == 6
        assert report.neighbor_count == 2  # the two that relabel a row
        assert report.passed

    def test_a_base_without_a_cut_is_refused(self):
        micro = Dataset(np.array([[1.0, 2.0]] * 3), np.array([0, 1, 0]), ("a", "b"), 2)
        with pytest.raises(DomainError, match="no feature has a valid cut"):
            audit_feature_mechanism(micro, 1.0)


class TestAuditBudgetOverflow:
    def test_budget_without_finite_bound_rejected(self, rng):
        micro = _micro(rng, n=5, d=2)
        counts = ClassCounts.from_labels(micro.labels, micro.class_count)
        for budget in (710.0, 1000.0, 1e308):
            with pytest.raises(DomainError):
                audit_feature_mechanism(micro, budget)
            with pytest.raises(DomainError):
                audit_value_mechanism(micro, 0, budget)
            with pytest.raises(DomainError):
                audit_label_mechanism(counts, budget)

    def test_largest_finite_bound_accepted(self, rng):
        micro = _micro(rng, n=5, d=2)
        report = audit_feature_mechanism(micro, 709.0)
        assert report.bound == math.exp(709.0)


def _captured(monkeypatch, module, name) -> list:
    """Each result of ``module.name`` from now on, in call order."""
    results = []
    real = getattr(module, name)

    def capture(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(module, name, capture)
    return results


def _assert_audited_root_feature_laws_are_drawn(micro, budget, seed, monkeypatch) -> int:
    """Each dataset's row of the feature audit is the law that training draws its
    root feature from, and a dataset without a cut has no row and draws no
    feature; returns how many datasets have some, but not all, features with a cut."""
    neighborhood = enumerate_neighbors(micro)
    audited = _captured(monkeypatch, mrforest.privacy, "_selection_probs")
    audit_feature_mechanism(micro, budget, "gini", neighborhood)
    (probs,) = audited  # one row per dataset with a cut: the base dataset's, then its neighbors'
    rows = iter(probs)
    laws = _captured(monkeypatch, mrforest.tree, "selection_cdfs")
    config = MrfConfig(t=1, k=1, b1=budget, b2=budget, max_depth=1)
    datasets = [(micro.features, micro.labels)] + [(x, y) for _, x, y in neighborhood.neighbors]
    partial = 0
    for x, y in datasets:
        laws.clear()
        # a root with all of the rows on both sides, the way the audit scores it
        dataset = Dataset(x, y, micro.feature_names, micro.class_count)
        every = np.arange(y.size)
        build_tree(dataset, every, every, config, np.random.default_rng(seed))
        has_cut = np.array([np.unique(column).size > 1 for column in x.T])
        if not has_cut.any():
            assert laws == []  # a leaf root: no feature law, and no audited row
            continue
        partial += not has_cut.all()
        cdf = law_at(laws[0], 0).copy()  # the root's feature law
        assert cdf.size == x.shape[1]
        # the last feature with a cut takes what the others leave of 1
        cdf[np.flatnonzero(has_cut)[-1] :] = 1.0
        assert np.array_equal(next(rows), np.diff(cdf, prepend=0.0))
    assert next(rows, None) is None
    return partial


class TestAuditedLawIsTheDrawnLaw:
    """The feature and value audits score each dataset with the laws that
    training draws a tree's root feature and value from, bit for bit: the
    probability of each output is the step of that law's cumulative
    probabilities, the last step taking what the others leave of 1."""

    @pytest.mark.parametrize("budget", [0.0, 1.0, 700.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_root_feature_law(self, seed, budget, monkeypatch):
        rng = np.random.default_rng(900 + seed)
        n, d = int(rng.integers(4, 11)), int(rng.integers(1, 4))
        micro = _micro(rng, n=n, d=d, k_classes=int(rng.integers(2, 4)))
        _assert_audited_root_feature_laws_are_drawn(micro, budget, seed, monkeypatch)

    @pytest.mark.parametrize("budget", [0.0, 1.0, 700.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_root_feature_law_where_neighbors_lose_cuts(self, seed, budget, monkeypatch):
        # two or three rows valued in {0, 1, 2}: some neighbors keep only some
        # of the features' cuts, and some have none
        rng = np.random.default_rng(900 + seed)
        micro = _integer_micro(rng, 2 + seed % 2, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        partial = _assert_audited_root_feature_laws_are_drawn(micro, budget, seed, monkeypatch)
        assert partial > 0

    def test_a_feature_without_a_cut_has_no_mass(self, monkeypatch):
        # feature c is constant: the audit once scored it 0 and kept it in its
        # law, (0.308, 0.430, 0.261), which training never draws from
        x = np.array([[0.0, 0, 5], [1, 2, 5], [2, 1, 5], [3, 3, 5]])
        micro = Dataset(x, np.array([0, 1, 0, 1]), ("a", "b", "c"), 2)
        audited = _captured(monkeypatch, mrforest.privacy, "_selection_probs")
        audit_feature_mechanism(micro, 1.0)
        base = audited[0][0]
        np.testing.assert_allclose(base, [0.378, 0.622, 0.0], atol=5e-4)
        laws = _captured(monkeypatch, mrforest.tree, "selection_cdfs")
        config = MrfConfig(t=1, k=1, b1=1.0, b2=1.0, max_depth=1)
        every = np.arange(4)
        build_tree(micro, every, every, config, np.random.default_rng(0))
        cdf = law_at(laws[0], 0).copy()
        cdf[1:] = 1.0  # feature b, the last with a cut, takes the rest of 1
        assert np.array_equal(base, np.diff(cdf, prepend=0.0))

    @pytest.mark.parametrize("budget", [0.0, 1.0, 700.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_root_value_law(self, seed, budget, monkeypatch):
        rng = np.random.default_rng(950 + seed)
        n = int(rng.integers(4, 11))
        micro = _micro(rng, n=n, d=1, k_classes=int(rng.integers(2, 4)))
        neighborhood = enumerate_neighbors(micro)
        audited = _captured(monkeypatch, mrforest.privacy, "_selection_probs")
        audit_value_mechanism(micro, 0, budget, "gini", neighborhood)
        (probs,) = audited  # the base dataset's row, then one row per neighbor

        def candidates(x):
            valid, thresholds = cut_points(np.sort(x[:, 0]))
            return thresholds[valid]

        # the datasets whose candidate thresholds are the grid, where
        # training's root value law ranges over the audit's outputs
        grid = candidates(micro.features)
        datasets = [(micro.features, micro.labels, probs[0])] + [
            (x, y, row)
            for (_, x, y), row in zip(neighborhood.neighbors, probs[1:])
            if np.array_equal(candidates(x), grid)
        ]
        assert len(datasets) > n
        laws = _captured(monkeypatch, mrforest.tree, "selection_cdfs")
        config = MrfConfig(t=1, k=1, b1=budget, b2=budget, max_depth=1)
        for x, y, row in datasets:
            laws.clear()
            # a root with all of the rows on both sides, the way the audit scores it
            dataset = Dataset(x, y, micro.feature_names, micro.class_count)
            rows = np.arange(y.size)
            build_tree(dataset, rows, rows, config, np.random.default_rng(seed))
            cdf = law_at(laws[1], 0)  # the root's value law; laws[0] is its feature law
            assert cdf.size == grid.size
            assert np.array_equal(row, np.diff(np.append(cdf[:-1], 1.0), prepend=0.0))
