"""Normalization, scaled softmax, sampling, and the closed-form bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import law_at, one_law
from mrforest.errors import DomainError
from mrforest.splitsel import Laws, select_feature, select_value, selection_cdfs, softmax_scaled
from oracle import feature_probability_bounds, inverse_cdf_draws, normalize, value_region_bound

finite_vectors = st.lists(
    st.floats(-100, 100, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


class TestNormalize:
    def test_basic(self):
        assert normalize([3.0, 1.0, 2.0]).tolist() == [1.0, 0.0, 0.5]

    def test_degenerate_all_equal(self):
        assert normalize([5.0, 5.0, 5.0]).tolist() == [0.0, 0.0, 0.0]

    def test_identity_on_unit_pair(self):
        assert normalize([0.0, 1.0]).tolist() == [0.0, 1.0]

    @given(finite_vectors)
    def test_range(self, values):
        out = normalize(values)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @given(finite_vectors, st.floats(0.1, 10), st.floats(-50, 50))
    def test_affine_invariance(self, values, scale, shift):
        arr = np.asarray(values)
        spread = arr.max() - arr.min()
        if 0 < spread < 1e-3:
            return  # below float resolution the shifted spread collapses
        base = normalize(values)
        moved = normalize(scale * arr + shift)
        assert np.allclose(base, moved, atol=1e-9)


class TestSoftmaxScaled:
    def test_example_pair(self):
        probs = softmax_scaled([1.0, 0.0], 2.0)
        e = math.e
        assert probs[0] == pytest.approx(e / (e + 1))
        assert probs[1] == pytest.approx(1 / (e + 1))

    def test_zero_budget_uniform(self):
        assert np.allclose(softmax_scaled([0.9, 0.1, 0.4], 0.0), 1 / 3)

    def test_infinite_budget_argmax(self):
        assert softmax_scaled([1.0, 0.0, 0.0], math.inf).tolist() == [1.0, 0.0, 0.0]

    def test_infinite_budget_tied_maxima_uniform(self):
        assert softmax_scaled([1.0, 1.0, 0.0], math.inf).tolist() == [0.5, 0.5, 0.0]

    def test_large_budget_stable(self):
        probs = softmax_scaled([1.0, 0.0], 5000.0)
        assert probs[0] == pytest.approx(1.0)
        assert np.isfinite(probs).all()

    @given(finite_vectors, st.floats(0, 50))
    def test_sums_to_one_and_positive(self, values, budget):
        probs = softmax_scaled(normalize(values), budget)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs > 0).all()

    @given(finite_vectors, st.floats(0, 50))
    def test_monotone_in_scores(self, values, budget):
        probs = softmax_scaled(normalize(values), budget)
        sorted_probs = probs[np.argsort(values)]
        assert (np.diff(sorted_probs) >= -1e-12).all()


def _draws(probabilities, uniforms: np.ndarray) -> np.ndarray:
    """Draws from ``cumsum(probabilities)``, one per uniform."""
    first = np.zeros(uniforms.size, dtype=int)
    return select_value(one_law(np.cumsum(probabilities)), uniforms, first)


def _feature_draws(scores, budget: float, rng, count: int) -> np.ndarray:
    """``count`` feature draws from the one feature law of ``scores`` at ``budget``."""
    cdfs = selection_cdfs(np.asarray(scores), len(scores), budget).cdf[None]
    return select_feature(cdfs, rng.random((1, count)), np.array([len(scores) - 1]))[0]


def _value_draws(scores, budget: float, rng, count: int) -> np.ndarray:
    """``count`` value draws from the one value law of ``scores`` at ``budget``."""
    laws = selection_cdfs(np.asarray(scores), np.array([len(scores)]), budget)
    return select_value(laws, rng.random(count), np.zeros(count, dtype=int))


class TestSampleIndex:
    def test_singleton(self, rng):
        assert _draws([1.0], rng.random(1)).tolist() == [0]

    def test_zero_mass_never_drawn(self, rng):
        assert (_draws([0.0, 1.0], rng.random(1000)) == 1).all()

    def test_fair_coin_frequency(self):
        draws = _draws([0.5, 0.5], np.random.default_rng(99).random(100_000))
        # binomial 99.99% bound: 0.5 +- ~0.0062; spec tolerance 0.01
        assert abs((draws == 0).mean() - 0.5) < 0.01

    def test_deterministic_given_state(self):
        p = [0.25, 0.25, 0.5]
        a = _draws(p, np.random.default_rng(3).random(5))
        b = _draws(p, np.random.default_rng(3).random(5))
        assert a.tolist() == b.tolist()


class TestSelection:
    def test_zero_budget_uniform_over_features(self):
        rng = np.random.default_rng(1)
        draws = _feature_draws([0.7, 0.1, 0.4], 0.0, rng, 9000)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, 1 / 3, atol=0.02)

    def test_two_feature_probability(self):
        rng = np.random.default_rng(2)
        draws = _feature_draws([0.4, 0.1], 2.0, rng, 40_000)
        expected = math.e / (math.e + 1)
        assert (draws == 0).mean() == pytest.approx(expected, abs=0.01)

    def test_infinite_budget_greedy(self):
        rng = np.random.default_rng(3)
        assert (_feature_draws([0.2, 0.9, 0.1], math.inf, rng, 50) == 1).all()

    def test_value_selection_singleton(self, rng):
        assert _value_draws([0.3], 5.0, rng, 1).tolist() == [0]

    def test_value_selection_uniform_when_degenerate(self):
        rng = np.random.default_rng(4)
        draws = _value_draws([0.2, 0.2, 0.2], 50.0, rng, 9000)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, 1 / 3, atol=0.02)

    def test_value_selection_hand_probabilities(self):
        # normalized scores (1, .5, 0) at b2=10 give weights (e^5, e^2.5, 1)
        weights = np.array([math.exp(5), math.exp(2.5), 1.0])
        expected = weights / weights.sum()
        probs = softmax_scaled(normalize([0.3, 0.2, 0.1]), 10.0)
        assert np.allclose(probs, expected)


def _runs(rng):
    """1-7 runs of 1-40 scores, rounded so that ties and all-equal runs occur."""
    sizes = rng.integers(1, 41, size=int(rng.integers(1, 8)))
    scores = np.round(rng.random(sizes.sum()), int(rng.integers(1, 4)))
    return scores, sizes


class TestBatchedLaws:
    @pytest.mark.parametrize("budget", [0.0, 0.05, 1.0, 10.0, math.inf])
    def test_each_law_is_its_runs_selection_cdf(self, budget):
        rng = np.random.default_rng(int(10 * min(budget, 99)))
        for _ in range(100):
            scores, sizes = _runs(rng)
            laws = selection_cdfs(scores, sizes, budget)
            assert laws.size.tolist() == sizes.tolist()
            for i, start in enumerate(np.cumsum(sizes) - sizes):
                run = scores[start : start + sizes[i]]
                own = np.cumsum(softmax_scaled(normalize(run), budget))
                np.testing.assert_allclose(law_at(laws, i), own, rtol=1e-9)

    @pytest.mark.parametrize("budget", [0.0, 1.0, math.inf])
    def test_batched_draws_are_each_laws_own_draws(self, budget):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores, sizes = _runs(rng)
            laws = selection_cdfs(scores, sizes, budget)
            which = rng.integers(0, sizes.size, size=50)
            uniforms = rng.random(50)
            drawn = select_value(laws, uniforms, which)
            for law, u, index in zip(which, uniforms, drawn):
                own = int(law_at(laws, law).searchsorted(u, side="right"))
                assert index == min(own, sizes[law] - 1)

    def test_uniform_past_a_laws_end_draws_its_last_index(self):
        laws = Laws(np.array([0.5, 0.75, 0.5, 0.5]), np.array([0, 2]), np.array([2, 2]))
        drawn = select_value(laws, np.array([0.9, 0.4, 0.6]), np.array([0, 1, 1]))
        assert drawn.tolist() == [1, 0, 1]

    def test_mechanisms_draw_batches_from_laws_and_single_draws_from_a_cdf(self):
        laws = selection_cdfs(np.array([0.2, 0.9, 0.1, 0.3]), np.array([3, 1]), math.inf)
        which, uniforms = np.array([0, 1, 0]), np.array([0.1, 0.5, 0.99])
        assert select_value(laws, uniforms, which).tolist() == [1, 0, 1]
        single = law_at(laws, 0)
        assert select_value(one_law(single), np.array([0.5]), np.array([0])).tolist() == [1]
        drawn = select_feature(single[None], uniforms[None], np.array([2]))
        assert drawn.tolist() == [[1, 1, 1]]


class TestFeatureLaws:
    """One law per node over all D features, a feature without a cut scored -inf."""

    @pytest.mark.parametrize("budget", [0.0, 1.0, 10.0, math.inf])
    def test_unscored_features_get_no_mass(self, budget):
        rng = np.random.default_rng(int(min(budget, 99)))
        for _ in range(100):
            scores = np.round(rng.random(7), int(rng.integers(1, 4)))
            unscored = rng.random(7) < 0.5
            unscored[rng.integers(7)] = False
            scores[unscored] = -np.inf
            law = selection_cdfs(scores, 7, budget).cdf
            own = selection_cdfs(scores[~unscored], int((~unscored).sum()), budget).cdf
            np.testing.assert_array_equal(np.diff(law, prepend=0.0)[unscored], 0.0)
            # the scored features' law, up to rounding: a sum adds the zeros too
            np.testing.assert_allclose(law[~unscored], own, rtol=1e-12)

    @pytest.mark.parametrize("budget", [0.0, 1.0, math.inf])
    def test_a_nodes_law_is_the_same_in_any_batch(self, budget):
        rng = np.random.default_rng(8)
        scores = rng.random((50, 9))
        scores[rng.random((50, 9)) < 0.4] = -np.inf
        scores[:, 4] = rng.random(50)  # every node has a feature with a cut
        batched = selection_cdfs(scores.ravel(), 9, budget).cdf.reshape(50, 9)
        for row, law in zip(scores, batched):
            np.testing.assert_array_equal(selection_cdfs(row, 9, budget).cdf, law)

    def test_draws_count_steps_and_pass_over_features_without_a_cut(self):
        # node 0: features 1 and 3 have a cut; node 1: only feature 0 does
        scores = np.array([[-np.inf, 0.2, -np.inf, 0.9], [0.5, -np.inf, -np.inf, -np.inf]])
        cdfs = selection_cdfs(scores.ravel(), 4, 0.0).cdf.reshape(2, 4)
        assert cdfs.tolist() == [[0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0, 1.0]]
        uniforms = np.array([[0.0, 0.49, 0.5, 0.99], [0.0, 0.3, 0.6, 0.99]])
        drawn = select_feature(cdfs, uniforms, np.array([3, 0]))
        assert drawn.tolist() == [[1, 1, 3, 3], [0, 0, 0, 0]]

    def test_a_trailing_feature_without_a_cut_is_never_drawn(self):
        # rounding leaves the law below 1: a uniform past its end draws the
        # last feature with a cut, not the feature after it
        cdfs = np.array([[0.25, 0.999, 0.999]])
        drawn = select_feature(cdfs, np.array([[0.1, 0.5, 0.9995]]), np.array([1]))
        assert drawn.tolist() == [[0, 1, 1]]


class TestBounds:
    def test_uniform_case_bounds_coincide(self):
        lower, upper = feature_probability_bounds(3, 0.0)
        assert lower == pytest.approx(1 / 3)
        assert upper == pytest.approx(1 / 3)

    def test_ln3_bounds(self):
        lower, upper = feature_probability_bounds(2, math.log(3))
        assert lower == pytest.approx(0.25)
        assert upper == pytest.approx(0.75)

    def test_single_feature(self):
        assert feature_probability_bounds(1, 7.0) == (1.0, 1.0)

    def test_huge_budget_stays_finite(self):
        lower, upper = feature_probability_bounds(4, 5000.0)
        assert 0.0 <= lower < upper <= 1.0

    def test_region_bound_values(self):
        assert value_region_bound(3, 0.0) == pytest.approx(1 / 3)
        assert value_region_bound(4, 0.0) == pytest.approx(0.5)

    def test_region_bound_decays_to_zero(self):
        assert value_region_bound(3, 400.0) == pytest.approx(0.0, abs=1e-300)

    def test_region_bound_domain(self):
        with pytest.raises(DomainError):
            value_region_bound(2, 1.0)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("b1", [0.0, 1.0, 10.0])
    def test_empirical_frequency_within_bounds(self, d, b1):
        # operationalizes the selection-probability envelope over 1e5 draws
        rng = np.random.default_rng(d * 1000 + int(b1))
        scores = np.linspace(0.1, 0.9, d)
        probs = softmax_scaled(normalize(scores), b1)
        draws = inverse_cdf_draws(probs, rng.random(100_000))
        freqs = np.bincount(draws, minlength=d) / draws.size
        lower, upper = feature_probability_bounds(d, b1)
        sigma_low = math.sqrt(lower * (1 - lower) / draws.size)
        sigma_up = math.sqrt(upper * (1 - upper) / draws.size)
        assert (freqs >= lower - 3 * sigma_low - 1e-12).all()
        assert (freqs <= upper + 3 * sigma_up + 1e-12).all()


@settings(max_examples=200)
@given(finite_vectors, st.floats(0, 30))
def test_scored_choices_probability_contract(values, budget):
    # both mechanisms draw by inverse CDF from the normalized scores' softmax
    probs = softmax_scaled(normalize(values), budget)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs > 0).all()
    expected = inverse_cdf_draws(probs, np.random.default_rng(7).random(2))
    uniforms = np.random.default_rng(7).random(2)
    law, first = one_law(np.cumsum(probs)), np.zeros(1, dtype=int)
    feature = select_feature(law.cdf[None], uniforms[None, :1], np.array([probs.size - 1]))
    drawn = [feature[0], select_value(law, uniforms[1:], first)]
    assert np.concatenate(drawn).tolist() == expected.tolist()
