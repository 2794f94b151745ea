import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanagg import average_rank, rank_with_ties, wilcoxon_signed_rank

from oracles import brute_force_wilcoxon, sort_based_ranks


class TestRankWithTies:
    def test_tie_example(self):
        np.testing.assert_allclose(rank_with_ties([0.9, 0.8, 0.9]), [1.5, 3, 1.5])

    def test_strictly_decreasing(self):
        np.testing.assert_allclose(rank_with_ties([5.0, 4.0, 3.0, 1.0]),
                                   [1, 2, 3, 4])

    def test_all_equal(self):
        np.testing.assert_allclose(rank_with_ties([2.0] * 5), [3.0] * 5)

    def test_lower_is_better_mode(self):
        np.testing.assert_allclose(
            rank_with_ties([0.3, 0.1, 0.2], higher_is_better=False), [3, 1, 2])

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            # heavy ties: draw from a small value set
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)
            mine = rank_with_ties(scores)
            oracle = sort_based_ranks(scores.tolist())
            np.testing.assert_allclose(mine, oracle, atol=1e-12)

    @given(st.lists(st.floats(-100, 100, allow_nan=False)
                    .map(lambda v: round(v, 3)), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, scores):
        # quantized scores keep exp() injective in float arithmetic
        s = np.asarray(scores)
        np.testing.assert_allclose(rank_with_ties(s),
                                   rank_with_ties(np.exp(s / 100)), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_with_ties([])


class TestAverageRank:
    def test_single_dataset(self):
        ranks = np.array([[3.0], [1.0], [2.0]])
        means, stds = average_rank(ranks)
        np.testing.assert_allclose(means, [3, 1, 2])
        np.testing.assert_allclose(stds, [0, 0, 0])

    def test_population_std(self):
        means, stds = average_rank(np.array([[10.0, 20.0]]))
        assert means[0] == 15.0
        assert stds[0] == 5.0

    def test_always_first_combination(self):
        ranks = np.ones((1, 7))
        means, stds = average_rank(ranks)
        assert means[0] == 1.0 and stds[0] == 0.0

    def test_nan_entries_ignored(self):
        means, _ = average_rank(np.array([[1.0, np.nan], [2.0, 2.0]]))
        assert means[0] == 1.0 and means[1] == 2.0

    def test_row_without_ranks_is_nan_without_warning(self):
        # a combination that failed on every dataset: the suite turns numpy's
        # empty-slice RuntimeWarnings into errors
        means, stds = average_rank(np.array([[1.0, np.nan], [np.nan, np.nan]]))
        assert means[0] == 1.0 and stds[0] == 0.0
        assert np.isnan(means[1]) and np.isnan(stds[1])

    def test_rank_table_structure(self):
        ranks = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
        means, stds = average_rank(ranks)
        np.testing.assert_allclose(means, [1.5, 1.5, 3.0])
        np.testing.assert_allclose(stds, [0.5, 0.5, 0.0])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            average_rank(np.zeros((0, 0)))


class TestWilcoxon:
    def test_all_positive_five(self):
        res = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert res.w_plus == 15.0
        assert res.w_minus == 0.0
        assert res.n_effective == 5
        assert res.method == "exact"
        assert res.p_value == pytest.approx(0.0625)

    def test_balanced_tie_pair(self):
        res = wilcoxon_signed_rank([1, 0], [0, 1])
        assert res.w_plus == res.w_minus == 1.5
        assert res.p_value == 1.0

    def test_identical_inputs_degenerate(self):
        res = wilcoxon_signed_rank([0.3, 0.7, 0.1], [0.3, 0.7, 0.1])
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.n_effective == 0

    def test_rank_sum_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            res = wilcoxon_signed_rank(a, b)
            m = res.n_effective
            assert res.w_plus + res.w_minus == pytest.approx(m * (m + 1) / 2)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            ab = wilcoxon_signed_rank(a, b)
            ba = wilcoxon_signed_rank(b, a)
            assert ab.w_plus == ba.w_minus and ab.w_minus == ba.w_plus
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        base = wilcoxon_signed_rank(a, b)
        shifted = wilcoxon_signed_rank(a + 5.0, b + 5.0)
        assert shifted.w_plus == base.w_plus
        assert shifted.p_value == base.p_value

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            n = int(rng.integers(1, 13))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if case % 3 == 0:   # force ties in |d|
                half = rng.normal(size=n)
                sign = rng.choice([-1.0, 1.0], size=n)
                a = b + sign * np.round(np.abs(half), 1)
            if case % 5 == 0 and n > 2:  # force zero differences
                a = a.copy()
                a[: n // 3] = b[: n // 3]
            res = wilcoxon_signed_rank(a, b)
            w_oracle, p_oracle = brute_force_wilcoxon(a.tolist(), b.tolist())
            assert res.w_plus == pytest.approx(w_oracle, abs=1e-12), (a, b)
            assert res.p_value == pytest.approx(p_oracle, abs=1e-12), (a, b)

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    def test_matches_brute_force_beyond_acceptance_range(self, n):
        # acceptance criterion 4 stops at n = 12
        rng = np.random.default_rng(40 + n)
        for case in range(2):
            b = rng.normal(size=n)
            a = b + rng.normal(size=n)
            if case:   # ties in |d| and zero differences
                a = b + rng.choice([-1.0, 1.0], n) * rng.integers(0, 4, n) * 0.5
            res = wilcoxon_signed_rank(a, b)
            w_oracle, p_oracle = brute_force_wilcoxon(a.tolist(), b.tolist())
            assert res.w_plus == pytest.approx(w_oracle, abs=1e-12), (a, b)
            assert res.p_value == pytest.approx(p_oracle, abs=1e-12), (a, b)

    def test_matches_scipy_exact_when_clean(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            d = rng.normal(size=n)
            while len(np.unique(np.abs(d))) < n or np.any(d == 0):
                d = rng.normal(size=n)
            res = wilcoxon_signed_rank(d, np.zeros(n))
            ref = scipy_stats.wilcoxon(d, method="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_normal_approximation_large_n(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.4, 1.0, 60)
        b = rng.normal(0.0, 1.0, 60)
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "normal-approximation"
        scipy_stats = pytest.importorskip("scipy.stats")
        ref = scipy_stats.wilcoxon(a, b, correction=True, method="approx")
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([], [])

    @given(st.integers(0, 2 ** 31), st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_constant_offset_property(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(a - 3.25, b - 3.25)
        assert r1.p_value == r2.p_value
