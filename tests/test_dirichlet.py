import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoflow.dirichlet import (
    CountVector,
    DirichletParams,
    SimplexVector,
    mean,
    multinomial_pmf,
    noninformative_posterior,
    sample,
)
from infoflow.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NonIntegerCountError,
    RowSumError,
)


def cv(*counts, labels=None):
    labels = labels or tuple(f"s{i}" for i in range(len(counts)))
    return CountVector(labels, counts)


def simplex(*theta, labels=None):
    labels = labels or tuple(f"s{i}" for i in range(len(theta)))
    return SimplexVector(labels, theta)


class TestTypes:
    def test_count_vector_total(self):
        assert cv(30, 20, 10).total == 60.0

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeEntryError):
            cv(1, -2)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            DirichletParams(("a", "b"), [1.0, 0.0])

    def test_simplex_sum_enforced(self):
        with pytest.raises(RowSumError):
            simplex(0.5, 0.6)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            CountVector(("a",), [1, 2])


class TestMultinomialPmf:
    def test_single_trial(self):
        assert multinomial_pmf(cv(1, 0), simplex(0.3, 0.7)) == pytest.approx(0.3)

    def test_three_trials(self):
        assert multinomial_pmf(cv(2, 1), simplex(0.5, 0.5)) == pytest.approx(0.375)

    def test_zero_probability_category_with_counts(self):
        assert multinomial_pmf(cv(1, 1), simplex(1.0, 0.0)) == 0.0

    def test_non_integer_counts_rejected(self):
        with pytest.raises(NonIntegerCountError):
            multinomial_pmf(cv(1.5, 0.5), simplex(0.5, 0.5))

    def test_label_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            multinomial_pmf(cv(1, 0, labels=("x", "y")), simplex(0.5, 0.5))

    def test_maximized_at_frequency_ratios(self):
        # Grid-search oracle at resolution 0.005: no simplex grid point beats
        # the observed-frequency ratios (0.5, 1/3, 1/6) for counts (30,20,10).
        counts = cv(30, 20, 10)
        best = multinomial_pmf(counts, simplex(0.5, 1 / 3, 1 / 6))
        steps = 200
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                t = (i / steps, j / steps, (steps - i - j) / steps)
                assert multinomial_pmf(counts, simplex(*t)) <= best + 1e-15

    @pytest.mark.parametrize("theta", [(1.0,), (0.4, 0.6), (0.2, 0.3, 0.5)])
    @pytest.mark.parametrize("n", range(7))
    def test_sums_to_one_over_all_count_vectors(self, theta, n):
        k = len(theta)
        total = 0.0
        for combo in itertools.product(range(n + 1), repeat=k):
            if sum(combo) != n:
                continue
            total += multinomial_pmf(cv(*combo, labels=tuple("abc"[:k])),
                                     simplex(*theta, labels=tuple("abc"[:k])))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPosterior:
    def test_flat_prior_update(self):
        # The flat Dirichlet(1, ..., 1) prior updated by the counts: 1 + N.
        post = noninformative_posterior(cv(30, 20, 10, labels=("D", "E", "DI")))
        assert post.labels == ("D", "E", "DI")
        assert post.alpha.tolist() == [31.0, 21.0, 11.0]

    def test_noninformative(self):
        assert noninformative_posterior(cv(30, 20, 10)).alpha.tolist() == [31, 21, 11]
        assert noninformative_posterior(cv(0)).alpha.tolist() == [1.0]
        assert noninformative_posterior(cv(35, 5)).alpha.tolist() == [36.0, 6.0]


class TestMean:
    def test_posterior_mean(self):
        m = mean(DirichletParams(("D", "E", "DI"), [31, 21, 11]))
        np.testing.assert_allclose(m.theta, [31 / 63, 21 / 63, 11 / 63], atol=1e-15)

    def test_symmetric(self):
        np.testing.assert_allclose(
            mean(DirichletParams(("a", "b", "c"), [1, 1, 1])).theta, [1 / 3] * 3
        )

    def test_two_categories(self):
        np.testing.assert_allclose(
            mean(DirichletParams(("a", "b"), [2, 8])).theta, [0.2, 0.8], atol=1e-15
        )


class TestSample:
    def params(self):
        return DirichletParams(("D", "E", "DI"), [31, 21, 11])

    def test_deterministic_for_fixed_seed(self):
        a = sample(self.params(), np.random.default_rng(42))
        b = sample(self.params(), np.random.default_rng(42))
        assert np.array_equal(a.theta, b.theta)
        c = sample(self.params(), np.random.default_rng(43))
        assert not np.array_equal(a.theta, c.theta)

    def test_concentrated_mass(self):
        params = DirichletParams(("a", "b", "c"), [1e9, 1, 1])
        rng = np.random.default_rng(1)
        for _ in range(1000):
            theta = sample(params, rng).theta
            assert np.max(np.abs(theta - [1.0, 0.0, 0.0])) < 1e-3

    def test_draws_satisfy_simplex_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            theta = sample(self.params(), rng).theta
            assert abs(theta.sum() - 1.0) <= 1e-9

    def test_empirical_moments_match_analytic(self):
        # Law-of-large-numbers oracle at 100k draws: mean within 0.005 and
        # variance within 3 standard errors (empirical fourth moment).
        params = self.params()
        rng = np.random.default_rng(11)
        draws = np.array([sample(params, rng).theta for _ in range(100_000)])
        alpha = params.alpha
        a0 = alpha.sum()
        expected_mean = alpha / a0
        expected_var = alpha * (a0 - alpha) / (a0**2 * (a0 + 1))
        assert np.max(np.abs(draws.mean(axis=0) - expected_mean)) < 0.005
        var = draws.var(axis=0, ddof=1)
        centered = draws - draws.mean(axis=0)
        mu4 = (centered**4).mean(axis=0)
        se = np.sqrt((mu4 - expected_var**2) / len(draws))
        assert np.all(np.abs(var - expected_var) < 3 * se)

    @given(st.lists(st.floats(0.5, 50), min_size=1, max_size=6), st.integers(0, 2**32))
    @settings(max_examples=50)
    def test_any_parameters_give_valid_simplex(self, alpha, seed):
        labels = tuple(f"s{i}" for i in range(len(alpha)))
        theta = sample(DirichletParams(labels, alpha), np.random.default_rng(seed)).theta
        assert math.isclose(theta.sum(), 1.0, abs_tol=1e-9)
        assert np.all(theta >= 0)
