import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln
from scipy.stats import kstest

from twohopsec import orderstats
from twohopsec.orderstats import (
    kth_largest_cdf,
    min_pair_cdf,
    mixture_cdf,
    sample_kth_largest,
    sample_min_pair,
    sample_topk_random,
    topk_random_cdf,
)


def smallest_order_stat_cdf(x: float, j: int, n: int) -> float:
    """Independent oracle: CDF of the j-th smallest of n rate-2 exponentials."""
    f = 1.0 - math.exp(-2.0 * x) if x > 0 else 0.0
    return math.fsum(
        math.comb(n, i) * f**i * (1.0 - f) ** (n - i) for i in range(j, n + 1)
    )


class TestMinPair:
    def test_origin(self):
        assert min_pair_cdf(0.0) == 0.0

    def test_median(self):
        assert min_pair_cdf(math.log(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_unit_point(self):
        # high-precision evaluation of 1 - e^{-2}
        assert min_pair_cdf(1.0) == pytest.approx(0.8646647167633873, abs=1e-15)

    def test_negative_is_zero(self):
        assert min_pair_cdf(-3.0) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            min_pair_cdf(math.nan)
        with pytest.raises(ValueError):
            min_pair_cdf(math.inf)


class TestKthLargest:
    def test_single_variable_is_parent(self):
        xs = np.linspace(0.01, 4.0, 50)
        assert np.allclose(kth_largest_cdf(xs, 1, 1), min_pair_cdf(xs), atol=1e-15)

    def test_max_of_three(self):
        # (1 - e^{-1})^3, cross-checked below against brute-force sampling
        assert kth_largest_cdf(0.5, 1, 3) == pytest.approx(0.2525804578276472, rel=1e-13)

    def test_minimum_identity(self):
        assert kth_largest_cdf(0.1, 5, 5) == pytest.approx(1 - math.exp(-1.0), rel=1e-13)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            kth_largest_cdf(0.5, 0, 3)
        with pytest.raises(ValueError):
            kth_largest_cdf(0.5, 4, 3)

    def test_smallest_order_stat_duality(self):
        # j-th largest equals the (n-j+1)-th smallest, computed independently
        for n in (1, 2, 5, 8):
            for j in range(1, n + 1):
                for x in (0.05, 0.3, 1.0, 2.5):
                    assert kth_largest_cdf(x, j, n) == pytest.approx(
                        smallest_order_stat_cdf(x, n - j + 1, n), abs=1e-12
                    )

    def test_large_n_is_finite(self):
        val = kth_largest_cdf(0.004, 500, 1000)
        assert 0.0 <= val <= 1.0

    def test_large_n_against_incomplete_beta_route(self):
        # independent algorithm: the binomial tail via the regularized
        # incomplete beta function
        from scipy.stats import binom

        for n in (100, 500, 1000):
            for j in (1, 2, n // 2, n):
                for x in (0.35, 0.7, 1.5, 3.0):
                    p = -math.expm1(-2.0 * x)
                    want = binom.sf(n - j, n, p)
                    if want < 1e-300:
                        continue
                    assert kth_largest_cdf(x, j, n) == pytest.approx(want, rel=1e-11)

    def test_sampling_agreement(self):
        rng = np.random.default_rng(101)
        draws = sample_kth_largest(3, 1, rng, size=100_000)
        ks = kstest(draws, lambda x: kth_largest_cdf(x, 1, 3))
        assert ks.statistic < 0.01


class TestTopkRandom:
    def test_k1_is_maximum(self):
        assert topk_random_cdf(0.5, 1, 4) == pytest.approx(0.1596613001511853, rel=1e-13)

    def test_k_equals_n_recovers_parent(self):
        xs = np.linspace(0.01, 3.0, 40)
        assert np.allclose(topk_random_cdf(xs, 5, 5), min_pair_cdf(xs), atol=1e-12)

    @pytest.mark.parametrize("n", [*range(1, 41), 291, 2000])
    def test_rank_mixture_identity(self, n):
        xs = np.concatenate([np.linspace(0.0, 3.0, 7), [1e-9, 0.004, 7.0, 50.0]])
        for k in sorted({1, 2, 3, 5, 8, 9, 16, n} & set(range(1, n + 1))):
            ranks = [lambda x, j=j: kth_largest_cdf(x, j, n) for j in range(1, k + 1)]
            for x in (xs, 0.0, 0.3, 50.0):
                got, want = topk_random_cdf(x, k, n), mixture_cdf(ranks, x)
                assert type(got) is type(want)
                assert np.array_equal(got, want), (n, k, x)

    @pytest.mark.parametrize("cdf, rank", [(kth_largest_cdf, 2), (kth_largest_cdf, 3),
                                           (topk_random_cdf, 3)])
    def test_a_call_does_not_depend_on_the_calls_before(self, cdf, rank):
        xs = np.array([0.2, 0.7])
        fresh = {shape: cdf(xs.reshape(shape), rank, 5) for shape in ((2,), (2, 1), (1, 2))}
        flat = cdf(xs, rank, 5)
        assert cdf(xs.reshape(2, 1), rank, 5).shape == (2, 1)
        assert np.array_equal(cdf(xs.reshape(1, 2), rank, 5), fresh[(1, 2)])
        flat *= 2.0  # a caller changing its result in place
        assert np.array_equal(cdf(xs, rank, 5), fresh[(2,)])
        cdf(np.array([0.2]), rank, 5)
        assert cdf(np.array(0.2), rank, 5).shape == ()
        assert cdf(xs.reshape(2, 1), rank, 5).shape == (2, 1)

    def test_numpy_integer_ranks(self, monkeypatch):
        monkeypatch.setattr(orderstats, "_log_factorial_table", [0.0])  # the table must grow
        got = kth_largest_cdf(0.5, np.int64(3), np.int64(5000))
        assert got == kth_largest_cdf(0.5, 3, 5000)
        assert topk_random_cdf(0.5, np.int32(4), np.int64(6000)) == topk_random_cdf(0.5, 4, 6000)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            topk_random_cdf(0.3, 0, 5)
        with pytest.raises(ValueError):
            topk_random_cdf(0.3, 6, 5)

    @pytest.mark.parametrize("x", [400.0, 1e300, 9e307, np.finfo(float).max])
    def test_is_one_up_to_the_largest_float(self, x):
        # past x = 8.99e307, -2x overflowed and the mass at l = n took 0 * -inf:
        # `bounds --n 181543 --k 3 --tau 1e300 --gamma-r 498` printed bound_t = nan
        assert topk_random_cdf(x, 3, 181543) == 1.0
        assert kth_largest_cdf(x, 1, 7) == 1.0
        assert np.array_equal(topk_random_cdf(np.array([x, 0.0]), 2, 9), [1.0, 0.0])

    def test_sampling_agreement(self):
        rng = np.random.default_rng(7)
        draws = sample_topk_random(5, 2, rng, size=100_000)
        ks = kstest(draws, lambda x: topk_random_cdf(x, 2, 5))
        assert ks.statistic < 0.01


class TestMixture:
    def test_identical_components(self):
        val = mixture_cdf([min_pair_cdf, min_pair_cdf, min_pair_cdf], 0.8)
        assert val == pytest.approx(min_pair_cdf(0.8), abs=1e-15)

    def test_two_steps(self):
        step = lambda at: (lambda x: np.where(np.asarray(x) >= at, 1.0, 0.0))
        assert mixture_cdf([step(1.0), step(3.0)], 2.0) == pytest.approx(0.5)

    def test_five_min_pairs(self):
        val = mixture_cdf([min_pair_cdf] * 5, 0.7)
        assert val == pytest.approx(0.7534030360583935, rel=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mixture_cdf([], 1.0)


class TestSamplers:
    def test_min_pair_ks(self):
        rng = np.random.default_rng(11)
        draws = sample_topk_random(1, 1, rng, size=100_000)
        assert kstest(draws, min_pair_cdf).statistic < 0.01

    def test_max_mean_matches_quadrature(self):
        # E[max] by quadrature of the survival function
        expected, _ = quad(lambda x: 1.0 - kth_largest_cdf(x, 1, 5), 0.0, 30.0)
        rng = np.random.default_rng(23)
        draws = sample_topk_random(5, 1, rng, size=100_000)
        assert draws.mean() == pytest.approx(expected, abs=0.01)

    def test_fixed_seed_repeats(self):
        a = sample_topk_random(6, 3, np.random.default_rng(99), size=50)
        b = sample_topk_random(6, 3, np.random.default_rng(99), size=50)
        assert np.array_equal(a, b)

    def test_scalar_draw(self):
        val = sample_min_pair(np.random.default_rng(1))
        assert isinstance(val, float) and val > 0


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    data=st.data(),
    x1=st.floats(min_value=0.0, max_value=8.0),
    x2=st.floats(min_value=0.0, max_value=8.0),
)
def test_cdf_properties(n, data, x1, x2):
    k = data.draw(st.integers(min_value=1, max_value=n))
    lo, hi = sorted((x1, x2))
    a, b = topk_random_cdf(lo, k, n), topk_random_cdf(hi, k, n)
    assert 0.0 <= a <= b <= 1.0
    assert topk_random_cdf(-1.0, k, n) == 0.0
    assert topk_random_cdf(60.0, k, n) == pytest.approx(1.0, abs=1e-12)


class TestLogFactorialTable:
    def test_matches_gammaln(self):
        l = np.arange(10_001)
        # each lies up to 3 ulp from the true log l! (mpmath), on either side
        np.testing.assert_array_max_ulp(np.array(orderstats._log_factorials(10_000))[l],
                                        gammaln(l + 1.0), maxulp=4)

    def test_values_do_not_depend_on_the_order_of_growth(self, monkeypatch):
        monkeypatch.setattr(orderstats, "_log_factorial_table", [0.0])
        large_first = orderstats._log_factorials(5000).copy()
        monkeypatch.setattr(orderstats, "_log_factorial_table", [0.0])
        orderstats._log_factorials(3)
        small_first = orderstats._log_factorials(5000)
        n = min(len(large_first), len(small_first))
        assert n > 5000
        assert all(type(v) is float for v in small_first)
        assert small_first[:n] == large_first[:n]
