import math

import mpmath as mp
import pytest

from twohopsec.bounds_equal import (
    max_eaves_equal,
    secrecy_bound_equal,
    secrecy_bound_equal_binomial_jammers,
    tau_max_equal,
    tau_min_equal,
    transmission_bound_equal,
    transmission_bound_equal_binomial_jammers,
)
from twohopsec.bounds_general import secrecy_bound_general
from twohopsec.orderstats import min_pair_cdf

mp.mp.dps = 50


def mp_survival(n, gamma_r, tau):
    return mp.e ** (-2 * gamma_r * (n - 1) * (1 - mp.e**-tau) * tau)


def mp_transmission(n, k, gamma_r, tau):
    """Arbitrary-precision direct double summation of the transmission bound."""
    psi = mp_survival(n, gamma_r, tau)
    q = mp.fsum(
        mp.fsum(
            mp.binomial(n, i) * (1 - psi) ** i * psi ** (n - i)
            for i in range(n - j + 1, n + 1)
        )
        for j in range(1, k + 1)
    ) / k
    return 2 * q - q**2


def mp_secrecy(n, m, gamma_e, tau):
    b = (1 / (1 + mp.mpf(gamma_e))) ** ((n - 1) * (1 - mp.e**-tau))
    return 2 * m * b - (m * b) ** 2


class TestTransmissionBound:
    def test_zero_tau(self):
        assert transmission_bound_equal(5, 2, 1.0, 0.0) == 0.0

    def test_k1_algebraic_collapse(self):
        for tau in (0.01, 0.05, 0.2, 0.8):
            psi = float(mp_survival(5, 1.0, tau))
            q = (1 - psi) ** 5
            expected = 2 * q - q * q
            assert transmission_bound_equal(5, 1, 1.0, tau) == pytest.approx(
                expected, abs=1e-12
            )

    def test_k_equals_n_parent_collapse(self):
        for tau in (0.02, 0.1, 0.5):
            x = 1.0 * 4 * (1 - math.exp(-tau)) * tau
            q = float(min_pair_cdf(x))
            assert transmission_bound_equal(5, 5, 1.0, tau) == pytest.approx(
                2 * q - q * q, abs=1e-12
            )

    def test_against_independent_summation(self):
        for n, k, gr, tau in [(5, 2, 1.0, 0.05), (8, 3, 0.5, 0.2), (10, 10, 2.0, 0.4)]:
            assert transmission_bound_equal(n, k, gr, tau) == pytest.approx(
                float(mp_transmission(n, k, gr, tau)), rel=1e-12
            )


class TestSecrecyBound:
    def test_no_eavesdroppers(self):
        b = secrecy_bound_equal(5, 0, 1.0, 0.5)
        assert b.value == 0.0 and not b.saturated

    def test_zero_tau(self):
        b = secrecy_bound_equal(5, 3, 1.0, 0.0)
        assert b.value == pytest.approx(2 * 3 - 9)
        assert b.saturated and b.effective == 1.0

    def test_point_value(self):
        tau = tau_min_equal(5, 1, math.e - 1, 0.19)
        b = secrecy_bound_equal(5, 1, math.e - 1, tau)
        assert b.value == pytest.approx(float(mp_secrecy(5, 1, math.e - 1, tau)), rel=1e-12)

    def test_raw_value_preserved_when_saturated(self):
        b = secrecy_bound_equal(4, 5, 0.5, 0.01)
        assert b.saturated
        assert b.value < 0  # 2x - x^2 turns negative beyond x = 2
        assert b.effective == 1.0


class TestTauMax:
    def test_worked_example_k1(self):
        assert tau_max_equal(5, 1, 1.0, 0.19) == pytest.approx(
            0.11476090125660519, rel=1e-12
        )

    def test_k2_infeasible_at_moderate_eps(self):
        assert tau_max_equal(5, 2, 1.0, 0.19) is None

    def test_limit_toward_unbounded(self):
        loose = tau_max_equal(5, 1, 1.0, 1 - 1e-12)
        tight = tau_max_equal(5, 1, 1.0, 0.19)
        assert loose > 10 * tight

    def test_n1_has_no_threshold(self):
        # a lone relay has no one to jam it: tau tunes no bound
        assert tau_max_equal(1, 1, 1.0, 0.19) is None
        with pytest.raises(ValueError, match="eps_t"):
            tau_max_equal(1, 1, 1.0, 1.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            tau_max_equal(5, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            tau_max_equal(5, 1, 1.0, 1.0)


class TestTauMin:
    def test_worked_example(self):
        assert tau_min_equal(5, 1, math.e - 1, 0.19) == pytest.approx(
            0.8571879103462934, rel=1e-12
        )

    def test_large_m_infeasible(self):
        assert tau_min_equal(5, 10_000, math.e - 1, 0.19) is None

    def test_loose_target_needs_no_jamming(self):
        assert tau_min_equal(5, 1, math.e - 1, 1 - 1e-14) == pytest.approx(0.0, abs=1e-6)

    def test_n1_has_no_threshold(self):
        assert tau_min_equal(1, 1, 1.0, 0.19) is None
        assert tau_min_equal(1, 0, 1.0, 0.19) is None
        with pytest.raises(ValueError, match="eps_s"):
            tau_min_equal(1, 1, 1.0, 0.0)

    def test_no_eavesdropper_needs_no_jamming(self):
        assert tau_min_equal(5, 0, 1.0, 0.19) == 0.0
        with pytest.raises(ValueError, match="eps_s"):
            tau_min_equal(5, 0, 1.0, 1.0)


class TestMaxEaves:
    def test_worked_example(self):
        tol = max_eaves_equal(5, 1, 1.0, math.e - 1, 0.19, 0.19)
        assert tol.bound == pytest.approx(0.1582559708835933, rel=1e-12)
        assert tol.count == 0

    def test_infeasible_reliability(self):
        assert max_eaves_equal(5, 2, 1.0, 1.0, 0.19, 0.19) is None

    def test_n1_has_no_tolerance(self):
        assert max_eaves_equal(1, 1, 1.0, 1.0, 0.19, 0.19) is None
        with pytest.raises(ValueError, match="eps_s"):
            max_eaves_equal(1, 1, 1.0, 1.0, 0.19, 1.0)

    def test_is_the_budget_at_the_relaxed_jammer_count(self):
        # the exponent (n-1)*tau_max stands in for (n-1)(1-e^-tau_max)
        n, ge, eps_s = 5, math.e - 1, 0.19
        tau_hi = tau_max_equal(n, 1, 1.0, 0.19)
        y = 1 - math.sqrt(1 - eps_s)
        tol = max_eaves_equal(n, 1, 1.0, ge, 0.19, eps_s)
        assert tol.bound == pytest.approx(y * (1 + ge) ** ((n - 1) * tau_hi), rel=1e-14)

    def test_growing_gamma_e_unbounded_trend(self):
        small = max_eaves_equal(5, 1, 1.0, 1.0, 0.19, 0.19).bound
        huge = max_eaves_equal(5, 1, 1.0, 1e12, 0.19, 0.19).bound
        assert huge > 1e4 * small


def mp_tau_max(n, gamma_r, eps_t):
    """k = 1: sqrt(-log(sqrt(1 - eps_t)) / (2 gamma_r (n-1))) at the float inputs."""
    return mp.sqrt(-mp.log(mp.sqrt(1 - mp.mpf(eps_t))) / (2 * mp.mpf(gamma_r) * (n - 1)))


def mp_budget(eps_s):
    return 1 - mp.sqrt(1 - mp.mpf(eps_s))


class TestAgainstHighPrecision:
    """The window and tolerance at targets where a naive float form loses digits.

    The references evaluate the same closed forms at 60 digits from the same
    float inputs.  Each case failed at 1e-10 while tau_min took log(1 + x),
    the k = 1 root took the log of sqrt(1 - eps_t), or the secrecy budget
    was formed as 1 - sqrt(1 - eps_s).
    """

    REL = 1e-10

    def test_tau_min_near_the_loosest_target(self):
        # tau_min ~ 5.4e-13 here: -log(1 + x) kept only 4 digits of it
        n, gamma_e, eps_s = 10**5, 1e8, 1 - 1e-12
        with mp.workdps(60):
            x = mp.log(mp_budget(eps_s)) / ((n - 1) * mp.log(1 + mp.mpf(gamma_e)))
            want = -mp.log(1 + x)
        got = tau_min_equal(n, 1, gamma_e, eps_s)
        assert got == pytest.approx(float(want), rel=self.REL, abs=0.0)

    @pytest.mark.parametrize("eps_t", [1e-6, 1e-9, 1e-12, 1e-15])
    def test_k1_tau_max_at_tight_targets(self, eps_t):
        with mp.workdps(60):
            want = mp_tau_max(5, 1.0, eps_t)
        assert tau_max_equal(5, 1, 1.0, eps_t) == pytest.approx(float(want), rel=self.REL, abs=0.0)

    @pytest.mark.parametrize("gamma_r", [5e-324, 1e-300, 1.7976931348623157e308])
    def test_k1_tau_max_at_extreme_thresholds(self, gamma_r):
        # tau_max^2 = 0.105 / (2 gamma_r) passed the largest float at the smallest
        # gamma_r, and 2 gamma_r did at the largest: the root read inf and 0
        with mp.workdps(60):
            want = mp_tau_max(2, gamma_r, 0.19)
        got = tau_max_equal(2, 1, gamma_r, 0.19)
        assert got == pytest.approx(float(want), rel=self.REL, abs=0.0)

    def test_tolerance_at_a_tight_reliability_target(self):
        # the exponent (n-1)*tau_max is ~1e6 here, so an error in tau_max is
        # multiplied by ~1e6 * log(1 + gamma_e) in the tolerance
        n, gamma_r, gamma_e, eps_t, eps_s = 100, 1e-12, 1e8, 1e-12, 0.19
        with mp.workdps(60):
            want = mp_budget(eps_s) * (1 + mp.mpf(gamma_e)) ** ((n - 1) * mp_tau_max(
                n, gamma_r, eps_t))
        got = max_eaves_equal(n, 1, gamma_r, gamma_e, eps_t, eps_s).bound
        assert got == pytest.approx(float(want), rel=self.REL, abs=0.0)

    @pytest.mark.parametrize("eps_s", [1e-9, 1e-12, 1e-15, 5e-324])
    def test_tolerance_at_tight_secrecy_targets(self, eps_s):
        n, gamma_e = 5, math.e - 1
        with mp.workdps(60):
            want = mp_budget(eps_s) * (1 + mp.mpf(gamma_e)) ** ((n - 1) * mp_tau_max(n, 1.0, 0.19))
        got = max_eaves_equal(n, 1, 1.0, gamma_e, 0.19, eps_s).bound
        assert got == pytest.approx(float(want), rel=self.REL, abs=0.0)


FEASIBLE_GRID = [
    (n, k, gr, ge, eps_t, eps_s, m)
    for n in (2, 3, 5, 10)
    for k in (1, 2, 3)
    if k <= n
    for gr in (0.5, 1.0)
    for ge in (1.0, math.e - 1)
    for eps_t in (0.19, 0.5, 0.99)
    for eps_s in (0.19, 0.5)
    for m in (1, 3)
]


class TestSelfConsistencyChains:
    def test_reliability_chain(self):
        checked = 0
        for n, k, gr, ge, eps_t, eps_s, m in FEASIBLE_GRID:
            tau_hi = tau_max_equal(n, k, gr, eps_t)
            if tau_hi is None:
                continue
            assert transmission_bound_equal(n, k, gr, tau_hi) <= eps_t + 1e-9
            checked += 1
        assert checked > 20

    def test_secrecy_chain(self):
        checked = 0
        for n, k, gr, ge, eps_t, eps_s, m in FEASIBLE_GRID:
            tau_lo = tau_min_equal(n, m, ge, eps_s)
            if tau_lo is None:
                continue
            assert secrecy_bound_equal(n, m, ge, tau_lo).value <= eps_s + 1e-9
            checked += 1
        assert checked > 20

    def test_tolerance_floor_consistency_at_moderate_targets(self):
        # The tolerance formula is a necessary condition: its exponent uses
        # (n-1)*tau_max in place of (n-1)(1-e^-tau_max), so the floored count
        # is guaranteed consistent only while the targets stay moderate.
        checked = 0
        for n, k, gr, ge, eps_t, eps_s, m in FEASIBLE_GRID:
            if eps_t > 0.3 or eps_s > 0.3:
                continue
            tau_hi = tau_max_equal(n, k, gr, eps_t)
            tol = max_eaves_equal(n, k, gr, ge, eps_t, eps_s)
            if tau_hi is None or tol is None or tol.count is None:
                continue
            if tol.count >= 1:
                assert secrecy_bound_equal(n, tol.count, ge, tau_hi).value <= eps_s + 1e-9
            checked += 1
        assert checked > 20

    def test_tolerance_slack_is_the_exponent_relaxation(self):
        # Known boundary case: at loose targets the floored tolerance count
        # exceeds what the secrecy bound supports at tau_max ...
        n, k, gr, ge = 10, 1, 1.0, math.e - 1
        eps_t = eps_s = 0.5
        tau_hi = tau_max_equal(n, k, gr, eps_t)
        tol = max_eaves_equal(n, k, gr, ge, eps_t, eps_s)
        assert tol.count == 1
        assert secrecy_bound_equal(n, tol.count, ge, tau_hi).value > eps_s
        # ... while the exact inversion of the secrecy bound at tau_max is
        # always consistent, isolating the slack in the exponent relaxation.
        y = 1 - math.sqrt(1 - eps_s)
        exact = y * (1 + ge) ** ((n - 1) * (1 - math.exp(-tau_hi)))
        assert exact < tol.bound
        m_exact = math.floor(exact)
        if m_exact >= 1:
            assert secrecy_bound_equal(n, m_exact, ge, tau_hi).value <= eps_s + 1e-9


class TestBinomialJammerDiagnostics:
    def test_transmission_matches_direct_expectation(self):
        n, k, gr, tau = 6, 2, 1.0, 0.3
        p = 1 - mp.e**-tau
        from twohopsec.orderstats import topk_random_cdf

        expected_q = mp.fsum(
            mp.binomial(n - 1, j) * p**j * (1 - p) ** (n - 1 - j)
            * mp.mpf(float(topk_random_cdf(gr * j * tau, k, n)))
            for j in range(n)
        )
        expected = float(2 * expected_q - expected_q**2)
        assert transmission_bound_equal_binomial_jammers(n, k, gr, tau) == pytest.approx(
            expected, rel=1e-10
        )

    def test_secrecy_closed_form(self):
        n, m, ge, tau = 6, 2, 1.0, 0.3
        p = 1 - math.exp(-tau)
        b = (1 - p * ge / (1 + ge)) ** (n - 1)
        x = m * b
        got = secrecy_bound_equal_binomial_jammers(n, m, ge, tau)
        assert got.value == pytest.approx(2 * x - x * x, rel=1e-12)

    def test_zero_tau_matches_plain_bound(self):
        assert transmission_bound_equal_binomial_jammers(5, 2, 1.0, 0.0) == 0.0
        assert secrecy_bound_equal_binomial_jammers(5, 1, 1.0, 0.0).value == pytest.approx(
            secrecy_bound_equal(5, 1, 1.0, 0.0).value
        )

    def test_no_overflow_past_a_thousand_relays(self):
        assert 0.0 <= transmission_bound_equal_binomial_jammers(1500, 3, 1.0, 0.2) <= 1.0

    def test_a_jamming_level_past_the_float_range_is_certain_outage(self):
        # gamma_r * j * tau overflowed with a RuntimeWarning, and the top-k CDF
        # then rejected the infinite argument; one jammer is certain failure
        q = -math.expm1(-2.0)  # P(the other relay jams)
        got = transmission_bound_equal_binomial_jammers(2, 1, 1.7976931348623157e308, 2.0)
        assert got == pytest.approx(2 * q - q * q, rel=1e-15)


@pytest.mark.parametrize("bound, args", [
    (transmission_bound_equal, (5, 1, -1.0, 0.3)),
    (transmission_bound_equal, (5, 1, 1.0, -0.3)),
    (transmission_bound_equal_binomial_jammers, (5, 1, -1.0, 0.3)),
    (secrecy_bound_equal_binomial_jammers, (5, 1, -0.5, 0.3)),
    (secrecy_bound_equal_binomial_jammers, (0, 1, 1.0, 0.3)),
    (secrecy_bound_general, (5, 1, -0.5, 0.3, 0.05, 3.0, 0.05)),
    (secrecy_bound_general, (5, 1, 1.0, -0.3, 0.05, 3.0, 0.05)),
    (secrecy_bound_general, (0, 1, 1.0, 0.3, 0.05, 3.0, 0.05)),
])
def test_bound_rejects_inputs_the_model_rejects(bound, args):
    # ProtocolParams rejects these first; a direct call used to return a number
    with pytest.raises(ValueError, match=r"require n >= 1, gamma_[re] > 0, tau >= 0"):
        bound(*args)


class TestInfiniteTau:
    def test_transmission_takes_the_limit(self):
        assert transmission_bound_equal(5, 2, 1.0, math.inf) == 1.0

    def test_secrecy_counts_every_other_relay_as_jammer(self):
        x = 2 * (1 / (1 + 1.5)) ** 4
        assert secrecy_bound_equal(5, 2, 1.5, math.inf).value == pytest.approx(2 * x - x * x)

    def test_binomial_jammer_variant_has_the_same_limit(self):
        assert transmission_bound_equal_binomial_jammers(5, 2, 1.0, math.inf) == 1.0
        assert transmission_bound_equal_binomial_jammers(1, 1, 1.0, math.inf) == 0.0

    def test_single_relay_has_no_jammers(self):
        assert transmission_bound_equal(1, 1, 1.0, math.inf) == 0.0
        assert secrecy_bound_equal(1, 1, 1.0, math.inf).value == 1.0
