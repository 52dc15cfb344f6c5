import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohopsec import bounds_general
from twohopsec.bounds_equal import max_eaves_equal
from twohopsec.bounds_general import (
    _GL_NODES,
    _GL_WEIGHTS,
    GeometryIntegrals,
    _binom_sums,
    _log_survival_target,
    QuadratureError,
    channel_survival_base,
    disc_square_overlap,
    geometry_integrals,
    max_eaves_general,
    region_sums,
    secrecy_bound_general,
    tau_max_general,
    tau_min_general,
    transmission_bound_general,
)

mp.mp.dps = 40

ALPHA, DELTA = 2.0, 0.05
GEO = geometry_integrals(ALPHA, DELTA)


def grid_integral(cx, cy, alpha, delta, cells):
    """Independent midpoint-rule oracle on a cells x cells grid."""
    xs = (np.arange(cells) + 0.5) / cells - 0.5
    total = 0.0
    for chunk in np.array_split(xs, 8):
        d = np.hypot(xs[None, :] - cx, chunk[:, None] - cy)
        total += float(np.sum(np.maximum(d, delta) ** (-alpha)))
    return total / (cells * cells)


class TestGeometryIntegrals:
    def test_quadrature_rule_is_leggauss_16_to_the_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert all(type(v) is float for v in _GL_NODES + _GL_WEIGHTS)
        assert np.array(_GL_NODES).tobytes() == nodes.tobytes()
        assert np.array(_GL_WEIGHTS).tobytes() == weights.tobytes()

    def test_clamp_always_binding_is_exact(self):
        geo = geometry_integrals(2.0, 1.5)
        expected = 1.5**-2
        for v in (geo.midpoint, geo.endpoint, geo.corner):
            assert v == pytest.approx(expected, rel=1e-12)

    def test_endpoint_smaller_than_midpoint(self):
        # half the singular neighbourhood around the edge midpoint lies
        # outside the square
        assert GEO.endpoint < GEO.midpoint

    def test_corner_smallest(self):
        assert GEO.corner < GEO.endpoint

    def test_against_grid_oracle(self):
        for alpha, delta in ((2.0, 0.05), (3.0, 0.1), (4.0, 0.02)):
            geo = geometry_integrals(alpha, delta)
            for value, center in (
                (geo.midpoint, (0.0, 0.0)),
                (geo.endpoint, (0.5, 0.0)),
                (geo.corner, (0.5, 0.5)),
            ):
                oracle = grid_integral(center[0], center[1], alpha, delta, 2048)
                assert value == pytest.approx(oracle, rel=2e-4)

    def test_resolution_doubling_stable(self):
        a = geometry_integrals(ALPHA, DELTA, resolution=8)
        b = geometry_integrals(ALPHA, DELTA, resolution=16)
        for x, y in ((a.midpoint, b.midpoint), (a.endpoint, b.endpoint), (a.corner, b.corner)):
            assert abs(x - y) <= 1e-4 * abs(y)

    def test_non_convergence_raises(self):
        with pytest.raises(QuadratureError):
            geometry_integrals(2.0, 0.0433, resolution=8, max_resolution=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometry_integrals(1.5, 0.05)
        with pytest.raises(ValueError):
            geometry_integrals(2.0, 0.0)
        with pytest.raises(ValueError):
            GeometryIntegrals(midpoint=-1.0, endpoint=1.0, corner=1.0,
                              alpha=2.0, delta=0.05, resolution=8)


class TestDiscSquareOverlap:
    def test_small_radius_is_disc_area(self):
        assert disc_square_overlap(0.3) == pytest.approx(math.pi * 0.09, rel=1e-14)

    def test_covering_radius(self):
        assert disc_square_overlap(math.sqrt(0.5)) == pytest.approx(1.0, abs=1e-12)
        assert disc_square_overlap(5.0) == 1.0

    def test_intermediate_against_grid(self):
        for r in (0.55, 0.6, 0.65):
            cells = 4000
            xs = (np.arange(cells) + 0.5) / cells - 0.5
            inside = (xs[None, :] ** 2 + xs[:, None] ** 2) <= r * r
            frac = inside.mean()
            assert disc_square_overlap(r) == pytest.approx(frac, abs=2e-3)


class TestSurvivalBase:
    def test_no_jamming(self):
        assert channel_survival_base(5, 1.0, 0.0, 0.3, 2.0) == 1.0

    def test_single_relay(self):
        assert channel_survival_base(1, 1.0, 2.0, 0.3, 2.0) == 1.0

    def test_point_value(self):
        assert channel_survival_base(2, 1.0, 0.1, 0.5, 2.0) == pytest.approx(
            0.9905288780989431, rel=1e-13
        )

    def test_infinite_radius(self):
        assert channel_survival_base(5, 1.0, 0.5, math.inf, 2.0) == 0.0

    @pytest.mark.parametrize("tau", [1e-300, 5e-324])
    def test_infinite_radius_at_a_tau_whose_product_underflows(self, tau):
        # tau * (1 - e^-tau) underflows to 0, and 0 * inf used to give NaN:
        # `bounds --case general --tau 1e-300` printed bound_t = nan
        assert channel_survival_base(5, 1.0, tau, math.inf, 2.0) == 0.0
        assert transmission_bound_general(5, 1, math.inf, 1.0, tau, ALPHA, DELTA) == 1.0

    def test_radius_past_the_float_range(self):
        # (0.5 + r)^alpha overflowed with OverflowError; it reads as r = inf now
        assert channel_survival_base(5, 1.0, 0.5, 1e300, 2.0) == 0.0
        assert transmission_bound_general(5, 1, 1e300, 1.0, 0.5, ALPHA, DELTA) == 1.0
        assert tau_max_general(5, 5, 1e300, 1.0, ALPHA, DELTA, 0.19) == 0.0

    def test_an_underflowing_tau_max_denominator_gives_the_root(self):
        # gamma_r * (n-1) * (phi1+phi2) * (0.5+r)^alpha rounds to 0 here: the root
        # raised ZeroDivisionError, then FloatingPointError (exit 3); the quotient
        # is now formed in log space
        want = mp_tau_max_general(2, 1, 1.0, 5e-324, 2.0, 2.0, 1e-15)
        assert want == pytest.approx(9.48e153, rel=1e-3)
        assert tau_max_general(2, 1, 1.0, 5e-324, 2.0, 2.0, 1e-15) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_a_nan_bound_raises(self, monkeypatch):
        monkeypatch.setattr(bounds_general, "channel_survival_base", lambda *args: math.nan)
        with pytest.raises(FloatingPointError, match="NaN"):
            transmission_bound_general(5, 1, 0.3, 1.0, 0.2, ALPHA, DELTA)


class TestNuCoeffs:
    """The in-region masses behind nu1 = k^2 P(1 <= L <= k) and nu2 = k^2 P(L > k)."""

    def test_zero_radius(self):
        assert region_sums(4, 2, 0.0) == (1.0, 0.0, 0.0)

    def test_k_equals_n_upper_sum_empty(self):
        _, s1, s2 = region_sums(4, 4, 0.25)
        assert s2 == 0.0

    def test_hand_binomial_arithmetic(self):
        r = math.sqrt(0.25 / math.pi)  # pi r^2 = 0.25
        empty, s1, s2 = region_sums(4, 2, r)
        assert empty == pytest.approx(1.265625 / 4, rel=1e-9)
        assert s1 == pytest.approx(2.53125 / 4, rel=1e-9)
        assert s2 == pytest.approx(0.203125 / 4, rel=1e-9)

    def test_region_probability_cap(self):
        # past the inscribed disc the region law is the clipped disc, not pi*r^2 > 1
        assert region_sums(4, 2, 0.7) == _binom_sums(4, 2, disc_square_overlap(0.7))
        assert region_sums(4, 2, math.inf) == (0.0, 0.0, 1.0)
        assert region_sums(4, 4, math.inf) == (0.0, 1.0, 0.0)


def exact_binom_sums(n, ks, p):
    """{k: (P(L = 0), P(1 <= L <= k), P(L > k))} in exact arithmetic.

    A float p is a dyadic rational a/d, so each mass is an integer over d^n.
    """
    a, d = p.as_integer_ratio()
    pa, pb = [1], [1]
    for _ in range(n):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * (d - a))
    cum = [0]
    for l in range(n + 1):
        cum.append(cum[-1] + math.comb(n, l) * pa[l] * pb[n - l])
    total = d**n
    return {k: (float(Fraction(cum[1], total)),
                float(Fraction(cum[k + 1] - cum[1], total)),
                float(Fraction(cum[n + 1] - cum[k + 1], total)))
            for k in ks}


class TestBinomSums:
    # log C(n, l) is a difference of gammaln values as large as log(1000!) =
    # 5912, whose float spacing is 9.1e-13: the worst error measured on this
    # grid is 1.1e-12 relative, at n = 1000.
    REL = 2e-12

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 293, 1000])
    @pytest.mark.parametrize("p", [0.0, 2.0**-20, math.pi * 0.01, math.pi * 0.09, 0.5,
                                   1 - 2.0**-10, 1.0])
    def test_matches_exact_arithmetic(self, n, p):
        ks = sorted({1, 2, 3, 5, n // 2, n - 1, n} & set(range(1, n + 1)))
        for k, want in exact_binom_sums(n, ks, p).items():
            assert _binom_sums(n, k, p) == pytest.approx(want, rel=self.REL, abs=0.0), k

    def test_degenerate_probabilities_are_exact(self):
        assert _binom_sums(9, 3, 0.0) == (1.0, 0.0, 0.0)
        assert _binom_sums(9, 3, 1.0) == (0.0, 0.0, 1.0)
        assert _binom_sums(9, 9, 1.0) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("n", [1031, 1500, 10_000])
    def test_no_overflow_past_a_thousand_relays(self, n):
        _, s1, s2 = _binom_sums(n, 3, math.pi * 0.09)
        assert 0.0 <= s1 <= 1.0 and s2 == pytest.approx(1.0, rel=1e-9)


def mp_transmission_general(n, k, p, gamma_r, tau, r, alpha, phi):
    u = mp.e ** (-mp.mpf(gamma_r) * tau * (n - 1) * (1 - mp.e**-mp.mpf(tau)) * (0.5 + r) ** alpha)
    s1 = mp.fsum(mp.binomial(n, l) * mp.mpf(p) ** l * (1 - mp.mpf(p)) ** (n - l) for l in range(1, k + 1))
    s2 = mp.fsum(mp.binomial(n, l) * mp.mpf(p) ** l * (1 - mp.mpf(p)) ** (n - l) for l in range(k + 1, n + 1))
    return float(1 - u ** mp.mpf(phi) * s1 - u ** (2 * mp.mpf(phi)) / k**2 * s2)


class TestTransmissionBoundGeneral:
    def test_zero_radius_certain_outage(self):
        assert transmission_bound_general(5, 2, 0.0, 1.0, 0.1, ALPHA, DELTA) == 1.0

    def test_zero_tau_direct_summation(self):
        n, k, r = 5, 2, 0.3
        p = math.pi * r * r
        s1 = sum(math.comb(n, l) * p**l * (1 - p) ** (n - l) for l in range(1, k + 1))
        s2 = sum(math.comb(n, l) * p**l * (1 - p) ** (n - l) for l in range(k + 1, n + 1))
        expected = 1 - s1 - s2 / (k * k)
        assert transmission_bound_general(n, k, r, 1.0, 0.0, ALPHA, DELTA) == pytest.approx(
            expected, abs=1e-12
        )

    def test_against_independent_evaluation(self):
        n, k, r, gr, tau = 5, 2, 0.3, 1.0, 0.1
        expected = mp_transmission_general(
            n, k, math.pi * r * r, gr, tau, r, ALPHA, GEO.hop_sum
        )
        assert transmission_bound_general(n, k, r, gr, tau, ALPHA, DELTA) == pytest.approx(
            expected, rel=1e-10
        )

    def test_radius_over_probability_cap(self):
        # pi*r^2 > 1 at r = 0.6: the bound takes the clipped disc's probability
        n, k, r, gr, tau = 5, 2, 0.6, 1.0, 0.1
        expected = mp_transmission_general(
            n, k, disc_square_overlap(r), gr, tau, r, ALPHA, GEO.hop_sum
        )
        assert transmission_bound_general(n, k, r, gr, tau, ALPHA, DELTA) == pytest.approx(
            expected, rel=1e-10
        )

    def test_corollary_sentinel_full_coverage(self):
        # once the disc covers the square (r >= sqrt(0.5)) every relay is in
        # the region, and with k = n the bound depends on the radius only
        # through the survival factor
        n, tau, gr = 5, 0.05, 1.0
        for r in (0.75, 0.8, 1.0):
            u = channel_survival_base(n, gr, tau, r, ALPHA)
            expected = 1.0 - u**GEO.hop_sum
            got = transmission_bound_general(n, n, r, gr, tau, ALPHA, DELTA)
            assert got == pytest.approx(expected, abs=1e-12)


class TestSecrecyBoundGeneral:
    def test_no_eavesdroppers(self):
        assert secrecy_bound_general(5, 0, 1.0, 0.5, 0.05, ALPHA, DELTA).value == 0.0

    def test_d0_zero_collapse(self):
        b = secrecy_bound_general(5, 3, 1.0, 0.7, 0.0, ALPHA, DELTA)
        assert b.value == pytest.approx(2 * 3 - 9, abs=1e-12)
        assert b.saturated

    def test_point_value(self):
        n, m, ge, tau, d0 = 5, 1, 1.0, 1.0, 0.05
        cap = math.pi * d0 * d0
        base = 1.0 / (1.0 + ge * GEO.corner * d0**ALPHA)
        w = cap + base ** ((n - 1) * (1 - math.exp(-tau))) * (1 - cap)
        expected = 2 * m * w - (m * w) ** 2
        got = secrecy_bound_general(n, m, ge, tau, d0, ALPHA, DELTA)
        assert got.value == pytest.approx(expected, rel=1e-12)


class TestTauWindowsGeneral:
    def test_tau_max_back_substitution(self):
        checked = 0
        for n in (5, 10):
            for k in (1, 2):
                for r in (0.2, 0.3):
                    for eps_t in (0.2, 0.3, 0.5):
                        tau_hi = tau_max_general(n, k, r, 1.0, ALPHA, DELTA, eps_t)
                        if tau_hi is None:
                            continue
                        bound = transmission_bound_general(n, k, r, 1.0, tau_hi, ALPHA, DELTA)
                        assert bound <= eps_t + 1e-9
                        checked += 1
        assert checked >= 8

    def test_degenerate_k_equals_n_linear_fallback(self):
        n = k = 5
        r, eps_t = 0.3, 0.3
        tau_hi = tau_max_general(n, k, r, 1.0, ALPHA, DELTA, eps_t)
        p = math.pi * r * r
        s1 = sum(math.comb(n, l) * p**l * (1 - p) ** (n - l) for l in range(1, n + 1))
        u_star = (1 - eps_t) / s1
        expected = math.sqrt(
            -math.log(u_star) / (1.0 * (n - 1) * GEO.hop_sum * (0.5 + r) ** ALPHA)
        )
        assert tau_hi == pytest.approx(expected, rel=1e-12)
        assert transmission_bound_general(n, k, r, 1.0, tau_hi, ALPHA, DELTA) <= eps_t + 1e-9

    def test_quadratic_limit_matches_linear_fallback(self):
        # one root for both: linear at nu2 = 0, tending to it as nu2 vanishes
        s1, eps_t, k = 0.6, 0.3, 2
        linear = math.log((1 - eps_t) / s1)
        for s2, rel in ((0.0, 1e-15), (1e-9, 1e-8), (1e-30, 1e-15)):
            # at s2 = 1e-30, far below nu1's last digit, an unrationalized root cancels to 0
            got = _log_survival_target(k, eps_t, (1.0 - s1 - s2, s1, s2))
            assert got == pytest.approx(linear, rel=rel)

    def test_tiny_above_k_mass_leaves_the_window_as_at_k_equals_n(self):
        # P(L > 99) ~ 1e-55 at n = 100, r = 0.3: the requirement still binds
        for r in (0.3, 0.1):
            at_k_99 = tau_max_general(100, 99, r, 1.0, ALPHA, DELTA, 0.19)
            assert at_k_99 == pytest.approx(tau_max_general(100, 100, r, 1.0, ALPHA, DELTA, 0.19),
                                            rel=1e-12)
        assert tau_max_general(20, 19, 0.01, 1.0, ALPHA, DELTA, 0.19) is None

    def test_zero_region_infeasible(self):
        assert tau_max_general(5, 2, 0.0, 1.0, ALPHA, DELTA, 0.3) is None

    def test_tau_min_back_substitution(self):
        # needs a large capture radius before jamming can matter in the bound
        n, m, ge, d0 = 5, 1, 1.0, 0.3
        for eps_s in (0.5, 0.8):
            tau_lo = tau_min_general(n, m, ge, d0, ALPHA, DELTA, eps_s)
            if tau_lo is None:
                continue
            bound = secrecy_bound_general(n, m, ge, tau_lo, d0, ALPHA, DELTA)
            assert bound.value <= eps_s + 1e-9

    def test_tau_min_d0_zero_surfaced_infeasible(self):
        assert tau_min_general(5, 1, 1.0, 0.0, ALPHA, DELTA, 0.19) is None

    def test_zero_capture_radius_at_an_overflowing_level(self):
        # gamma_e * psi overflows to inf and d0^alpha is 0: the level used to be
        # inf * 0 = NaN, and `bounds --case general --d0 0 --alpha 40 --gamma-e 1e300`
        # printed bound_s = nan and tau_min = nan
        ge, d0, alpha, delta = 1e300, 0.0, 40.0, 0.001
        assert bounds_general._eaves_level(ge, d0, alpha, delta) == 0.0
        assert secrecy_bound_general(10, 1, ge, 0.2, d0, alpha, delta).value == 1.0
        assert tau_min_general(10, 1, ge, d0, alpha, delta, 0.19) is None
        tol = max_eaves_general(10, 1, 0.4, 1.0, ge, d0, alpha, delta, 0.19, 0.19)
        assert tol.bound == pytest.approx(0.1, rel=1e-15)

    def test_tau_min_budget_exhausted_by_capture(self):
        assert tau_min_general(5, 50, 1.0, 0.05, ALPHA, DELTA, 0.19) is None

    def test_capture_disc_parameter_error(self):
        with pytest.raises(ValueError):
            tau_min_general(5, 1, 1.0, 0.6, ALPHA, DELTA, 0.19)


@st.composite
def _general_inputs(draw):
    n = draw(st.integers(2, 300))
    k = draw(st.one_of(st.sampled_from([n - 2, n - 1, n]).filter(lambda k: k >= 1),
                       st.integers(1, n)))
    r = draw(st.one_of(st.floats(0.0, 0.1), st.floats(0.0, 0.56)))
    return n, k, r


@settings(max_examples=300, deadline=None)
@given(inputs=_general_inputs(), gamma_r=st.floats(1e-200, 1e200),
       alpha=st.floats(2.0, 8.0), delta=st.floats(1e-3, 0.5),
       eps_t=st.floats(1e-9, 1 - 1e-9))
def test_survival_target_solves_the_reliability_quadratic(inputs, gamma_r, alpha, delta, eps_t):
    """The target puts the transmission bound at eps_t; tau_max is None or finite.

    With s1 = P(1 <= L <= k) and s2 = P(L > k), the target x solves
    s1 x + s2 x^2 / k^2 = 1 - eps_t, i.e. (nu2/k^2) x^2 + nu1 x = (1 - eps_t) k^2.
    gamma_r stays far from the float minimum, where the threshold itself
    passes the largest float.
    """
    n, k, r = inputs
    sums = region_sums(n, k, r)
    _, s1, s2 = sums
    log_x = _log_survival_target(k, eps_t, sums)
    tau_hi = tau_max_general(n, k, r, gamma_r, alpha, delta, eps_t)
    assert tau_hi is None or math.isfinite(tau_hi)
    if log_x is None:
        assert s1 == s2 == 0.0 and tau_hi is None
        return
    x = math.exp(log_x) if log_x < 709.0 else math.inf
    assert x > 0.0 and (tau_hi is None) == (log_x >= 0.0)
    if math.isinf(x):  # s1 near the float minimum: the root passes the largest float
        return
    c = (1.0 - eps_t) * k * k
    nu1, nu2 = k * k * s1, k * k * s2
    assert abs(nu2 * x * x / (k * k) + nu1 * x - c) <= 1e-12 * c


class TestMaxEavesGeneral:
    def test_vanishing_budget(self):
        tol = max_eaves_general(5, 1, 0.3, 1.0, 1.0, 0.05, ALPHA, DELTA, 0.3, 1e-12)
        assert tol.bound == pytest.approx(0.0, abs=1e-5)
        assert tol.count == 0

    def test_small_capture_radius_limit(self):
        # d0 -> 0 with omega ~ 1: the bound approaches the secrecy budget
        eps_s = 0.3
        tol = max_eaves_general(5, 1, 0.3, 1.0, 1.0, 1e-9, ALPHA, DELTA, 0.3, eps_s)
        y = 1 - math.sqrt(1 - eps_s)
        assert tol.bound == pytest.approx(y, rel=1e-3)

    def test_desk_scale_structurally_infeasible_at_moderate_target(self):
        # The above-k relay mass is penalized by 1/k^2, so even with tau = 0
        # the transmission bound cannot reach 0.3 here; the tolerance result
        # is infeasible, not a value.
        n, k, r = 10, 2, 0.3
        floor_bound = transmission_bound_general(n, k, r, 1.0, 0.0, ALPHA, DELTA)
        assert floor_bound > 0.3
        assert tau_max_general(n, k, r, 1.0, ALPHA, DELTA, 0.3) is None
        assert max_eaves_general(n, k, r, 1.0, 1.0, 0.05, ALPHA, DELTA, 0.3, 0.3) is None

    def test_desk_scale_consistency_at_feasible_target(self):
        n, k, r, gr, ge, d0 = 10, 2, 0.3, 1.0, 1.0, 0.05
        eps_t = eps_s = 0.55
        tol = max_eaves_general(n, k, r, gr, ge, d0, ALPHA, DELTA, eps_t, eps_s)
        tau_hi = tau_max_general(n, k, r, gr, ALPHA, DELTA, eps_t)
        assert tol is not None and tau_hi is not None
        assert transmission_bound_general(n, k, r, gr, tau_hi, ALPHA, DELTA) <= eps_t + 1e-9
        if tol.count and tol.count >= 1:
            bound = secrecy_bound_general(n, tol.count, ge, tau_hi, d0, ALPHA, DELTA)
            assert bound.value <= eps_s + 1e-9

    def test_infeasible_propagates(self):
        assert max_eaves_general(5, 2, 0.0, 1.0, 1.0, 0.05, ALPHA, DELTA, 0.3, 0.3) is None

    def test_n1_has_no_window_and_no_tolerance(self):
        # a lone relay has no one to jam it: tau tunes neither bound
        assert tau_max_general(1, 1, 0.3, 1.0, ALPHA, DELTA, 0.19) is None
        assert tau_min_general(1, 1, 1.0, 0.05, ALPHA, DELTA, 0.19) is None
        assert tau_min_general(1, 0, 1.0, 0.05, ALPHA, DELTA, 0.19) is None
        assert max_eaves_general(1, 1, 0.3, 1.0, 1.0, 0.05, ALPHA, DELTA, 0.19, 0.19) is None
        # the targets are still checked
        with pytest.raises(ValueError, match="eps_t"):
            tau_max_general(1, 1, 0.3, 1.0, ALPHA, DELTA, 0.0)
        with pytest.raises(ValueError, match="eps_s"):
            max_eaves_general(1, 1, 0.3, 1.0, 1.0, 0.05, ALPHA, DELTA, 0.19, 1.0)

    def test_no_eavesdropper_needs_no_jamming(self):
        assert tau_min_general(5, 0, 1.0, 0.05, ALPHA, DELTA, 0.19) == 0.0

    def test_is_the_budget_at_the_relaxed_jammer_count(self):
        n, k, r, ge, d0, eps_t, eps_s = 10, 1, 0.3, 1.0, 0.05, 0.3, 0.3
        tau_hi = tau_max_general(n, k, r, 1.0, ALPHA, DELTA, eps_t)
        cap = math.pi * d0 * d0
        omega = (1 / (1 + ge * GEO.corner * d0**ALPHA)) ** ((n - 1) * tau_hi)
        tol = max_eaves_general(n, k, r, 1.0, ge, d0, ALPHA, DELTA, eps_t, eps_s)
        y = 1 - math.sqrt(1 - eps_s)
        assert tol.bound == pytest.approx(y / (cap + (1 - cap) * omega), rel=1e-14)


def mp_tau_max_general(n, k, r, gamma_r, alpha, delta, eps_t):
    """sqrt(-log(target) / denom) at 60 digits from the float region sums and hop sum."""
    with mp.workdps(60):
        s1, s2 = (mp.mpf(v) for v in region_sums(n, k, r)[1:])
        c = 1 - mp.mpf(eps_t)
        target = 2 * c * k * k / (mp.sqrt((k * k * s1) ** 2 + 4 * c * k * k * s2) + k * k * s1)
        hop_sum = mp.mpf(geometry_integrals(alpha, delta).hop_sum)
        denom = mp.mpf(gamma_r) * (n - 1) * hop_sum * (0.5 + mp.mpf(r)) ** alpha
        return float(mp.sqrt(-mp.log(target) / denom))


@pytest.mark.parametrize("eps_t", [1e-9, 1e-12, 1e-15])
def test_tau_max_at_tight_reliability_targets(eps_t):
    # every relay lies in the region at r = 1, so the target is (1 - eps_t) / s1;
    # its log cancelled: 1.4e-8, 6.7e-5 and 5.4e-2 off relative at these eps_t
    want = mp_tau_max_general(5, 5, 1.0, 1.0, ALPHA, DELTA, eps_t)
    got = tau_max_general(5, 5, 1.0, 1.0, ALPHA, DELTA, eps_t)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n, k, r", [(5, 1, 0.3), (5, 5, 0.3), (3000, 1, 0.6)])
def test_tau_max_at_a_survival_target_near_one(n, k, r):
    # the region law's P(L = 0) ~ eps_t = 0.19 puts the target within 2.1e-4 of 1 at
    # r = 0.3; its log as log1p(-eps_t) + log(2k^2/R) lost 1.8e-12 relative to
    # cancellation.  The reference takes the exact binomial law of the float p.
    with mp.workdps(60):
        p = mp.mpf(disc_square_overlap(r))
        pmf = [mp.binomial(n, l) * p**l * (1 - p) ** (n - l) for l in range(n + 1)]
        s1, s2, c = mp.fsum(pmf[1:k + 1]), mp.fsum(pmf[k + 1:]), 1 - mp.mpf(0.19)
        target = 2 * c * k * k / (mp.sqrt((k * k * s1) ** 2 + 4 * c * k * k * s2) + k * k * s1)
        denom = (n - 1) * mp.mpf(GEO.hop_sum) * (0.5 + mp.mpf(r)) ** ALPHA
        want = float(mp.sqrt(-mp.log(target) / denom))
    # at n = 3000 the masses' log-factorial coefficients carry 2e-13 on their own
    rel = 1e-12 if n == 3000 else 1e-13
    assert tau_max_general(n, k, r, 1.0, ALPHA, DELTA, 0.19) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("eps_s", [1e-9, 1e-12, 1e-15])
def test_window_and_tolerance_against_high_precision(eps_s):
    """tau_min and the tolerance at tight secrecy targets, against 60 digits.

    The quadrature values and the region masses are taken as the floats the
    code uses; the rest is evaluated in mpmath from the same float inputs.
    The budget 1 - sqrt(1 - eps_s) formed as written was 8e-8 off at
    eps_s = 1e-9 and 11% off at 1e-15.
    """
    n, k, r, gamma_r, gamma_e, d0, eps_t = 50, 1, 0.3, 1.0, 1e16, 1e-8, 0.3
    with mp.workdps(60):
        y = 1 - mp.sqrt(1 - mp.mpf(eps_s))
        cap = mp.pi * mp.mpf(d0) ** 2
        level = mp.mpf(gamma_e) * mp.mpf(GEO.corner) * mp.mpf(d0) ** ALPHA
        x = mp.log((y - cap) / (1 - cap)) / ((n - 1) * mp.log(1 + level))
        tau_lo = -mp.log(1 + x)
        s1, s2 = (mp.mpf(v) for v in region_sums(n, k, r)[1:])
        c = 1 - mp.mpf(eps_t)
        target = 2 * c * k * k / (mp.sqrt((k * k * s1) ** 2 + 4 * c * k * k * s2) + k * k * s1)
        denom = mp.mpf(gamma_r) * (n - 1) * mp.mpf(GEO.hop_sum) * (0.5 + mp.mpf(r)) ** ALPHA
        tau_hi = mp.sqrt(-mp.log(target) / denom)
        tol = y / (cap + (1 - cap) * (1 / (1 + level)) ** ((n - 1) * tau_hi))
    assert tau_min_general(n, 1, gamma_e, d0, ALPHA, DELTA, eps_s) == pytest.approx(
        float(tau_lo), rel=1e-10, abs=0.0)
    got = max_eaves_general(n, k, r, gamma_r, gamma_e, d0, ALPHA, DELTA, eps_t, eps_s)
    assert got.bound == pytest.approx(float(tol), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("bound, args", [
    (max_eaves_equal, (5, 0, 1.0, 1.0, 0.19, 0.19)),
    (max_eaves_equal, (5, 9, 1.0, 1.0, 0.19, 0.19)),
    (max_eaves_equal, (5, 1, 0.0, 1.0, 0.19, 0.19)),
    (max_eaves_equal, (5, 1, 1.0, 1.0, 1.0, 0.19)),
    (max_eaves_general, (5, 1, 0.3, 0.0, 1.0, 0.05, ALPHA, DELTA, 0.19, 0.19)),
    (max_eaves_general, (5, 1, 0.3, 1.0, -0.5, 0.05, ALPHA, DELTA, 0.19, 0.19)),
    (max_eaves_general, (5, 1, 0.3, 1.0, 1.0, 0.05, ALPHA, DELTA, 1.0, 0.19)),
    (tau_min_general, (5, 1, -0.5, 0.05, ALPHA, DELTA, 0.19)),
    (tau_min_general, (5, 1, 0.0, 0.05, ALPHA, DELTA, 0.19)),
    (secrecy_bound_general, (5, 1, 1.0, 0.2, 0.6, ALPHA, DELTA)),
    (max_eaves_general, (5, 1, 0.3, 1.0, 1.0, 0.6, ALPHA, DELTA, 0.19, 0.19)),
    (disc_square_overlap, (-0.1,)),
    (channel_survival_base, (0, 1.0, 0.2, 0.3, ALPHA)),
    (channel_survival_base, (5, 1.0, -0.2, 0.3, ALPHA)),
    (channel_survival_base, (5, 0.0, 0.2, 0.3, ALPHA)),
    (channel_survival_base, (5, 1.0, 0.2, -0.3, ALPHA)),
], ids=["equal-k0", "equal-k-above-n", "equal-gamma_r0", "equal-eps_t1", "general-gamma_r0",
        "general-gamma_e-negative", "general-eps_t1", "tau_min-gamma_e-negative",
        "tau_min-gamma_e0", "secrecy-capture-above-1", "general-capture-above-1",
        "overlap-r-negative", "survival-n0",
        "survival-tau-negative", "survival-gamma_r0", "survival-r-negative"])
def test_tolerance_and_window_reject_what_their_siblings_reject(bound, args):
    """Inputs outside each bound's domain raise, as in tau_max/tau_min.

    k outside 1..n, gamma_r or gamma_e <= 0, eps outside (0, 1), a capture
    share pi*d0^2 above 1, a negative radius, tau or n < 1.
    """
    with pytest.raises(ValueError):
        bound(*args)


@pytest.mark.parametrize("bound", [
    lambda d0: secrecy_bound_general(5, 1, 1.0, 0.2, d0, ALPHA, DELTA),
    lambda d0: tau_min_general(5, 1, 1.0, d0, ALPHA, DELTA, 0.19),
    lambda d0: max_eaves_general(5, 1, 0.3, 1.0, 1.0, d0, ALPHA, DELTA, 0.19, 0.19),
], ids=["secrecy", "tau_min", "max_eaves"])
def test_one_capture_share_check(bound):
    """Every bound that uses pi*d0^2 rejects it past 1 alike, and takes it up to 1."""
    edge = 1.0 / math.sqrt(math.pi)  # pi*d0^2 reads 0.9999999999999999 here
    bound(edge)
    with pytest.raises(ValueError) as exc:
        bound(math.nextafter(edge, 1.0))
    assert str(exc.value) == "pi*d0^2 exceeds 1; capture disc larger than the network"
