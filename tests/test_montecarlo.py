import dataclasses
import functools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from twohopsec import montecarlo
from twohopsec.bounds_equal import (
    transmission_bound_equal,
    transmission_bound_equal_binomial_jammers,
)
from twohopsec.bounds_general import disc_square_overlap, region_sums
from twohopsec.model import Case, ConfigurationError, ProtocolParams
from twohopsec.montecarlo import (
    BATCH_SIZE,
    _count_below,
    _pick_among_best,
    _reduce,
    compare,
    estimate,
    load_balance,
    wilson_interval,
)
from twohopsec.protocol import run_trial
from twohopsec.reports import evaluate_bounds


def equal_params(**overrides):
    base = dict(n=5, m=2, k=2, r=math.inf, tau=0.3, gamma_r=1.0, gamma_e=1.0,
                case=Case.EQUAL_PATH_LOSS)
    base.update(overrides)
    return ProtocolParams(**base)


def general_params(**overrides):
    base = dict(n=5, m=2, k=2, r=0.4, tau=0.3, gamma_r=1.0, gamma_e=1.0,
                case=Case.DISTANCE_DEPENDENT)
    base.update(overrides)
    return ProtocolParams(**base)


def assert_same_report(a, b):
    assert a.params == b.params
    assert (a.p_t_hat, a.p_s_hat, a.ci_t, a.ci_s) == (b.p_t_hat, b.p_s_hat, b.ci_t, b.ci_s)
    assert np.array_equal(a.selection_histogram, b.selection_histogram)
    assert (a.no_candidate_rate, a.conditional_jain, a.conditional_entropy) == (
        b.no_candidate_rate, b.conditional_jain, b.conditional_entropy)


class TestWilson:
    def test_interval_contains_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_zero_successes_positive_width(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0 < hi < 0.01

    def test_all_successes(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0 and 0.99 < lo < 1.0

    @pytest.mark.parametrize("trials", [1, 7, 100, 1000, 4096, 100_000])
    def test_endpoints_exact(self, trials):
        # the formula alone gives e.g. 2.2e-19 and 0.9999999999999999 here
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0

    def test_against_direct_formula(self):
        z = 1.959963984540054
        n, x = 250, 40
        p = x / n
        zz = z * z / n
        center = (p + zz / 2) / (1 + zz)
        half = z / (1 + zz) * math.sqrt(p * (1 - p) / n + zz / (4 * n))
        lo, hi = wilson_interval(x, n)
        assert lo == pytest.approx(center - half, abs=1e-12)
        assert hi == pytest.approx(center + half, abs=1e-12)


class TestLoadBalance:
    def test_uniform(self):
        assert load_balance([20, 20, 20, 20, 20]) == pytest.approx((1.0, 1.0))

    def test_single_relay_of_five(self):
        jain, ent = load_balance([100, 0, 0, 0, 0])
        assert jain == pytest.approx(0.2)
        assert ent == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        jain, ent = load_balance([2, 1, 1])
        assert jain == pytest.approx(16.0 / 18.0)

    def test_all_zero_flagged(self):
        jain, ent = load_balance([0, 0, 0])
        assert math.isnan(jain) and math.isnan(ent)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_balance([])

    def test_single_relay_total(self):
        assert load_balance([42]) == pytest.approx((1.0, 1.0))


class TestEstimate:
    def test_no_eavesdroppers(self):
        rep = estimate(equal_params(m=0), 2000, seed=0)
        assert rep.p_s_hat == 0.0

    def test_tiny_gamma_r_outage_is_no_candidate_rate(self):
        p = general_params(n=3, k=1, m=0, r=0.25, gamma_r=1e-12, tau=0.0)
        rep = estimate(p, 20_000, seed=2)
        assert rep.no_candidate_rate > 0.05
        assert rep.p_t_hat == rep.no_candidate_rate

    def test_histogram_sums_to_selected_trials(self):
        p = general_params(n=4, k=2, r=0.3)
        rep = estimate(p, 30_000, seed=5)
        nc = round(rep.no_candidate_rate * rep.trials)
        assert rep.selection_histogram.sum() + nc == rep.trials
        assert nc > 0

    def test_determinism_across_runs_and_workers(self):
        p = general_params(n=8, m=3, k=2)
        a = estimate(p, 20_000, seed=11)
        b = estimate(p, 20_000, seed=11)
        c = estimate(p, 20_000, seed=11, workers=3)
        for other in (b, c):
            assert a.p_t_hat == other.p_t_hat
            assert a.p_s_hat == other.p_s_hat
            assert a.ci_t == other.ci_t
            assert np.array_equal(a.selection_histogram, other.selection_histogram)

    def test_ci_width_shrinks_like_root_two(self):
        p = equal_params(n=5, k=5, tau=0.8, gamma_r=1.0, m=0)
        small = estimate(p, 40_000, seed=3)
        big = estimate(p, 80_000, seed=3)
        assert 0.15 < small.p_t_hat < 0.85  # mid-range so widths are stable
        ratio = (big.ci_t[1] - big.ci_t[0]) / (small.ci_t[1] - small.ci_t[0])
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.1)

    def test_equal_case_unconditional_selection_uniform(self):
        n, trials = 5, 100_000
        rep = estimate(equal_params(n=n, k=n, m=0), trials, seed=9)
        freqs = rep.selection_histogram / rep.selection_histogram.sum()
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / rep.selection_histogram.sum())
        assert np.all(np.abs(freqs - 1 / n) <= 3 * sigma)

    def test_zero_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate(equal_params(n0=0.0), 100, seed=0)

    def test_no_relays_is_certain_outage(self):
        p = equal_params(n=0, k=0, m=0)
        rep = estimate(p, 500, seed=0)
        assert rep.p_t_hat == 1.0
        assert rep.no_candidate_rate == 1.0
        assert math.isnan(rep.jain_index)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate(equal_params(), 0, seed=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_validation(self, workers):
        with pytest.raises(ValueError, match="workers"):
            estimate(equal_params(), 100, seed=0, workers=workers)

    def test_bound_dominance_with_traced_fallback(self):
        # At small tau the plain bound substitutes the mean jammer count
        # into a convex tail and can undershoot the simulation; the variant
        # that keeps the jammer count binomial must still dominate.
        p = equal_params(n=5, k=1, m=0, tau=0.1, gamma_r=1.0)
        rep = estimate(p, 100_000, seed=21)
        bound = transmission_bound_equal(5, 1, 1.0, 0.1)
        traced = transmission_bound_equal_binomial_jammers(5, 1, 1.0, 0.1)
        se = (rep.ci_t[1] - rep.ci_t[0]) / (2 * 1.959963984540054)
        assert rep.p_t_hat > bound + 3 * se  # the documented violation
        assert rep.p_t_hat <= traced + 3 * se


class TestThresholdGrid:
    """A gamma_r / gamma_e grid is evaluated on one set of trials (common
    random numbers); each grid report must equal a separate run at its value."""

    @pytest.mark.parametrize("maker", [equal_params, general_params])
    @pytest.mark.parametrize("name", ["gamma_r", "gamma_e"])
    def test_grid_matches_separate_runs(self, maker, name):
        params = maker(n=6, m=3, k=2, tau=0.4, r=0.35)
        values = [0.05, 0.3, 1.0, 1.0, 2.5, 40.0]
        # 3 batches, the last one partial
        reports = estimate(params, 1234, seed=19, batch_size=500, **{name: values})
        assert len(reports) == len(values)
        for value, rep in zip(values, reports):
            single = dataclasses.replace(params, **{name: value})
            assert_same_report(rep, estimate(single, 1234, seed=19, batch_size=500))

    def test_grid_ignores_the_swept_field_of_params(self):
        params = general_params(n=6, m=3)
        a = estimate(params, 900, seed=2, gamma_e=[0.7])[0]
        b = estimate(dataclasses.replace(params, gamma_e=5.0), 900, seed=2, gamma_e=[0.7])[0]
        assert_same_report(a, b)

    def test_no_relays_grid(self):
        reports = estimate(equal_params(n=0, k=0, m=0), 300, seed=0, gamma_r=[0.5, 2.0])
        assert [r.p_t_hat for r in reports] == [1.0, 1.0]
        assert [r.p_s_hat for r in reports] == [0.0, 0.0]

    def test_one_threshold_at_a_time(self):
        with pytest.raises(ValueError):
            estimate(equal_params(), 100, seed=0, gamma_r=[1.0], gamma_e=[1.0])

    def test_invalid_grid_value_rejected(self):
        with pytest.raises(ValueError):
            estimate(equal_params(), 100, seed=0, gamma_e=[1.0, 0.0])
        with pytest.raises(ValueError):
            estimate(equal_params(), 100, seed=0, gamma_r=[math.nan])

    def test_empty_grid(self):
        assert estimate(equal_params(), 100, seed=0, gamma_r=[]) == []

    def test_counting_ties_match_the_pointwise_comparisons(self):
        # outage is bottleneck < gamma_r and eavesdropper SINR >= gamma_e, so
        # a value equal to a threshold counts as below-not for the first and
        # reaching for the second
        values = np.array([3.0, 1.0, 2.0, np.inf, 2.0, -np.inf])
        grid = np.array([-np.inf, 1.0, 2.0, 2.5, 3.0, np.inf])
        expected = [int(np.sum(values < g)) for g in grid]
        assert _count_below(values, grid).tolist() == expected


_thresholds = st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=8)


@settings(max_examples=25, deadline=None)
@given(gamma_r=_thresholds, gamma_e=_thresholds, seed=st.integers(0, 2**16),
       general=st.booleans())
def test_fixed_seed_outage_curves_are_monotone(gamma_r, gamma_e, seed, general):
    params = (general_params if general else equal_params)(n=5, m=3, k=2, tau=0.5)
    trials = BATCH_SIZE + 17
    gamma_r, gamma_e = sorted(gamma_r), sorted(gamma_e)
    p_t = [rep.p_t_hat for rep in estimate(params, trials, seed, gamma_r=gamma_r)]
    p_s = [rep.p_s_hat for rep in estimate(params, trials, seed, gamma_e=gamma_e)]
    assert all(a <= b for a, b in zip(p_t, p_t[1:]))
    assert all(a >= b for a, b in zip(p_s, p_s[1:]))


class TestNumericFailure:
    def test_nan_sinr_is_never_counted(self):
        # a NaN compares false with every threshold: it would count as no outage
        grid = np.array([1.0])
        jstar, c = np.zeros(3, dtype=np.int64), np.array([1, 1, 1])
        finite = np.array([0.5, 2.0, 3.0])
        for bottleneck, eav_max in ((np.array([0.5, np.nan, 3.0]), finite),
                                    (finite, np.array([np.nan, 2.0, 3.0]))):
            with pytest.raises(FloatingPointError):
                _reduce(2, bottleneck, eav_max, jstar, c, grid, grid)
        counts = _reduce(2, finite, finite, jstar, c, grid, grid)
        assert (counts[0].tolist(), counts[1].tolist()) == ([1], [2])

    def test_overflowing_signal_power_raises(self):
        # es * gain * path loss passes the float range while the interference
        # stays finite: the SINR would read +inf instead of a finite value
        with pytest.raises(FloatingPointError):
            estimate(general_params(n=10, m=5, es=1e305), 2000, seed=1)


_positive = st.floats(min_value=1e-300, max_value=1e300)


@settings(max_examples=100, deadline=None)
@given(general=st.booleans(), n=st.integers(0, 5), m=st.integers(0, 4), k=st.integers(1, 5),
       r=st.one_of(st.floats(0.0, 1.0), st.just(math.inf)),
       tau=st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
       gamma_r=_positive, gamma_e=_positive, alpha=st.floats(2.0, 400.0),
       d0=st.floats(0.0, 2.0), delta=st.floats(1e-3, 2.0),
       es=st.floats(min_value=1e-300, max_value=1.7e308), n0=_positive,
       trials=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_accepted_parameters_give_probabilities_or_a_clean_error(
        general, n, m, k, r, tau, gamma_r, gamma_e, alpha, d0, delta, es, n0, trials, seed):
    try:
        params = ProtocolParams(
            n=n, m=m, k=min(k, n), r=r, tau=tau, gamma_r=gamma_r, gamma_e=gamma_e,
            alpha=alpha, d0=d0, es=es, n0=n0, delta=delta,
            case=Case.DISTANCE_DEPENDENT if general else Case.EQUAL_PATH_LOSS)
    except ValueError:
        assume(False)
    try:
        rep = estimate(params, trials, seed, batch_size=128)
    except FloatingPointError:
        event("numeric failure")
        return
    for p in (rep.p_t_hat, rep.p_s_hat, rep.no_candidate_rate):
        assert 0.0 <= p <= 1.0
    for lo, hi in (rep.ci_t, rep.ci_s):
        assert 0.0 <= lo <= hi <= 1.0


class TestEavesdropperChunks:
    """The post-draw stages walk each batch in trial chunks, and the
    eavesdropper stage walks each chunk in tiles, drawing the
    relay->eavesdropper gains tile by tile; neither size may change a single
    count."""

    CONFIGS = {
        "equal": equal_params(n=6, m=3, k=2, tau=0.4),
        "general": general_params(n=6, m=3, k=2, tau=0.4, r=0.35),
        "no eavesdroppers": general_params(n=6, m=0, k=2, tau=0.4, r=0.35),
        "one relay": general_params(n=1, m=4, k=1, tau=0.4, r=0.45),
        "k = n": general_params(n=5, m=4, k=5, tau=0.6, r=0.45),
        "equal k = n": equal_params(n=5, m=4, k=5, tau=0.6),
    }
    # budgets in trials per eavesdropper tile (_CHUNK_ELEMS / (n*m)); a stage
    # chunk holds _CHUNK_ELEMS // max(n, m) trials.  One trial per tile; 7
    # trials (a partial last tile in every batch); 7.5, where chunks end in
    # partial tiles and batches in partial chunks (n=6, m=3: 22-trial chunks
    # of 7-trial tiles, 4096 = 186 * 22 + 4); more than a whole batch.
    BUDGETS = {"one trial": 1, "seven trials": 7, "partial tiles and chunks": 7.5,
               "whole batch": 4 * BATCH_SIZE}

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch, name):
        params = self.CONFIGS[name]
        trials, grid = 2 * BATCH_SIZE + 17, [0.1, 0.5, 1.0, 2.0, 8.0]

        def reports():
            return [estimate(params, trials, seed=31),
                    *estimate(params, trials, seed=31, gamma_e=grid)]

        default = reports()
        for budget, chunk_trials in self.BUDGETS.items():
            monkeypatch.setattr(montecarlo, "_CHUNK_ELEMS",
                                int(chunk_trials * params.n * max(params.m, 1)))
            for a, b in zip(default, reports()):
                assert_same_report(a, b)

    @pytest.mark.parametrize("n, k", [(9, 1), (9, 2), (9, 3), (9, 5), (9, 8), (9, 9),
                                      (64, 1), (64, 5), (64, 64)])
    def test_partial_selection_picks_what_a_full_stable_sort_picks(self, n, k):
        rng = np.random.default_rng(3)
        size = 4000
        w = rng.standard_exponential((size, n))
        # about a third of the relays out of region; rows with fewer than k
        # (or no) in-region relays included
        in_region = rng.random((size, n)) < 0.35
        in_region[:50] = False
        in_region[50:100] = True
        in_region[1400:1500] = False
        in_region[1400:1500, 3] = True  # one candidate, fewer than every k >= 2
        # a tie for first place: broken by relay index
        in_region[100:200, [4, 7]] = True
        w[100:200, [4, 7]] = 1e3
        # a tie at second and third place, below a clear best
        in_region[200:300, [1, 3, 6]] = True
        w[200:300, 1], w[200:300, [3, 6]] = 2e3, 1e3
        # every relay tied, so the tie spans the k-th place
        in_region[300:400] = True
        w[300:400] = 0.5
        # three gain levels: ties at every rank, the k-th place included
        w[400:1400] = rng.integers(0, 3, (1000, n))
        in_region[400:900] = True
        w_eff = np.where(in_region, w, -np.inf)
        region_count = in_region.sum(axis=1)
        pick_u = rng.random(size)
        jstar, c = _pick_among_best(w_eff, k, region_count, pick_u)

        order = np.argsort(-w_eff, axis=1, kind="stable")
        c_ref = np.minimum(k, region_count)
        c_safe = np.maximum(c_ref, 1)
        pick = np.minimum((pick_u * c_safe).astype(np.int64), c_safe - 1)
        jstar_ref = order[np.arange(size), pick]
        assert np.array_equal(c, c_ref)
        selected = c_ref > 0
        assert (~selected).sum() >= 50
        assert k == 1 or (selected & (region_count < k)).any()
        # some picks land past the first of several relays tied at their value
        w_pick = w_eff[np.arange(size), jstar_ref]
        assert k == 1 or (selected & (pick > 0) & (w_eff[np.arange(size), order[
            np.arange(size), np.maximum(pick - 1, 0)]] == w_pick)).any()
        assert np.array_equal(jstar, jstar_ref)
        assert np.isfinite(w_eff[selected, jstar[selected]]).all()

    @pytest.mark.parametrize("params", [general_params(n=20, m=3, alpha=3.5), equal_params(n=20)],
                             ids=["general", "equal"])
    def test_legit_sinr_against_a_per_trial_sum(self, params):
        # Each hop's interference is one matrix-vector product per chunk, which
        # adds in another order than a per-row sum: it must agree with an
        # exactly rounded sum per trial within 4n ulp.
        rng = np.random.default_rng(5)
        size, n, d2_min = 300, params.n, params.delta * params.delta
        g_sr, g_dr, g_rr = rng.standard_exponential((3, size, n))
        jstar = rng.integers(0, n, size)
        rx, ry = rng.uniform(-0.5, 0.5, (2, size, n)) if params.is_general else (None, None)
        jammers = montecarlo._jam(params, g_rr, g_dr, jstar)
        got = montecarlo._legit_sinr(params, g_sr, g_dr, g_rr, jammers, jstar, rx, ry)

        def att(x0, y0, x1, y1):
            if rx is None:
                return max(1.0, params.delta) ** params.alpha
            return max((x0 - x1) ** 2 + (y0 - y1) ** 2, d2_min) ** (params.alpha / 2)

        noise = params.n0 / 2
        for t, j in enumerate(jstar):
            x, y = (rx[t], ry[t]) if rx is not None else (np.zeros(n), np.zeros(n))
            hops = []
            for g, (ax, ay), jam in ((g_rr[t], (x[j], y[j]), g_rr[t] < params.tau),
                                     (g_dr[t], (0.5, 0.0), g_dr[t] < params.tau)):
                intf = math.fsum(g[i] / att(x[i], y[i], ax, ay)
                                 for i in range(n) if jam[i] and i != j)
                hops.append(params.es * intf)
            sig1 = params.es * g_sr[t, j] / att(x[j], y[j], -0.5, 0.0)
            sig2 = params.es * g_dr[t, j] / att(x[j], y[j], 0.5, 0.0)
            want = min(sig1 / (hops[0] + noise), sig2 / (hops[1] + noise))
            assert got[t] == pytest.approx(want, rel=4 * n * np.finfo(float).eps)


def _traced_peak_mib(fn, cold=True) -> float:
    # cold: this thread's kept draw buffer is dropped first, so the draws
    # count in the peak as at the first call in a thread
    if cold:
        montecarlo._THREAD_DRAWS.__dict__.clear()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _exact_d2(rx, ry, ex, ey):
    return (rx[:, :, None] - ex[:, None, :]) ** 2 + (ry[:, :, None] - ey[:, None, :]) ** 2


def _gram_d2(rx, ry, ex, ey):
    (h, n), m = rx.shape, ex.shape[1]
    return montecarlo._gram_d2(rx, ry, ex, ey, *montecarlo._gram_buffers(h, n, m))


class TestGramDistances:
    """The jammer interference takes its relay->eavesdropper squared distances
    from the Gram form |r|^2 + |e|^2 - 2 r.e; they stay within 1e-15 of the
    exact differences on the unit square, and capture is decided exactly."""

    def test_uniform_positions(self):
        rng = np.random.default_rng(8)
        rx, ry = rng.uniform(-0.5, 0.5, (2, 300, 20))
        ex, ey = rng.uniform(-0.5, 0.5, (2, 300, 10))
        assert np.abs(_gram_d2(rx, ry, ex, ey) - _exact_d2(rx, ry, ex, ey)).max() <= 1e-15

    def test_square_corners(self):
        corners = np.array([-0.5, 0.5])
        x, y = (v.ravel()[None, :] for v in np.meshgrid(corners, corners))
        d2 = _gram_d2(x, y, x, y)
        assert np.abs(d2 - _exact_d2(x, y, x, y)).max() <= 1e-15
        assert sorted(set(d2.ravel().tolist())) == [0.0, 1.0, 2.0]

    def test_coincident_points_clamp_to_the_path_loss_at_delta(self):
        rng = np.random.default_rng(9)
        rx, ry = rng.uniform(-0.5, 0.5, (2, 50, 40))
        d2 = _gram_d2(rx, ry, rx, ry)
        on_diagonal = d2[:, np.arange(40), np.arange(40)]
        assert np.abs(d2 - _exact_d2(rx, ry, rx, ry)).max() <= 1e-15
        assert (on_diagonal < 0).any() and (on_diagonal > 0).any()  # rounding, both ways
        p = general_params(d0=1e-6, delta=1e-6)
        at_clamp = montecarlo._attenuation(np.array([p.delta ** 2]), p)[0]
        assert at_clamp == pytest.approx(p.delta ** p.alpha, rel=1e-12)
        assert (montecarlo._attenuation(on_diagonal, p) == at_clamp).all()

    def test_position_draws_are_uniform_draws(self, monkeypatch):
        # _draw fills views of this thread's kept buffer, taking random() - 0.5
        # in place for positions; every array holds the bits of a fresh
        # whole-batch draw, whatever the shape of the batch before it.  The
        # batches run back to back from an empty buffer: shrinking, without
        # eavesdroppers, past the kept cap of 5200 values (5600), growing (5160).
        monkeypatch.setattr(montecarlo, "_THREAD_DRAWS", threading.local())
        monkeypatch.setattr(montecarlo, "_KEPT_DRAWS", 5200)
        batches = [(general_params(n=7, m=3), 50), (equal_params(n=4, m=2), 80),
                   (general_params(n=5, m=0), 30), (equal_params(n=9, m=0), 200),
                   (general_params(n=6, m=4), 120)]
        for seed, (p, size) in enumerate(batches):
            rng = np.random.default_rng(seed)
            got = montecarlo._draw(p, rng, size)
            fresh = np.random.default_rng(seed)
            n, m, general = p.n, p.m, p.is_general
            want = (fresh.uniform(-0.5, 0.5, (size, n, 2)) if general else None,
                    fresh.uniform(-0.5, 0.5, (size, m, 2)) if general and m else None,
                    fresh.standard_exponential((size, n)),
                    fresh.standard_exponential((size, n)),
                    fresh.random(size),
                    fresh.standard_exponential((size, n)),
                    fresh.standard_exponential((size, m)) if m else None)
            for a, b in zip(got, want, strict=True):
                assert (a is None and b is None) or (a.shape == b.shape and np.array_equal(a, b))
            assert rng.random() == fresh.random()  # the same share of the stream
        assert montecarlo._THREAD_DRAWS.buf.size == 5160  # the 5600 values were not kept

    def test_capture_one_ulp_inside_and_outside_d0(self):
        # The selected relay 0 sits at (0.25, 0) and d0 = 2^-4, so an
        # eavesdropper at x = 0.3125 is exactly d0 away; one ulp nearer is
        # captured (+inf), exactly at d0 and one ulp farther are not.  Each
        # trial has one eavesdropper, relay 1 sits far away and nobody jams.
        p = general_params(n=2, m=1, k=1, d0=0.0625)
        xs = np.array([np.nextafter(0.3125, 0.0), 0.3125, np.nextafter(0.3125, 1.0)])
        eav = np.stack([xs, np.zeros(3)], axis=1)[:, None, :]
        rx, ry = np.tile([0.25, -0.25], (3, 1)), np.zeros((3, 2))
        eav_max = montecarlo._eaves(p, np.random.default_rng(0), np.ones((3, 1)), eav,
                                    np.zeros((3, 2, 2)), np.zeros(3, dtype=np.int64), rx, ry)
        assert np.isinf(eav_max[0]) and np.isfinite(eav_max[1:]).all()


class TestEngineMemory:
    """A batch keeps its draws; everything else lives for one trial chunk.
    The tracemalloc peak of ``estimate`` is the draws of one batch plus a
    fixed allowance for the chunk's arrays and tiles (each about
    _CHUNK_ELEMS float64 values, or one trial's n*m values when n*m is
    larger).  The draws are views of one float64 buffer per thread that is
    kept between batches and calls, so each thread keeps its largest batch's
    draws, 5n+3m+1 values per trial in the general case and 3n+m+1 in the
    equal case (about 50 MiB at general n = m = 200), up to 2^23 values
    (64 MiB); a call whose batches fit it allocates no draws.  The peaks are
    measured cold, with the kept buffer dropped first, so the draws count."""

    ALLOWANCE = 32 * montecarlo._CHUNK_ELEMS * 8  # 8 MiB

    @staticmethod
    def draw_bytes(p, size):
        # g_sr, g_dr, g_rr (size, n), pick_u (size,), g_se (size, m), and in
        # the general case positions (size, n, 2), (size, m, 2)
        per_trial = 3 * p.n + 1 + p.m + (2 * p.n + 2 * p.m if p.is_general else 0)
        return size * per_trial * 8

    def assert_within_allowance(self, p, trials):
        peak = _traced_peak_mib(lambda: estimate(p, trials, seed=1))
        assert peak <= (self.draw_bytes(p, trials) + self.ALLOWANCE) / 2**20

    def test_general_hundred_relays_fifty_eavesdroppers(self):
        # a whole (4096, 100, 50) tensor alone is 156 MiB
        self.assert_within_allowance(general_params(n=100, m=50, k=3, r=0.4, tau=0.5), 4096)

    def test_general_two_hundred_relays_and_eavesdroppers(self):
        # n*m exceeds one tile's budget, so every tile is a single trial
        self.assert_within_allowance(general_params(n=200, m=200, k=3, r=0.4, tau=0.5), 512)

    def test_equal_hundred_relays_fifty_eavesdroppers(self):
        self.assert_within_allowance(equal_params(n=100, m=50, k=3, tau=0.5), 4096)

    def test_general_at_the_sweep_benchmark_shape(self):
        # n=20, m=10: the batch's peak is its draws plus about 15 chunk arrays,
        # so building the Gram factors chunk-wide (6 chunk arrays more) fails
        p = general_params(n=20, m=10, k=3, r=0.4, tau=0.5)
        peak = _traced_peak_mib(lambda: estimate(p, 4096, seed=1))
        assert peak <= (self.draw_bytes(p, 4096) + 15 * montecarlo._CHUNK_ELEMS * 8) / 2**20

    def test_a_second_call_allocates_no_draws(self):
        p = general_params(n=20, m=10, k=3, r=0.4, tau=0.5)
        estimate(p, 4096, seed=1)
        peak = _traced_peak_mib(lambda: estimate(p, 4096, seed=2), cold=False)
        assert peak < self.draw_bytes(p, 4096) / 2**20

    def test_threads_keep_their_own_draws(self):
        # each thread draws into its own buffer, so calls that run at the same
        # time in more threads than cores, switching often, get the reports
        # of a serial run; one shared buffer would mix their draws
        calls = [(general_params(n=20, m=10, k=3, r=0.4, tau=0.5), 2 * BATCH_SIZE + 5, 1024),
                 (equal_params(n=30, m=6, k=4, tau=0.5), 3 * BATCH_SIZE, 1500),
                 (general_params(n=9, m=0, k=2, r=0.45, tau=0.5), 5000, 700),
                 (equal_params(n=12, m=3, k=2, tau=0.4), 6000, 2048)]
        serial = [estimate(p, trials, seed=7, batch_size=b) for p, trials, b in calls]
        start = threading.Barrier(len(calls))

        def run(call):
            p, trials, batch = call
            start.wait(timeout=60)
            return [estimate(p, trials, seed=7, batch_size=batch) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(calls)) as pool:
                futures = [pool.submit(run, call) for call in calls]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, reports in zip(serial, threaded, strict=True):
            for got in reports:
                assert_same_report(got, want)


class TestEngineAgainstExactLaw:
    def test_no_jamming_uniform_selection_closed_form(self):
        # tau = 0, k = n, equal path loss: the selected relay is uniform and
        # independent of the gains, each hop fails iff an Exp(1) gain falls
        # below gamma_r * n0 / (2 es), and the two hops are independent.
        p = equal_params(n=4, k=4, m=1, tau=0.0, gamma_r=1.0, gamma_e=2.0,
                         es=1.0, n0=1.0)
        trials = 200_000
        rep = estimate(p, trials, seed=17)
        q = 1 - math.exp(-p.gamma_r * p.n0 / (2 * p.es))
        expect_t = 1 - (1 - q) ** 2
        s = math.exp(-p.gamma_e * p.n0 / (2 * p.es))
        expect_s = 1 - (1 - s) ** 2
        for got, want in ((rep.p_t_hat, expect_t), (rep.p_s_hat, expect_s)):
            se = math.sqrt(want * (1 - want) / trials)
            assert abs(got - want) <= 4 * se, (got, want)


class TestBatchEngineAgainstScalarProtocol:
    """The vectorized engine and the per-trial reference implementation are
    two samplers of the same process; their outage frequencies must agree."""

    def _scalar_rates(self, params, trials, seed):
        t = s = 0
        for i in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7, i)))
            out = run_trial(params, rng)
            t += out.t_outage
            s += out.s_outage
        return t / trials, s / trials

    def _assert_agree(self, params, scalar_trials, engine_trials):
        t_scalar, s_scalar = self._scalar_rates(params, scalar_trials, seed=13)
        rep = estimate(params, engine_trials, seed=14)
        total = scalar_trials + engine_trials
        for a, b in ((t_scalar, rep.p_t_hat), (s_scalar, rep.p_s_hat)):
            pooled = (a * scalar_trials + b * engine_trials) / total
            se = math.sqrt(max(pooled * (1 - pooled), 1e-12)
                           * (1 / scalar_trials + 1 / engine_trials))
            assert abs(a - b) <= 4 * se, (a, b, se)

    @pytest.mark.parametrize("maker", [
        equal_params, general_params,
        pytest.param(functools.partial(general_params, alpha=3.5), id="general_alpha_3.5")])
    def test_outage_rates_agree(self, maker):
        params = maker(n=4, m=2, k=2, tau=0.6, gamma_r=0.8, gamma_e=1.2)
        self._assert_agree(params, 6000, 60_000)

    def test_outage_rates_agree_with_fifty_relays_and_eavesdroppers(self):
        # both outage rates mid-range (about 0.42 and 0.67); the engine walks
        # each batch in 13-trial chunks here
        params = general_params(n=50, m=50, k=3, r=0.3, tau=0.2, gamma_r=0.3, gamma_e=5.0)
        self._assert_agree(params, 500, 3 * BATCH_SIZE)


class TestCompare:
    def test_pass_with_slack(self):
        p = equal_params(n=5, k=1, m=1, tau=0.3)
        rep = estimate(p, 50_000, seed=4)
        bnd = evaluate_bounds(p, 0.19, 0.19)
        row = compare(rep, bnd)
        assert row.t_pass  # the closed form is an upper bound
        assert row.t_slack >= 0

    def test_saturated_secrecy_bound_always_passes(self):
        p = equal_params(n=5, k=1, m=3, tau=0.01)
        rep = estimate(p, 20_000, seed=6)
        bnd = evaluate_bounds(p, 0.19, 0.19)
        assert bnd.bound_s.saturated
        assert compare(rep, bnd).s_pass

    def test_mismatched_params_rejected(self):
        p1, p2 = equal_params(), equal_params(tau=0.4)
        rep = estimate(p1, 1000, seed=0)
        bnd = evaluate_bounds(p2, 0.19, 0.19)
        with pytest.raises(ValueError):
            compare(rep, bnd)

    def test_failing_comparison_flags(self):
        import dataclasses

        p = equal_params()
        rep = estimate(p, 50_000, seed=8)
        bnd = evaluate_bounds(p, 0.19, 0.19)
        forced = dataclasses.replace(bnd, bound_t=max(rep.p_t_hat - 0.05, 0.0))
        row = compare(rep, forced)
        assert not row.t_pass and row.t_slack < 0


class TestLoadBalanceTrends:
    def test_larger_candidate_sets_balance_load_and_cost_reliability(self):
        n, trials = 6, 100_000
        cond_jains, uncond_jains, pts = [], [], []
        for k in (1, 3, 6):
            rep = estimate(equal_params(n=n, k=k, m=0, tau=0.8), trials, seed=33)
            cond_jains.append(rep.conditional_jain)
            uncond_jains.append(rep.jain_index)
            pts.append(rep.p_t_hat)
        # the within-trial selection law carries the tradeoff: Jain = k/n
        assert cond_jains == pytest.approx([1 / 6, 3 / 6, 1.0])
        assert pts[0] < pts[1] < pts[2]
        # per-trial networks are independent, so relays are exchangeable and
        # the across-trials histogram is near-uniform for every k
        for jain in uncond_jains:
            assert jain == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("n, k, r", [(5, 2, 0.3), (2, 2, 0.55), (1, 1, 0.6)],
                         ids=["inscribed-disc", "clipped-disc", "pi-r2-above-1"])
def test_bound_region_law_is_the_one_select_samples(n, k, r):
    """The bounds' in-region count L ~ Binomial(n, disc_square_overlap(r)) is the
    count ``_select`` samples, below r = 0.5, up to r = 1/sqrt(pi) and past it.

    Two comparisons per radius, each at 4 standard errors: the no-candidate
    rate against P(L = 0), and the conditional Jain index against
    E[min(k, L) | L >= 1] / n.  (n, k) keep P(L = 0) at 1% or more.
    """
    trials = 20_000
    rep = estimate(general_params(n=n, m=0, k=k, r=r), trials, seed=2013)
    p = disc_square_overlap(r)
    pmf = [math.comb(n, l) * p**l * (1 - p) ** (n - l) for l in range(n + 1)]
    none = 1.0 - sum(region_sums(n, k, r))
    assert none >= 0.01 and none == pytest.approx(pmf[0], rel=1e-12)
    assert abs(rep.no_candidate_rate - none) <= 4 * math.sqrt(none * (1 - none) / trials)
    # the candidate count c = min(k, L) of a trial with a candidate
    mean = sum(min(k, l) * w for l, w in enumerate(pmf) if l) / (1 - none)
    var = max(sum(min(k, l) ** 2 * w for l, w in enumerate(pmf) if l) / (1 - none) - mean**2,
              0.0)
    se = math.sqrt(var / (trials * (1 - none))) / n
    assert abs(rep.conditional_jain - mean / n) <= 4 * se
