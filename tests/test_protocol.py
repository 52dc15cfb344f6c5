import math

import numpy as np
import pytest
from scipy.stats import chisquare

from twohopsec.model import (
    DEST,
    SOURCE,
    Case,
    NetworkInstance,
    ProtocolParams,
    eave_node,
    realize_network,
    relay_node,
)
from twohopsec.protocol import (
    CandidateSet,
    execute_trial,
    jammer_set,
    pick_relay,
    region_filter,
    run_trial,
    select_candidates,
)


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


def placed_instance(relays, eaves=(), gains=None, case=Case.DISTANCE_DEPENDENT, rng=None):
    return NetworkInstance(
        case=case,
        relay_positions=np.asarray(relays, dtype=float).reshape(-1, 2),
        eave_positions=np.asarray(eaves, dtype=float).reshape(-1, 2),
        gains=dict(gains or {}),
        rng=rng,
    )


def full_equal_instance(n, m, rng):
    """Equal-path-loss instance with every possibly-consulted gain predrawn."""
    inst = NetworkInstance(case=Case.EQUAL_PATH_LOSS, _n=n, _m=m, rng=rng)
    for j in range(n):
        inst.gain(SOURCE, relay_node(j))
        inst.gain(DEST, relay_node(j))
        for jj in range(j + 1, n):
            inst.gain(relay_node(j), relay_node(jj))
        for i in range(m):
            inst.gain(relay_node(j), eave_node(i))
    for i in range(m):
        inst.gain(SOURCE, eave_node(i))
    inst.rng = None
    return inst


class TestRegionFilter:
    def test_zero_radius(self):
        inst = placed_instance([[0.1, 0.1], [-0.2, 0.3]])
        assert region_filter(inst, 0.0) == []

    def test_radius_covering_square(self):
        inst = placed_instance(np.random.default_rng(0).uniform(-0.5, 0.5, (20, 2)))
        assert region_filter(inst, 1.0) == list(range(20))

    def test_hand_geometry(self):
        inst = placed_instance([[0.0, 0.0], [0.4, 0.0], [0.49, 0.49]])
        assert region_filter(inst, 0.45) == [0, 1]

    def test_equal_case_returns_all(self):
        inst = NetworkInstance(case=Case.EQUAL_PATH_LOSS, _n=4)
        assert region_filter(inst, 0.0) == [0, 1, 2, 3]


class TestSelectCandidates:
    def gains_for(self, values):
        gains = {}
        for j, v in enumerate(values):
            gains[(DEST, relay_node(j))] = v
            gains[(relay_node(j), SOURCE)] = v + 5.0  # min is the D-side gain
        return gains

    def test_empty_region(self):
        inst = placed_instance([[0.0, 0.0]], gains=self.gains_for([1.0]))
        cs = select_candidates(inst, [], 2)
        assert cs.indices == [] and cs.region_count == 0

    def test_k_covers_region(self):
        inst = placed_instance(np.zeros((3, 2)), gains=self.gains_for([0.5, 0.2, 0.9]))
        cs = select_candidates(inst, [0, 1, 2], 5)
        assert sorted(cs.indices) == [0, 1, 2]
        assert cs.indices == [2, 0, 1]  # descending bottleneck gain

    def test_top_two_of_four(self):
        inst = placed_instance(np.zeros((4, 2)), gains=self.gains_for([0.9, 0.1, 0.5, 0.7]))
        cs = select_candidates(inst, [0, 1, 2, 3], 2)
        assert cs.indices == [0, 3]

    def test_tie_broken_by_index(self):
        inst = placed_instance(np.zeros((3, 2)), gains=self.gains_for([0.4, 0.4, 0.4]))
        cs = select_candidates(inst, [0, 1, 2], 2)
        assert cs.indices == [0, 1]


class TestPickRelay:
    def test_singleton(self):
        cs = CandidateSet(indices=[7], region_count=1)
        assert pick_relay(cs, np.random.default_rng(0)) == 7

    def test_empty_signals_none(self):
        cs = CandidateSet(indices=[], region_count=0)
        assert pick_relay(cs, np.random.default_rng(0)) is None

    def test_uniform_frequencies(self):
        cs = CandidateSet(indices=[3, 5, 8, 11], region_count=4)
        rng = np.random.default_rng(17)
        counts = {i: 0 for i in cs.indices}
        for _ in range(100_000):
            counts[pick_relay(cs, rng)] += 1
        for c in counts.values():
            assert c / 100_000 == pytest.approx(0.25, abs=0.01)

    def test_conditional_uniformity_chisquare(self):
        cs = CandidateSet(indices=[0, 1, 2, 3, 4], region_count=5)
        rng = np.random.default_rng(5)
        counts = np.zeros(5)
        for _ in range(100_000):
            counts[pick_relay(cs, rng)] += 1
        assert chisquare(counts).pvalue > 1e-3


class TestJammerSet:
    def test_zero_threshold_strict(self):
        inst = full_equal_instance(4, 0, np.random.default_rng(2))
        assert jammer_set(inst, relay_node(0), 0, 0.0) == []

    def test_infinite_threshold(self):
        inst = full_equal_instance(4, 0, np.random.default_rng(2))
        assert jammer_set(inst, relay_node(0), 0, math.inf) == [1, 2, 3]

    def test_expected_size(self):
        params = equal_params(n=8, m=0, tau=0.5)
        trials = 4000
        rng = np.random.default_rng(31)
        sizes = [run_trial(params, rng).jam1_size for _ in range(trials)]
        p = 1 - math.exp(-params.tau)
        expect = (params.n - 1) * p
        sigma = math.sqrt((params.n - 1) * p * (1 - p) / trials)
        assert abs(np.mean(sizes) - expect) <= 3 * sigma


class TestTrials:
    def test_no_eavesdroppers_never_secrecy_outage(self):
        params = equal_params(m=0)
        rng = np.random.default_rng(0)
        assert all(not run_trial(params, rng).s_outage for _ in range(300))

    def test_tiny_gamma_r_never_transmission_outage_equal(self):
        params = equal_params(n=4, k=1, m=0, tau=0.0, gamma_r=1e-12, n0=2.0)
        rng = np.random.default_rng(1)
        assert all(not run_trial(params, rng).t_outage for _ in range(300))

    def test_no_candidate_outcome(self):
        params = general_params(n=2, k=1, m=1, r=0.1)
        inst = placed_instance([[0.45, 0.45], [-0.45, 0.4]], [[0.0, 0.0]],
                               rng=np.random.default_rng(3))
        out = execute_trial(inst, params, np.random.default_rng(4))
        assert out.selected_relay is None
        assert out.candidate_count == 0
        assert out.t_outage and not out.s_outage
        assert math.isnan(out.hop1_sinr)

    def test_eavesdropper_at_source_always_captured(self):
        params = general_params(n=3, k=1, m=1, d0=0.05)
        rng = np.random.default_rng(9)
        for _ in range(50):
            inst = realize_network(params, rng)
            inst.eave_positions[0] = [-0.5, 0.0]  # sits on the source
            out = execute_trial(inst, params, rng)
            if out.selected_relay is not None:
                assert out.s_outage

    def test_histogram_invariant_fields(self):
        params = general_params(n=4, k=2, m=1, r=0.3)
        rng = np.random.default_rng(12)
        out = run_trial(params, rng)
        assert (out.selected_relay is None) == (out.candidate_count == 0)

    def test_t_outage_monotone_in_gamma_r(self):
        low = equal_params(n=5, k=2, m=0, tau=0.4, gamma_r=0.5)
        high = equal_params(n=5, k=2, m=0, tau=0.4, gamma_r=1.5)
        for seed in range(400):
            out_low = run_trial(low, np.random.default_rng(seed))
            out_high = run_trial(high, np.random.default_rng(seed))
            assert not (out_low.t_outage and not out_high.t_outage)

    def test_s_outage_monotone_in_tau_fixed_draws(self):
        rng = np.random.default_rng(77)
        hits = 0
        for seed in range(300):
            inst = full_equal_instance(4, 2, np.random.default_rng(1000 + seed))
            small = equal_params(n=4, k=1, m=2, tau=0.2)
            large = equal_params(n=4, k=1, m=2, tau=2.0)
            out_small = execute_trial(inst, small, np.random.default_rng(seed))
            out_large = execute_trial(inst, large, np.random.default_rng(seed))
            assert out_small.selected_relay == out_large.selected_relay
            assert out_large.jam1_size >= out_small.jam1_size
            assert not (out_large.s_outage and not out_small.s_outage)
            hits += out_small.s_outage
        assert 0 < hits  # the property was exercised


class TestExactTrialArithmetic:
    """Hand-computed trial on a fully prefilled network."""

    def build(self):
        gains = {
            (SOURCE, relay_node(0)): 1.2, (DEST, relay_node(0)): 0.9,
            (SOURCE, relay_node(1)): 0.8, (DEST, relay_node(1)): 0.3,
            (SOURCE, relay_node(2)): 0.2, (DEST, relay_node(2)): 0.7,
            (relay_node(0), relay_node(1)): 0.45,
            (relay_node(0), relay_node(2)): 0.6,
            (SOURCE, eave_node(0)): 2.0,
            (relay_node(0), eave_node(0)): 0.6,
            (relay_node(1), eave_node(0)): 0.1,
        }
        inst = NetworkInstance(case=Case.EQUAL_PATH_LOSS, _n=3, _m=1)
        inst.gains = {tuple(sorted(k)): v for k, v in gains.items()}
        return inst

    def params(self, gamma_r):
        return ProtocolParams(n=3, m=1, k=1, r=math.inf, tau=0.5, gamma_r=gamma_r,
                              gamma_e=3.0, es=2.0, n0=0.4, case=Case.EQUAL_PATH_LOSS)

    def test_hand_computed_outcome(self):
        out = execute_trial(self.build(), self.params(gamma_r=2.2),
                            np.random.default_rng(0))
        # best bottleneck gain is relay 0 (min(1.2, 0.9) = 0.9)
        assert out.selected_relay == 0
        # only relay 1 has its receiver-side gain below tau on each hop, and
        # that same gain is its interference contribution
        assert out.jam1_size == 1 and out.jam2_size == 1
        assert out.hop1_sinr == pytest.approx(2 * 1.2 / (2 * 0.45 + 0.2))
        assert out.hop2_sinr == pytest.approx(2 * 0.9 / (2 * 0.3 + 0.2))
        assert out.t_outage  # hop 1 SINR 2.1818... < 2.2
        # eavesdropper: hop-1 SINR 4.0/0.4 = 10, hop-2 SINR 1.2/0.4 = 3.0 >= 3
        assert out.s_outage

    def test_threshold_sensitivity(self):
        out = execute_trial(self.build(), self.params(gamma_r=2.1),
                            np.random.default_rng(0))
        assert not out.t_outage


class TestCaptureDiscs:
    def run_with_eave_at(self, position):
        gains = {
            tuple(sorted((SOURCE, relay_node(0)))): 1.0,
            tuple(sorted((DEST, relay_node(0)))): 1.0,
            tuple(sorted((SOURCE, eave_node(0)))): 1e-9,
            tuple(sorted((relay_node(0), eave_node(0)))): 1e-9,
        }
        inst = NetworkInstance(
            case=Case.DISTANCE_DEPENDENT,
            relay_positions=np.array([[0.0, 0.0]]),
            eave_positions=np.array([position]),
            gains=gains,
        )
        params = ProtocolParams(n=1, m=1, k=1, r=1.0, tau=0.0, gamma_r=1e-9,
                                gamma_e=1.0, n0=1.0, d0=0.05,
                                case=Case.DISTANCE_DEPENDENT)
        return execute_trial(inst, params, np.random.default_rng(0))

    def test_capture_around_selected_relay(self):
        assert self.run_with_eave_at([0.03, 0.0]).s_outage

    def test_capture_around_source(self):
        assert self.run_with_eave_at([-0.48, 0.0]).s_outage

    def test_no_capture_in_open_area(self):
        assert not self.run_with_eave_at([0.2, 0.2]).s_outage

    def test_destination_is_not_a_capture_center(self):
        assert not self.run_with_eave_at([0.48, 0.0]).s_outage
