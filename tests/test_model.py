import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohopsec.model import Case, ConfigurationError, ProtocolParams
from twohopsec.protocol import (
    DEST,
    SOURCE,
    NetworkInstance,
    eave_node,
    path_loss,
    realize_network,
    relay_node,
    sinr,
)


def make_params(**overrides):
    base = dict(n=5, m=2, k=2, r=0.4, tau=0.3, gamma_r=1.0, gamma_e=1.0,
                case=Case.DISTANCE_DEPENDENT)
    base.update(overrides)
    return ProtocolParams(**base)


class TestProtocolParams:
    def test_defaults(self):
        p = make_params()
        assert p.n0 == pytest.approx(1e-6 * p.es)
        assert p.delta == p.d0

    def test_equal_case_forces_infinite_radius(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS, r=0.4)
        assert math.isinf(p.r)

    def test_k_range(self):
        with pytest.raises(ValueError):
            make_params(k=0)
        with pytest.raises(ValueError):
            make_params(k=6)

    def test_no_relays_requires_k_zero(self):
        p = make_params(n=0, k=0)
        assert p.n == 0
        with pytest.raises(ValueError):
            make_params(n=0, k=1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            make_params(gamma_r=0.0)
        with pytest.raises(ValueError):
            make_params(alpha=1.5)
        with pytest.raises(ValueError):
            make_params(tau=-0.1)

    def test_delta_default_requires_positive_d0(self):
        with pytest.raises(ValueError):
            make_params(d0=0.0)
        p = make_params(d0=0.0, delta=0.05)
        assert p.delta == 0.05

    @pytest.mark.parametrize(
        "field", ["r", "tau", "gamma_r", "gamma_e", "alpha", "d0", "es", "n0", "delta"]
    )
    def test_nan_rejected_everywhere(self, field):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: math.nan})

    @pytest.mark.parametrize("field", ["gamma_r", "gamma_e", "alpha", "d0", "es", "n0", "delta"])
    def test_infinity_rejected_where_undefined(self, field):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: math.inf})
        with pytest.raises(ValueError):
            make_params(**{field: -math.inf})

    def test_path_loss_that_overflows_rejected(self):
        # 0.05^-300 is past the float range: the engine would form inf
        # path losses and 0 * inf = NaN interference
        with pytest.raises(ValueError, match="overflows"):
            make_params(alpha=300.0)
        assert make_params(alpha=200.0).alpha == 200.0
        # max(1, delta)^-alpha <= 1 in the equal case
        assert make_params(case=Case.EQUAL_PATH_LOSS, alpha=300.0).alpha == 300.0

    def test_unbounded_radius_and_threshold_accepted(self):
        p = make_params(r=math.inf, tau=math.inf)
        assert math.isinf(p.r) and math.isinf(p.tau)
        with pytest.raises(ValueError):
            make_params(r=-math.inf)
        with pytest.raises(ValueError):
            make_params(tau=-math.inf)


class TestPathLoss:
    def test_unit_distance(self):
        for alpha in (2.0, 3.0, 4.0):
            assert path_loss(1.0, alpha, 0.05) == 1.0

    def test_clamp_engages(self):
        assert path_loss(0.0, 2.0, 0.05) == pytest.approx(400.0)

    def test_quartic(self):
        assert path_loss(0.5, 4.0, 0.05) == pytest.approx(16.0)

    def test_nonincreasing_and_continuous_at_clamp(self):
        delta = 0.07
        ds = np.linspace(0.0, 1.5, 200)
        vals = [path_loss(d, 2.0, delta) for d in ds]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        eps = 1e-9
        assert path_loss(delta - eps, 2.0, delta) == pytest.approx(
            path_loss(delta + eps, 2.0, delta), rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            path_loss(1.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            path_loss(1.0, 2.0, 0.0)


class TestSinr:
    def test_unit_quotient(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS, es=1.0, n0=2.0)
        assert sinr(1.0, 1.0, [], p) == pytest.approx(1.0)

    def test_gain_ratio_at_equal_distance(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS, n0=0.0)
        assert sinr(3.0, 1.0, [(1.0, 1.0)], p) == pytest.approx(3.0)

    def test_hand_evaluated_formula(self):
        p = make_params(es=2.0, alpha=2.0, n0=1.0, delta=0.05)
        assert sinr(0.5, 2.0, [(1.0, 1.0)], p) == pytest.approx(0.1)

    def test_zero_denominator_rejected(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS, n0=0.0)
        with pytest.raises(ConfigurationError):
            sinr(1.0, 1.0, [], p)

    def test_invalid_signal(self):
        p = make_params()
        with pytest.raises(ValueError):
            sinr(-1.0, 1.0, [], p)


@settings(max_examples=100, deadline=None)
@given(
    g=st.floats(min_value=0.0, max_value=10.0),
    bump=st.floats(min_value=1e-6, max_value=5.0),
    jg=st.floats(min_value=0.0, max_value=10.0),
    jd=st.floats(min_value=0.05, max_value=1.4),
)
def test_sinr_monotonicity(g, bump, jg, jd):
    p = make_params()
    base = sinr(g, 0.8, [(jg, jd)], p)
    assert sinr(g + bump, 0.8, [(jg, jd)], p) >= base
    assert sinr(g, 0.8, [(jg + bump, jd)], p) <= base
    assert sinr(g, 0.8, [(jg, jd), (bump, 0.5)], p) <= base


class TestNetworkInstance:
    def test_empty_network(self):
        p = make_params(n=0, m=0, k=0)
        inst = realize_network(p, np.random.default_rng(0))
        assert inst.n == 0 and inst.m == 0

    def test_positions_inside_square(self):
        p = make_params(n=50, m=20)
        inst = realize_network(p, np.random.default_rng(1))
        assert np.all(np.abs(inst.relay_positions) <= 0.5)
        assert np.all(np.abs(inst.eave_positions) <= 0.5)
        assert np.allclose(inst.position(SOURCE), [-0.5, 0.0])
        assert np.allclose(inst.position(DEST), [0.5, 0.0])

    def test_fixed_seed_bit_identical(self):
        p = make_params(n=6, m=3)
        a = realize_network(p, np.random.default_rng(42))
        b = realize_network(p, np.random.default_rng(42))
        assert np.array_equal(a.relay_positions, b.relay_positions)
        assert np.array_equal(a.eave_positions, b.eave_positions)
        pairs = [(SOURCE, relay_node(2)), (DEST, relay_node(0)), (relay_node(1), eave_node(2))]
        assert [a.gain(x, y) for x, y in pairs] == [b.gain(x, y) for x, y in pairs]

    def test_gain_reciprocity_and_caching(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS)
        inst = realize_network(p, np.random.default_rng(3))
        g1 = inst.gain(SOURCE, relay_node(0))
        assert inst.gain(relay_node(0), SOURCE) == g1

    def test_equal_case_distances(self):
        p = make_params(case=Case.EQUAL_PATH_LOSS)
        inst = realize_network(p, np.random.default_rng(4))
        assert inst.distance(SOURCE, relay_node(3)) == 1.0
        assert inst.distance(relay_node(1), relay_node(2)) == 1.0
        assert inst.distance(SOURCE, SOURCE) == 0.0

    def test_general_distance(self):
        inst = NetworkInstance(
            case=Case.DISTANCE_DEPENDENT,
            relay_positions=np.array([[0.0, 0.0], [0.3, 0.4]]),
            eave_positions=np.zeros((0, 2)),
        )
        assert inst.distance(relay_node(0), relay_node(1)) == pytest.approx(0.5)
        assert inst.distance(SOURCE, relay_node(0)) == pytest.approx(0.5)

    def test_missing_gain_without_rng(self):
        inst = NetworkInstance(case=Case.EQUAL_PATH_LOSS, _n=2, _m=0)
        with pytest.raises(KeyError):
            inst.gain(SOURCE, relay_node(0))
        inst.gains[(relay_node(0), SOURCE)] = 1.25
        assert inst.gain(SOURCE, relay_node(0)) == 1.25

    def test_gain_moments(self):
        # law-of-large-numbers check on the lazy exponential draws
        p = make_params(case=Case.EQUAL_PATH_LOSS, n=50_000, k=1, m=0)
        inst = realize_network(p, np.random.default_rng(8))
        draws = np.array(
            [inst.gain(SOURCE, relay_node(j)) for j in range(50_000)]
            + [inst.gain(DEST, relay_node(j)) for j in range(50_000)]
        )
        assert draws.mean() == pytest.approx(1.0, abs=0.01)
        assert draws.var() == pytest.approx(1.0, abs=0.02)
