import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohopsec.model import Case, ProtocolParams
from twohopsec.reports import TauWindow, evaluate_bounds


def test_window_feasibility():
    assert TauWindow(0.1, 0.5).feasible
    assert not TauWindow(0.5, 0.1).feasible
    assert not TauWindow(None, 0.5).feasible
    assert not TauWindow(0.1, None).feasible
    assert TauWindow(0.0, math.inf).feasible


def test_equal_dispatch_matches_worked_example():
    p = ProtocolParams(n=5, m=1, k=1, r=math.inf, tau=0.2, gamma_r=1.0,
                       gamma_e=math.e - 1, case=Case.EQUAL_PATH_LOSS)
    rep = evaluate_bounds(p, 0.19, 0.19)
    assert rep.window.tau_min == pytest.approx(0.8571879103462934)
    assert rep.window.tau_max == pytest.approx(0.11476090125660518)
    assert not rep.feasible
    assert rep.max_eaves.count == 0


def test_general_dispatch_zero_radius():
    p = ProtocolParams(n=5, m=1, k=1, r=0.0, tau=0.1, gamma_r=1.0, gamma_e=1.0,
                       case=Case.DISTANCE_DEPENDENT)
    rep = evaluate_bounds(p, 0.3, 0.3)
    assert rep.bound_t == 1.0
    assert rep.window.tau_max is None
    assert rep.max_eaves is None


def test_no_eavesdroppers_window_floor():
    p = ProtocolParams(n=5, m=0, k=1, r=math.inf, tau=0.1, gamma_r=1.0,
                       gamma_e=1.0, case=Case.EQUAL_PATH_LOSS)
    rep = evaluate_bounds(p, 0.19, 0.19)
    assert rep.window.tau_min == 0.0
    assert rep.bound_s.value == 0.0


@settings(max_examples=60, deadline=None)
@given(
    general=st.booleans(),
    n=st.integers(2, 10_000),
    k=st.integers(1, 10),
    m=st.integers(0, 1000),
    r=st.floats(0.0, 0.5),
    tau=st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),
    gamma_r=st.floats(1e-3, 1e3),
    gamma_e=st.floats(1e-3, 1e3),
)
def test_bounds_are_probabilities_at_any_n(general, n, k, m, r, tau, gamma_r, gamma_e):
    """k stays small: the top-k CDF costs O(k * n) per point."""
    p = ProtocolParams(
        n=n, m=m, k=min(k, n), r=r if general else math.inf, tau=tau, gamma_r=gamma_r,
        gamma_e=gamma_e,
        case=Case.DISTANCE_DEPENDENT if general else Case.EQUAL_PATH_LOSS,
    )
    rep = evaluate_bounds(p, 0.19, 0.19)
    assert 0.0 <= rep.bound_t <= 1.0
    assert 0.0 <= rep.bound_s.effective <= 1.0
