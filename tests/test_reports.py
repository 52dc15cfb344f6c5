import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twohopsec import bounds_equal as beq
from twohopsec import bounds_general as bgen
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


@pytest.mark.parametrize("case", [Case.EQUAL_PATH_LOSS, Case.DISTANCE_DEPENDENT])
def test_one_relay_has_both_bounds_and_no_window(case):
    p = ProtocolParams(n=1, m=2, k=1, r=0.3, tau=0.4, gamma_r=1.0, gamma_e=1.5, case=case)
    rep = evaluate_bounds(p, 0.19, 0.19)
    if p.is_general:
        bound_t = bgen.transmission_bound_general(1, 1, 0.3, 1.0, 0.4, p.alpha, p.delta)
        bound_s = bgen.secrecy_bound_general(1, 2, 1.5, 0.4, p.d0, p.alpha, p.delta)
    else:
        bound_t = beq.transmission_bound_equal(1, 1, 1.0, 0.4)
        bound_s = beq.secrecy_bound_equal(1, 2, 1.5, 0.4)
    assert (rep.bound_t, rep.bound_s) == (bound_t, bound_s)
    assert rep.window == TauWindow(None, None) and rep.max_eaves is None
    assert not rep.feasible
    with pytest.raises(ValueError, match="eps_t"):
        evaluate_bounds(p, 1.0, 0.19)


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
# the equal-case eavesdropper tolerance passes the float range here
@example(general=False, n=572, k=1, m=0, r=0.0, tau=math.inf, gamma_r=0.001, gamma_e=59.0)
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


@pytest.mark.parametrize("n, k, r", [(10, 3, 0.3), (763, 3, 0.25), (8, 8, 0.4), (40, 2, 0.7)])
def test_general_evaluation_splits_the_binomial_once(monkeypatch, n, k, r):
    bgen.region_sums.cache_clear()
    calls = []
    split = bgen._binom_sums
    monkeypatch.setattr(bgen, "_binom_sums", lambda *a: calls.append(a) or split(*a))
    for r_now in (r, r, r - 0.01):
        # (gamma_e, m, alpha, delta, eps): none of these enters the binomial masses
        for gamma_e, m, alpha, delta, eps in [(1.5, 3, 2.0, None, 0.19), (0.5, 0, 3.0, 0.02, 0.05),
                                              (4.0, 10, 2.5, 0.1, 0.3)]:
            p = ProtocolParams(n=n, m=m, k=k, r=r_now, tau=0.4, gamma_r=0.8, gamma_e=gamma_e,
                               alpha=alpha, delta=delta, case=Case.DISTANCE_DEPENDENT)
            rep = evaluate_bounds(p, eps, eps)
            # each bound on its own looks up the same masses
            standalone = (
                bgen.transmission_bound_general(n, k, r_now, p.gamma_r, p.tau, p.alpha, p.delta),
                bgen.tau_max_general(n, k, r_now, p.gamma_r, p.alpha, p.delta, eps),
                bgen.max_eaves_general(n, k, r_now, p.gamma_r, p.gamma_e, p.d0, p.alpha,
                                       p.delta, eps, eps),
            )
            assert (rep.bound_t, rep.window.tau_max, rep.max_eaves) == standalone
        # one split per distinct (n, k, r); the second pass at r splits nothing
        assert len(calls) == (1 if r_now == r else 2)

