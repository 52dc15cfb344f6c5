"""Every accepted input gives a number, None or a clean error: never NaN.

Hypothesis draws ``ProtocolParams`` and the outage targets (eps_t, eps_s)
over the whole domain the model accepts, weighted to its extremes:
subnormal and near-1 targets, r and tau at inf, SINR thresholds at 1e+-300
and beyond, alpha up to 40, d0 = 0 and n up to 10^6.  k stays at or below
50, since the top-k CDF forms O(k^2) binomial masses per point.

Each public bound, window and tolerance, ``evaluate_bounds`` and an
in-process ``bounds`` CLI call must give a value in its range, None (an
unattainable requirement), or one of the clean errors: ``ValueError``,
``FloatingPointError`` or ``QuadratureError``, which the CLI turns into
exit 2 or 3.
"""

import contextlib
import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from twohopsec import bounds_equal as beq
from twohopsec import bounds_general as bgen
from twohopsec.bounds_general import QuadratureError
from twohopsec.cli import CSV_HEADER, main
from twohopsec.model import Case, ProtocolParams
from twohopsec.reports import evaluate_bounds

CLEAN_ERRORS = (ValueError, FloatingPointError, QuadratureError)
REJECTED = object()
BIGGEST = 1.7976931348623157e308


def _with_extremes(extremes, rest):
    return st.one_of(st.sampled_from(extremes), rest)


_targets = _with_extremes([5e-324, 1e-300, 1e-15, 0.19, 1 - 1e-15, 1 - 2**-53],
                          st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
_thresholds = _with_extremes([5e-324, 1e-300, 1e300, BIGGEST],
                             st.floats(5e-324, BIGGEST))
_taus = _with_extremes([0.0, 5e-324, 1e-300, 1e300, math.inf], st.floats(0.0, 50.0))
_radii = _with_extremes([0.0, 1e-300, 0.5, math.sqrt(0.5), 1e300, math.inf], st.floats(0.0, 1.0))
_capture_radii = _with_extremes([0.0, 1e-300, 1.0 / math.sqrt(math.pi)], st.floats(0.0, 0.6))


@st.composite
def _params(draw):
    n = draw(_with_extremes([0, 1, 2, 10**5, 10**6], st.integers(0, 10**6)))
    k = 0 if n == 0 else draw(_with_extremes([1, min(n, 50)], st.integers(1, min(n, 50))))
    general = draw(st.booleans())
    d0 = draw(_capture_radii)
    delta = draw(st.one_of(st.none(), st.floats(1e-6, 10.0)))
    if delta is None and d0 < 1e-6:  # delta defaults to d0, where d0^-alpha may overflow
        delta = 1e-3
    return ProtocolParams(
        n=n, m=draw(_with_extremes([0, 1, 10**6], st.integers(0, 10**6))), k=k,
        r=draw(_radii), tau=draw(_taus), gamma_r=draw(_thresholds), gamma_e=draw(_thresholds),
        alpha=draw(st.floats(2.0, 40.0)), d0=d0,
        delta=delta,
        case=Case.DISTANCE_DEPENDENT if general else Case.EQUAL_PATH_LOSS)


def _call(fn, *args):
    try:
        return fn(*args)
    except CLEAN_ERRORS:
        return REJECTED


def _check_probability(value):
    assert value is REJECTED or 0.0 <= value <= 1.0, value


def _check_secrecy(bound):
    if bound is not REJECTED:
        assert not math.isnan(bound.value) and 0.0 <= bound.effective <= 1.0, bound


def _check_threshold(tau):
    assert tau is REJECTED or tau is None or tau >= 0.0, tau


def _check_tolerance(tol):
    if tol is REJECTED or tol is None:
        return
    assert tol.bound >= 0.0, tol
    assert tol.count == (None if math.isinf(tol.bound) else math.floor(tol.bound)), tol


def _cli_argv(p: ProtocolParams, eps_t: float, eps_s: float):
    argv = ["bounds", "--case", p.case.value]
    for flag, value in [("n", p.n), ("m", p.m), ("k", p.k), ("r", p.r), ("tau", p.tau),
                        ("gamma-r", p.gamma_r), ("gamma-e", p.gamma_e), ("alpha", p.alpha),
                        ("d0", p.d0), ("delta", p.delta), ("eps-t", eps_t), ("eps-s", eps_s)]:
        argv += [f"--{flag}", repr(value)]
    return argv


# the two inputs that printed a NaN cell with exit 0: an overflowing eavesdropper
# level times d0^alpha = 0, and a top-k CDF argument past half the largest float
@example(params=ProtocolParams(n=10, m=1, k=1, r=0.4, tau=0.2, gamma_r=1.0, gamma_e=1e300,
                               alpha=40.0, d0=0.0, delta=0.001, case=Case.DISTANCE_DEPENDENT),
         eps_t=0.19, eps_s=0.19)
@example(params=ProtocolParams(n=181543, m=1, k=3, r=math.inf, tau=1e300, gamma_r=498.0,
                               gamma_e=math.e - 1), eps_t=0.19, eps_s=0.19)
@settings(max_examples=300, deadline=None)
@given(params=_params(), eps_t=_targets, eps_s=_targets)
def test_accepted_inputs_give_a_value_none_or_a_clean_error(params, eps_t, eps_s):
    p = params
    small = p.n <= 2000  # the binomial-jammer diagnostics cost O(n k^2)
    if p.is_general:
        _check_probability(_call(bgen.disc_square_overlap, p.r))
        for s in _call(bgen.region_sums, p.n, p.k, p.r) if p.n >= 1 else ():
            assert s >= 0.0, s  # a sum of masses, 1 + n eps at most
        _check_probability(_call(bgen.channel_survival_base, p.n, p.gamma_r, p.tau, p.r,
                                 p.alpha))
        _check_probability(_call(bgen.transmission_bound_general, p.n, p.k, p.r, p.gamma_r,
                                 p.tau, p.alpha, p.delta))
        _check_secrecy(_call(bgen.secrecy_bound_general, p.n, p.m, p.gamma_e, p.tau, p.d0,
                             p.alpha, p.delta))
        _check_threshold(_call(bgen.tau_max_general, p.n, p.k, p.r, p.gamma_r, p.alpha,
                               p.delta, eps_t))
        _check_threshold(_call(bgen.tau_min_general, p.n, p.m, p.gamma_e, p.d0, p.alpha,
                               p.delta, eps_s))
        _check_tolerance(_call(bgen.max_eaves_general, p.n, p.k, p.r, p.gamma_r, p.gamma_e,
                               p.d0, p.alpha, p.delta, eps_t, eps_s))
    else:
        _check_probability(_call(beq.transmission_bound_equal, p.n, p.k, p.gamma_r, p.tau))
        _check_secrecy(_call(beq.secrecy_bound_equal, p.n, p.m, p.gamma_e, p.tau))
        if small:
            _check_probability(_call(beq.transmission_bound_equal_binomial_jammers, p.n, p.k,
                                     p.gamma_r, p.tau))
        _check_secrecy(_call(beq.secrecy_bound_equal_binomial_jammers, p.n, p.m, p.gamma_e,
                             p.tau))
        _check_threshold(_call(beq.tau_max_equal, p.n, p.k, p.gamma_r, eps_t))
        _check_threshold(_call(beq.tau_min_equal, p.n, p.m, p.gamma_e, eps_s))
        _check_tolerance(_call(beq.max_eaves_equal, p.n, p.k, p.gamma_r, p.gamma_e, eps_t,
                               eps_s))

    rep = _call(evaluate_bounds, p, eps_t, eps_s)
    if rep is not REJECTED:
        _check_probability(rep.bound_t)
        _check_secrecy(rep.bound_s)
        _check_threshold(rep.window.tau_min)
        _check_threshold(rep.window.tau_max)
        _check_tolerance(rep.max_eaves)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_cli_argv(p, eps_t, eps_s))
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (rep is not REJECTED), err.getvalue()
    if code == 0:
        header, row = out.getvalue().splitlines()[1:]
        assert header == CSV_HEADER
        assert "nan" not in row.lower().split(","), row
        assert err.getvalue() == ""
