"""Closed-form outage bounds and parameter windows, equal-path-loss case.

With every pair of nodes at unit distance the protocol reduces to its
radius-free form, and the outage probabilities admit closed-form upper
bounds driven by a single survival factor: the probability that one relay's
bottleneck channel beats the expected cooperative-jamming interference.
This module evaluates those bounds, inverts them into the admissible window
for the jamming threshold ``tau``, and computes the resulting tolerable
eavesdropper count.  Infeasibility is a first-class result (``None``), not
an exception, so parameter sweeps can record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orderstats import _binom_pmf, topk_random_cdf

__all__ = [
    "SaturatingBound",
    "EavesTolerance",
    "transmission_bound_equal",
    "secrecy_bound_equal",
    "tau_max_equal",
    "tau_min_equal",
    "max_eaves_equal",
    "transmission_bound_equal_binomial_jammers",
    "secrecy_bound_equal_binomial_jammers",
]


@dataclass(frozen=True)
class SaturatingBound:
    """A raw bound expression plus a flag marking where it stops being a probability.

    The secrecy bounds have the shape 2x - x^2 with x = m * (per-eavesdropper
    factor); once x exceeds 1 the expression is no longer an upper bound on a
    probability, so callers comparing against simulation should use
    ``effective`` (which falls back to the trivial bound 1).  The raw value
    is kept because the tau-window inversions operate on the raw form.
    """

    value: float
    saturated: bool

    @property
    def effective(self) -> float:
        return 1.0 if self.saturated else self.value


@dataclass(frozen=True)
class EavesTolerance:
    """Real-valued eavesdropper tolerance plus its integer floor.

    ``bound`` is ``math.inf``, and ``count`` None, when the per-eavesdropper
    factor is 0 or the budget over it passes the largest float.
    """

    bound: float
    count: int | None


def _check_eps(eps: float, name: str) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1")


def _check_reliability(n: int, k: int, gamma_r: float, eps_t: float) -> None:
    """The inputs every tau_max and tolerance evaluation must satisfy."""
    if n < 1:
        raise ValueError("tau window requires n >= 1")
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    _check_eps(eps_t, "eps_t")
    if gamma_r <= 0:
        raise ValueError("gamma_r must be positive")


def _check_secrecy(n: int, gamma_e: float, eps_s: float) -> None:
    """The inputs every tau_min and tolerance evaluation must satisfy."""
    if n < 1:
        raise ValueError("tau window requires n >= 1")
    _check_eps(eps_s, "eps_s")
    if gamma_e <= 0:
        raise ValueError("gamma_e must be positive")


def _check_point(n: int, gamma: float, tau: float, name: str) -> None:
    """The inputs every outage bound at one tau must satisfy; ``name`` is the SINR threshold's."""
    if n < 1 or gamma <= 0 or tau < 0:
        raise ValueError(f"require n >= 1, {name} > 0, tau >= 0")


def _secrecy_budget(eps_s: float) -> float:
    """1 - sqrt(1 - eps_s), rationalized so that a small eps_s does not cancel."""
    return eps_s / (1.0 + math.sqrt(1.0 - eps_s))


def _interception(m: int, level: float, J: float, cap: float = 0.0) -> SaturatingBound:
    """The secrecy bound 2x - x^2 with x = m * (cap + (1 - cap) / (1 + level)^J).

    ``J`` is the number of jammers an eavesdropper hears, ``level`` the
    interference each contributes relative to the signal, and ``cap`` the
    share of eavesdroppers close enough to capture the signal regardless
    (pi*d0^2 in the distance-dependent case, 0 with equal path loss).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    x = m * (cap + (1.0 / (1.0 + level)) ** J * (1.0 - cap))
    return SaturatingBound(value=2.0 * x - x * x, saturated=x > 1.0)


def _tau_min(n: int, m: int, level: float, eps_s: float, cap: float = 0.0):
    """Smallest tau bringing ``_interception`` with J = (n-1)(1-e^-tau) within eps_s.

    ``None`` at n = 1, where no relay jams, when the capture share alone
    exhausts the budget or when no threshold reaches it; 0.0 at m = 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n == 1:
        return None
    if m == 0:
        return 0.0
    budget = _secrecy_budget(eps_s) / m - cap
    if budget <= 0.0 or level == 0.0:
        return None
    x = math.log(budget / (1.0 - cap)) / ((n - 1) * math.log1p(level))
    if x <= -1.0:
        return None
    return -math.log1p(x)


def _root(log_target: float, denom: float):
    """sqrt(-log_target / denom), the largest admissible tau.

    ``log_target`` is the log of the smallest survival level the reliability
    requirement admits; >= 0 means no threshold meets it.
    """
    if log_target >= 0.0:
        return None
    if not denom > 0.0:  # 0 by underflow, or 0 * inf
        raise FloatingPointError("the tau_max denominator underflows")
    return math.sqrt(-log_target / denom)


def _tolerance(n: int, tau_max: float | None, level: float, eps_s: float, cap: float = 0.0):
    """The secrecy budget over ``_interception``'s factor at J = (n-1)*tau_max, which
    relaxes (n-1)(1-e^-tau_max) upward; a ``None`` tau_max stays None."""
    if tau_max is None:
        return None
    factor = cap + (1.0 - cap) * (1.0 / (1.0 + level)) ** ((n - 1) * tau_max)
    bound = _secrecy_budget(eps_s) / factor if factor > 0.0 else math.inf
    return EavesTolerance(bound, None if math.isinf(bound) else int(math.floor(bound)))


def transmission_bound_equal(n: int, k: int, gamma_r: float, tau: float) -> float:
    """Upper bound on the end-to-end transmission outage probability.

    2Q - Q^2 where Q is the per-hop failure bound: the top-k selection CDF
    evaluated at the expected-interference level gamma_r * E[#jammers] * tau.
    An infinite level (tau -> inf with other relays present) is the limit
    Q = 1.
    """
    _check_point(n, gamma_r, tau, "gamma_r")
    # a lone relay has no one to jam it, also at tau = inf where the product
    # would be 0 * inf
    level = 0.0 if n == 1 else gamma_r * (n - 1) * (-math.expm1(-tau)) * tau
    if math.isinf(level):
        return 1.0
    q = float(topk_random_cdf(level, k, n))
    return 2.0 * q - q * q


def secrecy_bound_equal(n: int, m: int, gamma_e: float, tau: float) -> SaturatingBound:
    """Upper bound on the secrecy outage probability, 2mB - (mB)^2.

    B = (1/(1+gamma_e))^{(n-1)(1-e^-tau)} is the per-eavesdropper,
    per-hop interception bound under the expected number of jammers.
    """
    _check_point(n, gamma_e, tau, "gamma_e")
    return _interception(m, gamma_e, (n - 1) * (-math.expm1(-tau)))


def _log_reliability_target(k: int, eps_t: float) -> float:
    """log of [C(k, floor(k/2)) * (1 + k*sqrt(1-eps_t))]^(1/k) - 1, the root formed in log space.

    At k = 1 the bracket is sqrt(1 - eps_t), whose log is log1p(-eps_t) / 2.
    """
    if k == 1:
        return 0.5 * math.log1p(-eps_t)
    log_c = math.lgamma(k + 1) - math.lgamma(k // 2 + 1) - math.lgamma(k - k // 2 + 1)
    return math.log(math.expm1((log_c + math.log1p(k * math.sqrt(1.0 - eps_t))) / k))


def tau_max_equal(n: int, k: int, gamma_r: float, eps_t: float):
    """Largest jamming threshold keeping the transmission bound within eps_t.

    Finite, or ``None`` at n = 1, where no relay jams, and when no threshold
    can satisfy it (the central-binomial relaxation makes k >= 2 infeasible
    at moderate eps_t).
    """
    _check_reliability(n, k, gamma_r, eps_t)
    if n == 1:
        return None
    return _root(_log_reliability_target(k, eps_t), 2.0 * gamma_r * (n - 1))


def tau_min_equal(n: int, m: int, gamma_e: float, eps_s: float):
    """Smallest jamming threshold keeping the secrecy bound within eps_s.

    ``None`` at n = 1 or when no threshold reaches the target; 0.0 at m = 0.
    """
    _check_secrecy(n, gamma_e, eps_s)
    return _tau_min(n, m, gamma_e, eps_s)


def max_eaves_equal(
    n: int, k: int, gamma_r: float, gamma_e: float, eps_t: float, eps_s: float
):
    """Tolerable eavesdropper count under both outage requirements.

    (1 - sqrt(1-eps_s)) divided by the per-eavesdropper factor evaluated at
    the largest admissible jamming threshold.  ``None`` when the reliability
    requirement itself is infeasible or n = 1.
    """
    tau_hi = tau_max_equal(n, k, gamma_r, eps_t)
    _check_secrecy(n, gamma_e, eps_s)
    return _tolerance(n, tau_hi, gamma_e, eps_s)


def transmission_bound_equal_binomial_jammers(
    n: int, k: int, gamma_r: float, tau: float
) -> float:
    """Diagnostic transmission bound keeping the jammer count binomial.

    Same derivation as ``transmission_bound_equal`` but averaging the
    per-hop failure CDF over the Binomial(n-1, 1-e^-tau) jammer count
    instead of substituting its expectation.  Useful for tracing
    simulation-vs-bound violations to that substitution.
    """
    _check_point(n, gamma_r, tau, "gamma_r")
    if tau == 0.0 or math.isinf(tau):
        # the jammer count is certain (0 or n - 1), so its mean is exact
        return transmission_bound_equal(n, k, gamma_r, tau)
    j = np.arange(n)
    w = _binom_pmf(n - 1, j, math.log(-math.expm1(-tau)), -tau)
    with np.errstate(over="ignore"):  # the CDF is exactly 1 long before 1e300
        level = np.minimum(gamma_r * j * tau, 1e300)
    q_tilde = float(np.dot(w, topk_random_cdf(level, k, n)))
    return 2.0 * q_tilde - q_tilde * q_tilde


def secrecy_bound_equal_binomial_jammers(
    n: int, m: int, gamma_e: float, tau: float
) -> SaturatingBound:
    """Diagnostic secrecy bound keeping the jammer count binomial.

    E[(1/(1+gamma_e))^J] over J ~ Binomial(n-1, p = 1-e^-tau) has the
    closed form (1 - p*gamma_e/(1+gamma_e))^(n-1), the plain bound's factor
    with n - 1 jammers at level p*gamma_e/(1+(1-p)*gamma_e).
    """
    _check_point(n, gamma_e, tau, "gamma_e")
    p = -math.expm1(-tau)
    return _interception(m, p * gamma_e / (1.0 + (1.0 - p) * gamma_e), n - 1)
