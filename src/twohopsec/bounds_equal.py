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
    "channel_survival",
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

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class EavesTolerance:
    """Real-valued eavesdropper tolerance plus its integer floor.

    ``count`` is None when the bound is unbounded.
    """

    bound: float
    count: int | None


def _check_eps(eps: float, name: str) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1")


def _secrecy_budget(eps_s: float) -> float:
    return 1.0 - math.sqrt(1.0 - eps_s)


def _interference_level(n: int, gamma_r: float, tau: float) -> float:
    """gamma_r * E[#jammers] * tau, the gain level a hop must beat.

    A lone relay has no one to jam it, also at tau = inf where the product
    would be 0 * inf.
    """
    if n == 1:
        return 0.0
    return gamma_r * (n - 1) * (-math.expm1(-tau)) * tau


def channel_survival(n: int, gamma_r: float, tau: float) -> float:
    """Survival of one bottleneck channel against expected jamming.

    exp(-2*gamma_r*(n-1)*(1-e^-tau)*tau): the probability that a rate-2
    exponential gain exceeds gamma_r times the expected number of jammers,
    (n-1)(1-e^-tau), each contributing interference below tau.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tau < 0 or gamma_r <= 0:
        raise ValueError("tau must be nonnegative and gamma_r positive")
    return math.exp(-2.0 * _interference_level(n, gamma_r, tau))


def transmission_bound_equal(n: int, k: int, gamma_r: float, tau: float) -> float:
    """Upper bound on the end-to-end transmission outage probability.

    2Q - Q^2 where Q is the per-hop failure bound: the top-k selection CDF
    evaluated at the expected-interference level.  An infinite level (tau ->
    inf with other relays present) is the limit Q = 1.
    """
    level = _interference_level(n, gamma_r, tau)
    if math.isinf(level):
        return 1.0
    q = float(topk_random_cdf(level, k, n))
    return 2.0 * q - q * q


def secrecy_bound_equal(n: int, m: int, gamma_e: float, tau: float) -> SaturatingBound:
    """Upper bound on the secrecy outage probability, 2mB - (mB)^2.

    B = (1/(1+gamma_e))^{(n-1)(1-e^-tau)} is the per-eavesdropper,
    per-hop interception bound under the expected number of jammers.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if n < 1 or gamma_e <= 0 or tau < 0:
        raise ValueError("require n >= 1, gamma_e > 0, tau >= 0")
    b = (1.0 / (1.0 + gamma_e)) ** ((n - 1) * (-math.expm1(-tau)))
    x = m * b
    return SaturatingBound(value=2.0 * x - x * x, saturated=x > 1.0)


def _reliability_bracket(k: int, eps_t: float) -> float:
    """[C(k, floor(k/2)) * (1 + k*sqrt(1-eps_t))]^(1/k) - 1, in log space."""
    log_c = math.lgamma(k + 1) - math.lgamma(k // 2 + 1) - math.lgamma(k - k // 2 + 1)
    return math.expm1((log_c + math.log1p(k * math.sqrt(1.0 - eps_t))) / k)


def tau_max_equal(n: int, k: int, gamma_r: float, eps_t: float):
    """Largest jamming threshold keeping the transmission bound within eps_t.

    Returns the closed-form value, ``math.inf`` when the requirement never
    binds, or ``None`` when no threshold can satisfy it (the central-binomial
    relaxation makes k >= 2 infeasible at moderate eps_t).
    """
    if n < 2:
        raise ValueError("tau window requires n >= 2")
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    _check_eps(eps_t, "eps_t")
    if gamma_r <= 0:
        raise ValueError("gamma_r must be positive")
    bracket = _reliability_bracket(k, eps_t)
    if bracket <= 0.0:
        return math.inf
    if bracket >= 1.0:
        return None
    return math.sqrt(-math.log(bracket) / (2.0 * gamma_r * (n - 1)))


def tau_min_equal(n: int, m: int, gamma_e: float, eps_s: float):
    """Smallest jamming threshold keeping the secrecy bound within eps_s.

    Returns 0 when the budget (1-sqrt(1-eps_s))/m already exceeds 1, and
    ``None`` when jamming cannot reach the target at any threshold.
    """
    if n < 2:
        raise ValueError("tau window requires n >= 2")
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_eps(eps_s, "eps_s")
    if gamma_e <= 0:
        raise ValueError("gamma_e must be positive")
    ratio = _secrecy_budget(eps_s) / m
    if ratio >= 1.0:
        return 0.0
    bracket = 1.0 + math.log(ratio) / ((n - 1) * math.log1p(gamma_e))
    if bracket <= 0.0:
        return None
    return -math.log(bracket)


def max_eaves_equal(
    n: int, k: int, gamma_r: float, gamma_e: float, eps_t: float, eps_s: float
):
    """Tolerable eavesdropper count under both outage requirements.

    (1 - sqrt(1-eps_s)) divided by the per-eavesdropper factor evaluated at
    the largest admissible jamming threshold.  ``None`` when the reliability
    requirement itself is infeasible.
    """
    _check_eps(eps_s, "eps_s")
    if gamma_e <= 0:
        raise ValueError("gamma_e must be positive")
    bracket = _reliability_bracket(k, eps_t)
    if n < 2:
        raise ValueError("requires n >= 2")
    if bracket >= 1.0:
        return None
    y = _secrecy_budget(eps_s)
    if bracket <= 0.0:
        return EavesTolerance(bound=math.inf, count=None)
    exponent = math.sqrt(-(n - 1) * math.log(bracket) / (2.0 * gamma_r))
    bound = y * (1.0 + gamma_e) ** exponent
    if math.isinf(bound):
        return EavesTolerance(bound=bound, count=None)
    return EavesTolerance(bound=bound, count=int(math.floor(bound)))


def transmission_bound_equal_binomial_jammers(
    n: int, k: int, gamma_r: float, tau: float
) -> float:
    """Diagnostic transmission bound keeping the jammer count binomial.

    Same derivation as ``transmission_bound_equal`` but averaging the
    per-hop failure CDF over the Binomial(n-1, 1-e^-tau) jammer count
    instead of substituting its expectation.  Useful for tracing
    simulation-vs-bound violations to that substitution.
    """
    if tau == 0.0 or math.isinf(tau):
        # the jammer count is certain (0 or n - 1), so its mean is exact
        return transmission_bound_equal(n, k, gamma_r, tau)
    j = np.arange(n)
    w = _binom_pmf(n - 1, j, math.log(-math.expm1(-tau)), -tau)
    q_tilde = float(np.dot(w, topk_random_cdf(gamma_r * j * tau, k, n)))
    return 2.0 * q_tilde - q_tilde * q_tilde


def secrecy_bound_equal_binomial_jammers(
    n: int, m: int, gamma_e: float, tau: float
) -> SaturatingBound:
    """Diagnostic secrecy bound keeping the jammer count binomial.

    E[(1/(1+gamma_e))^J] over J ~ Binomial(n-1, 1-e^-tau) has the closed
    form (1 - p*gamma_e/(1+gamma_e))^(n-1).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    p = -math.expm1(-tau)
    b = (1.0 - p * gamma_e / (1.0 + gamma_e)) ** (n - 1)
    x = m * b
    return SaturatingBound(value=2.0 * x - x * x, saturated=x > 1.0)
