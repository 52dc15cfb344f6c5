"""Closed-form outage bounds for the distance-dependent case.

The geometry enters through three unit-square path-loss integrals (worst
cases of the interference seen at the selected relay, at the destination
endpoint, and at a corner eavesdropper).  Written as stated they diverge
for alpha >= 2, so the distance argument is clamped below at ``delta`` --
the same clamp the simulator applies -- which makes bound and simulation
describe one regularized model.  The integrals are evaluated by exact
radial integration in polar coordinates followed by panel Gauss-Legendre
quadrature over the angle, with a resolution-doubling convergence check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds_equal import EavesTolerance, SaturatingBound, _check_eps, _secrecy_budget
from .orderstats import _binom_pmf

__all__ = [
    "QuadratureError",
    "GeometryIntegrals",
    "geometry_integrals",
    "disc_square_overlap",
    "channel_survival_base",
    "nu_coeffs",
    "transmission_bound_general",
    "transmission_bound_general_tight",
    "secrecy_bound_general",
    "tau_max_general",
    "tau_min_general",
    "max_eaves_general",
]


class QuadratureError(RuntimeError):
    """Numerical quadrature failed to converge within the resolution cap."""


@dataclass(frozen=True)
class GeometryIntegrals:
    """Clamped path-loss integrals over the unit square.

    ``midpoint`` integrates max(dist, delta)^-alpha around the square
    center (worst-case interference at a relay in the selection region),
    ``endpoint`` around the destination-side edge midpoint, and ``corner``
    around a square corner (weakest interference at an eavesdropper).
    ``resolution`` records the angular panel count the values converged at.
    """

    midpoint: float
    endpoint: float
    corner: float
    alpha: float
    delta: float
    resolution: int

    def __post_init__(self):
        for name in ("midpoint", "endpoint", "corner"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} integral must be positive and finite, got {v}")

    @property
    def hop_sum(self) -> float:
        return self.midpoint + self.endpoint


_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)


def _radial_profile(reach: np.ndarray, alpha: float, delta: float) -> np.ndarray:
    """integral_0^R max(r, delta)^-alpha * r dr, exact in r."""
    short = 0.5 * np.minimum(reach, delta) ** 2 * delta ** (-alpha)
    if alpha == 2.0:
        tail = np.log(np.maximum(reach, delta) / delta)
    else:
        tail = (np.maximum(reach, delta) ** (2.0 - alpha) - delta ** (2.0 - alpha)) / (
            2.0 - alpha
        )
    return short + tail


def _panel_thetas(lo: float, hi: float, panels: int):
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    thetas = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return thetas.ravel(), weights.ravel()


def _corner_rectangle_integral(
    width: float, height: float, alpha: float, delta: float, panels: int
) -> float:
    """Clamped integral of dist-to-origin^-alpha over [0, width] x [0, height]."""
    theta_c = math.atan2(height, width)
    total = 0.0
    for lo, hi, reach_of in (
        (0.0, theta_c, lambda t: width / np.cos(t)),
        (theta_c, 0.5 * math.pi, lambda t: height / np.sin(t)),
    ):
        if hi <= lo:
            continue
        thetas, weights = _panel_thetas(lo, hi, panels)
        total += float(np.sum(weights * _radial_profile(reach_of(thetas), alpha, delta)))
    return total


def _evaluate_integrals(alpha: float, delta: float, panels: int):
    phi1 = 4.0 * _corner_rectangle_integral(0.5, 0.5, alpha, delta, panels)
    phi2 = 2.0 * _corner_rectangle_integral(1.0, 0.5, alpha, delta, panels)
    psi = _corner_rectangle_integral(1.0, 1.0, alpha, delta, panels)
    return phi1, phi2, psi


@functools.lru_cache(maxsize=256)
def geometry_integrals(
    alpha: float,
    delta: float,
    resolution: int = 8,
    rel_tol: float = 1e-4,
    max_resolution: int = 4096,
) -> GeometryIntegrals:
    """Evaluate the three clamped geometry integrals to a stable resolution.

    Starting from ``resolution`` angular panels per segment, the panel count
    doubles until all three values change by less than ``rel_tol``
    relative; exceeding ``max_resolution`` raises ``QuadratureError``.
    """
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if resolution < 1:
        raise ValueError("resolution must be a positive panel count")
    panels = int(resolution)
    prev = _evaluate_integrals(alpha, delta, panels)
    while True:
        if panels * 2 > max_resolution:
            raise QuadratureError(
                f"geometry integrals did not converge within {max_resolution} panels"
            )
        panels *= 2
        cur = _evaluate_integrals(alpha, delta, panels)
        if all(abs(c - p) <= rel_tol * abs(c) for c, p in zip(cur, prev)):
            return GeometryIntegrals(
                midpoint=cur[0],
                endpoint=cur[1],
                corner=cur[2],
                alpha=alpha,
                delta=delta,
                resolution=panels,
            )
        prev = cur


def _integrals_for(alpha, delta, integrals, resolution):
    if integrals is not None:
        return integrals
    if resolution is None:
        return geometry_integrals(alpha, delta)
    return geometry_integrals(alpha, delta, resolution)


def disc_square_overlap(r: float) -> float:
    """Exact area of the radius-r disc at the square center clipped to the unit square."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r <= 0.5:
        return math.pi * r * r
    if r >= math.sqrt(0.5):
        return 1.0
    segment = r * r * math.acos(0.5 / r) - 0.5 * math.sqrt(r * r - 0.25)
    return math.pi * r * r - 4.0 * segment


def channel_survival_base(n: int, gamma_r: float, tau: float, r: float, alpha: float) -> float:
    """Per-unit-integral survival factor of a legitimate channel under jamming.

    exp(-gamma_r*tau*(n-1)*(1-e^-tau)*(0.5+r)^alpha); raising it to a
    geometry-integral power gives the survival probability of a hop whose
    worst-case signal path has length 0.5 + r.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if tau < 0 or gamma_r <= 0 or r < 0:
        raise ValueError("require tau >= 0, gamma_r > 0, r >= 0")
    if tau == 0.0 or n == 1:
        return 1.0
    return math.exp(
        -gamma_r * tau * (n - 1) * (-math.expm1(-tau)) * (0.5 + r) ** alpha
    )


def _region_probability(n: int, k: int, r: float, p_region) -> float:
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    if p_region is None:
        p = math.pi * r * r
        if p > 1.0:
            raise ValueError(
                f"pi*r^2 = {p:.4g} exceeds 1 and is not a probability; pass "
                "p_region (e.g. disc_square_overlap(r)) to override"
            )
        return p
    if not 0.0 <= p_region <= 1.0:
        raise ValueError("p_region must lie in [0, 1]")
    return float(p_region)


def _binom_sums(n: int, k: int, p: float):
    """(P(1 <= L <= k), P(L > k)) for L ~ Binomial(n, p), 1 <= k <= n."""
    if p == 0.0:
        return 0.0, 0.0
    if p == 1.0:
        return (1.0, 0.0) if k == n else (0.0, 1.0)
    pmf = _binom_pmf(n, np.arange(n + 1), math.log(p), math.log1p(-p))
    return float(pmf[1 : k + 1].sum()), float(pmf[k + 1 :].sum())


def nu_coeffs(n: int, k: int, r: float, p_region=None):
    """k^2-scaled binomial masses of the in-region relay count, split at k."""
    p = _region_probability(n, k, r, p_region)
    s1, s2 = _binom_sums(n, k, p)
    return k * k * s1, k * k * s2


def transmission_bound_general(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    tau: float,
    alpha: float,
    delta: float,
    p_region=None,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
) -> float:
    """Upper bound on transmission outage in the distance-dependent case.

    1 - U^(phi1+phi2) * P(1 <= L <= k) - U^(2(phi1+phi2))/k^2 * P(L > k)
    with L the binomial in-region relay count and U the survival base.
    """
    geo = _integrals_for(alpha, delta, integrals, resolution)
    p = _region_probability(n, k, r, p_region)
    s1, s2 = _binom_sums(n, k, p)
    u = channel_survival_base(n, gamma_r, tau, r, alpha)
    phi = geo.hop_sum
    value = 1.0 - u**phi * s1 - (u ** (2.0 * phi)) / (k * k) * s2
    return min(max(value, 0.0), 1.0)


def _geom_series(v: float, k: int) -> float:
    """sum_{i=0}^{k-1} v^i with the v -> 1 limit."""
    if v >= 1.0:
        return float(k)
    return (1.0 - v**k) / (1.0 - v)


def transmission_bound_general_tight(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    tau: float,
    alpha: float,
    delta: float,
    p_region=None,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
) -> float:
    """Pre-relaxation transmission bound (diagnostic).

    Keeps the rank geometric-series factors the plain bound drops, so it
    is never looser than ``transmission_bound_general``.
    """
    geo = _integrals_for(alpha, delta, integrals, resolution)
    p = _region_probability(n, k, r, p_region)
    s1, s2 = _binom_sums(n, k, p)
    u = channel_survival_base(n, gamma_r, tau, r, alpha)
    phi1, phi2 = geo.midpoint, geo.endpoint
    x = (
        u ** (2.0 * (phi1 + phi2))
        * _geom_series(u ** (2.0 * phi1), k)
        * _geom_series(u ** (2.0 * phi2), k)
        / (k * k)
    )
    value = 1.0 - u ** (phi1 + phi2) * s1 - x * s2
    return min(max(value, 0.0), 1.0)


def secrecy_bound_general(
    n: int,
    m: int,
    gamma_e: float,
    tau: float,
    d0: float,
    alpha: float,
    delta: float,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
) -> SaturatingBound:
    """Upper bound on secrecy outage: 2mW - (mW)^2 with capture-disc floor.

    W = pi*d0^2 + (1/(1+gamma_e*psi*d0^alpha))^{(n-1)(1-e^-tau)} (1-pi*d0^2).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    cap = math.pi * d0 * d0
    if cap > 1.0:
        raise ValueError("pi*d0^2 exceeds 1; capture disc larger than the network")
    geo = _integrals_for(alpha, delta, integrals, resolution)
    base = 1.0 / (1.0 + gamma_e * geo.corner * d0**alpha)
    w = cap + base ** ((n - 1) * (-math.expm1(-tau))) * (1.0 - cap)
    x = m * w
    return SaturatingBound(value=2.0 * x - x * x, saturated=x > 1.0)


def _survival_target(n: int, k: int, r: float, eps_t: float, p_region) -> float | None:
    """Smallest admissible value of U^(phi1+phi2), or None when unreachable."""
    nu1, nu2 = nu_coeffs(n, k, r, p_region)
    if nu1 == 0.0 and nu2 == 0.0:
        return None
    if nu2 == 0.0:
        u_star = (1.0 - eps_t) * k * k / nu1
    else:
        u_star = (
            k * k * math.sqrt(nu1 * nu1 + 4.0 * (1.0 - eps_t) * nu2) - k * k * nu1
        ) / (2.0 * nu2)
    if u_star >= 1.0:
        return None
    return u_star


def tau_max_general(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    alpha: float,
    delta: float,
    eps_t: float,
    p_region=None,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
):
    """Largest jamming threshold keeping the transmission bound within eps_t.

    Inverts the quadratic in U^(phi1+phi2); when the above-k binomial mass
    vanishes (k = n or tiny regions) the quadratic degenerates and the
    linear inversion is used instead.  ``None`` marks infeasibility.
    """
    if n < 2:
        raise ValueError("tau window requires n >= 2")
    _check_eps(eps_t, "eps_t")
    if gamma_r <= 0:
        raise ValueError("gamma_r must be positive")
    geo = _integrals_for(alpha, delta, integrals, resolution)
    u_star = _survival_target(n, k, r, eps_t, p_region)
    if u_star is None:
        return None
    if u_star <= 0.0:
        return math.inf
    denom = gamma_r * (n - 1) * geo.hop_sum * (0.5 + r) ** alpha
    return math.sqrt(-math.log(u_star) / denom)


def tau_min_general(
    n: int,
    m: int,
    gamma_e: float,
    d0: float,
    alpha: float,
    delta: float,
    eps_s: float,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
):
    """Smallest jamming threshold keeping the secrecy bound within eps_s.

    Infeasible (``None``) when the capture discs alone exhaust the secrecy
    budget or when d0 = 0 degenerates the inversion (log(1+0) = 0).
    """
    if n < 2:
        raise ValueError("tau window requires n >= 2")
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_eps(eps_s, "eps_s")
    cap = math.pi * d0 * d0
    if cap >= 1.0:
        raise ValueError("pi*d0^2 must be below 1")
    budget = _secrecy_budget(eps_s) / m - cap
    if budget <= 0.0:
        return None
    ratio = budget / (1.0 - cap)
    if ratio >= 1.0:
        return 0.0
    geo = _integrals_for(alpha, delta, integrals, resolution)
    level = gamma_e * geo.corner * d0**alpha
    if level == 0.0:
        return None
    bracket = 1.0 + math.log(ratio) / ((n - 1) * math.log1p(level))
    if bracket <= 0.0:
        return None
    return -math.log(bracket)


def max_eaves_general(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    gamma_e: float,
    d0: float,
    alpha: float,
    delta: float,
    eps_t: float,
    eps_s: float,
    p_region=None,
    integrals: GeometryIntegrals | None = None,
    resolution=None,
):
    """Tolerable eavesdropper count in the distance-dependent case.

    (1-sqrt(1-eps_s)) / (pi*d0^2 + (1-pi*d0^2)*omega) where omega is the
    per-eavesdropper factor at the largest admissible jamming threshold.
    ``None`` when the reliability requirement is infeasible.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    _check_eps(eps_t, "eps_t")
    _check_eps(eps_s, "eps_s")
    cap = math.pi * d0 * d0
    if cap >= 1.0:
        raise ValueError("pi*d0^2 must be below 1")
    geo = _integrals_for(alpha, delta, integrals, resolution)
    u_star = _survival_target(n, k, r, eps_t, p_region)
    if u_star is None:
        return None
    base = 1.0 / (1.0 + gamma_e * geo.corner * d0**alpha)
    if u_star <= 0.0:
        omega = 0.0 if base < 1.0 else 1.0
    else:
        exponent = math.sqrt(
            -(n - 1) * math.log(u_star) / (gamma_r * geo.hop_sum * (0.5 + r) ** alpha)
        )
        omega = base**exponent
    denom = cap + (1.0 - cap) * omega
    y = _secrecy_budget(eps_s)
    if denom == 0.0:
        return EavesTolerance(bound=math.inf, count=None)
    bound = y / denom
    if math.isinf(bound):
        return EavesTolerance(bound=bound, count=None)
    return EavesTolerance(bound=bound, count=int(math.floor(bound)))
