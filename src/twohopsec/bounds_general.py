"""Closed-form outage bounds for the distance-dependent case.

The geometry enters through three unit-square path-loss integrals (worst
cases of the interference seen at the selected relay, at the destination
endpoint, and at a corner eavesdropper).  Written as stated they diverge
for alpha >= 2, so the distance argument is clamped below at ``delta`` --
the same clamp the simulator applies -- which makes bound and simulation
describe one regularized model.  The integrals are evaluated by exact
radial integration in polar coordinates followed by panel Gauss-Legendre
quadrature over the angle, with a resolution-doubling convergence check.
They are cached per (alpha, delta), and the binomial masses of the in-region
relay count, Binomial(n, disc_square_overlap(r)) as the simulator samples it
for every r up to inf, per (n, k, r); each bound looks both up there.
The secrecy, tau-window and tolerance algebra is shared with
``bounds_equal``, whose case is the capture share 0 at level gamma_e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bounds_equal import (
    SaturatingBound,
    _check_point,
    _check_reliability,
    _check_secrecy,
    _interception,
    _root,
    _tau_min,
    _tolerance,
)
from .orderstats import _binom_pmf

__all__ = [
    "QuadratureError",
    "GeometryIntegrals",
    "geometry_integrals",
    "disc_square_overlap",
    "channel_survival_base",
    "region_sums",
    "transmission_bound_general",
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


# The 16-point Gauss-Legendre rule on [-1, 1], np.polynomial.legendre.leggauss(16)
# to the bit: written out, since importing numpy.polynomial and its first LAPACK
# call cost every process set-up time and memory.  The rule is symmetric about 0.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = np.concatenate([-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES])
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)


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


_REL_TOL = 1e-4  # the relative change at which the panel doubling stops


@functools.lru_cache(maxsize=256)
def geometry_integrals(
    alpha: float,
    delta: float,
    resolution: int = 8,
    max_resolution: int = 4096,
) -> GeometryIntegrals:
    """Evaluate the three clamped geometry integrals to a stable resolution.

    Starting from ``resolution`` angular panels per segment, the panel count
    doubles until all three values change by less than ``_REL_TOL``
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
        if all(abs(c - p) <= _REL_TOL * abs(c) for c, p in zip(cur, prev)):
            return GeometryIntegrals(
                midpoint=cur[0],
                endpoint=cur[1],
                corner=cur[2],
                alpha=alpha,
                delta=delta,
                resolution=panels,
            )
        prev = cur


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


def _hop_loss(r: float, alpha: float) -> float:
    """(0.5 + r)^alpha, the loss factor of the longest hop to a region relay, or inf."""
    try:
        return (0.5 + r) ** alpha
    except OverflowError:
        return math.inf


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
    reach = _hop_loss(r, alpha)
    if math.isinf(reach):
        # 0 for every tau > 0; the product below would take 0 * inf once
        # tau * (1 - e^-tau) underflows
        return 0.0
    return math.exp(-gamma_r * tau * (n - 1) * (-math.expm1(-tau)) * reach)


def _binom_sums(n: int, k: int, p: float):
    """(P(1 <= L <= k), P(L > k)) for L ~ Binomial(n, p), 1 <= k <= n."""
    if p == 0.0:
        return 0.0, 0.0
    if p == 1.0:
        return (1.0, 0.0) if k == n else (0.0, 1.0)
    pmf = _binom_pmf(n, np.arange(n + 1), math.log(p), math.log1p(-p))
    return float(pmf[1 : k + 1].sum()), float(pmf[k + 1 :].sum())


@functools.lru_cache(maxsize=256, typed=True)
def region_sums(n: int, k: int, r: float):
    """(P(1 <= L <= k), P(L > k)) for the in-region relay count L.

    L ~ Binomial(n, disc_square_overlap(r)), the law the simulator samples.
    Cached per (n, k, r), argument types included, so
    ``transmission_bound_general``, ``tau_max_general`` and
    ``max_eaves_general`` pay for the binomial masses once per distinct input.
    """
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")
    return _binom_sums(n, k, disc_square_overlap(r))


def transmission_bound_general(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    tau: float,
    alpha: float,
    delta: float,
) -> float:
    """Upper bound on transmission outage in the distance-dependent case.

    1 - U^(phi1+phi2) * P(1 <= L <= k) - U^(2(phi1+phi2))/k^2 * P(L > k)
    with L the binomial in-region relay count and U the survival base.  A
    NaN raises FloatingPointError: the clamp to [0, 1] would pass it through.
    """
    s1, s2 = region_sums(n, k, r)
    u = channel_survival_base(n, gamma_r, tau, r, alpha)
    phi = geometry_integrals(alpha, delta).hop_sum
    value = 1.0 - u**phi * s1 - (u ** (2.0 * phi)) / (k * k) * s2
    if math.isnan(value):
        raise FloatingPointError("the transmission bound evaluated to NaN")
    return min(max(value, 0.0), 1.0)


def _eaves_level(gamma_e: float, d0: float, alpha: float, delta: float) -> float:
    """gamma_e * psi * d0^alpha, the per-jammer level at a corner eavesdropper."""
    attenuation = d0**alpha  # 0 at d0 = 0, also where gamma_e * psi is inf
    if attenuation == 0.0:
        return 0.0
    return gamma_e * geometry_integrals(alpha, delta).corner * attenuation


def _capture_share(d0: float) -> float:
    """pi*d0^2, the share of the network inside an eavesdropper's capture disc."""
    cap = math.pi * d0 * d0
    if cap > 1.0:
        raise ValueError("pi*d0^2 exceeds 1; capture disc larger than the network")
    return cap


def secrecy_bound_general(
    n: int,
    m: int,
    gamma_e: float,
    tau: float,
    d0: float,
    alpha: float,
    delta: float,
) -> SaturatingBound:
    """Upper bound on secrecy outage: 2mW - (mW)^2 with capture-disc floor.

    W = pi*d0^2 + (1/(1+gamma_e*psi*d0^alpha))^{(n-1)(1-e^-tau)} (1-pi*d0^2).
    """
    _check_point(n, gamma_e, tau, "gamma_e")
    cap = _capture_share(d0)
    level = _eaves_level(gamma_e, d0, alpha, delta)
    return _interception(m, level, (n - 1) * (-math.expm1(-tau)), cap)


def _survival_target(k: int, eps_t: float, sums) -> float | None:
    """Smallest admissible value of U^(phi1+phi2); None when no region relay exists.

    ``sums`` is ``region_sums(n, k, r)``; nu1 and nu2 are its k^2-scaled
    masses.  The positive root of (nu2/k^2) x^2 + nu1 x = (1-eps_t) k^2 is
    rationalized, so a tiny nu2 does not cancel it and nu2 = 0 needs no branch.
    """
    s1, s2 = sums
    nu1, nu2 = k * k * s1, k * k * s2
    if nu1 == 0.0 and nu2 == 0.0:
        return None
    c = 1.0 - eps_t
    return 2.0 * c * k * k / (math.hypot(nu1, 2.0 * math.sqrt(c * nu2)) + nu1)


def tau_max_general(
    n: int,
    k: int,
    r: float,
    gamma_r: float,
    alpha: float,
    delta: float,
    eps_t: float,
):
    """Largest jamming threshold keeping the transmission bound within eps_t.

    Inverts the quadratic in U^(phi1+phi2), linear when no relay mass lies
    above k.  Finite, or ``None`` when no threshold meets it or n = 1.
    """
    _check_reliability(n, k, gamma_r, eps_t)
    target = _survival_target(k, eps_t, region_sums(n, k, r))
    if n == 1 or target is None:
        return None
    denom = gamma_r * (n - 1) * geometry_integrals(alpha, delta).hop_sum * _hop_loss(r, alpha)
    return _root(math.log(target), denom)


def tau_min_general(
    n: int,
    m: int,
    gamma_e: float,
    d0: float,
    alpha: float,
    delta: float,
    eps_s: float,
):
    """Smallest jamming threshold keeping the secrecy bound within eps_s.

    Infeasible (``None``) when the capture discs alone exhaust the secrecy
    budget, when d0 = 0 degenerates the inversion (log(1+0) = 0) or n = 1;
    0.0 at m = 0.
    """
    _check_secrecy(n, gamma_e, eps_s)
    cap = _capture_share(d0)
    return _tau_min(n, m, _eaves_level(gamma_e, d0, alpha, delta), eps_s, cap)


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
):
    """Tolerable eavesdropper count in the distance-dependent case.

    (1-sqrt(1-eps_s)) / (pi*d0^2 + (1-pi*d0^2)*omega) where omega is the
    per-eavesdropper factor at the largest admissible jamming threshold.
    ``None`` when the reliability requirement is infeasible or n = 1.
    """
    tau_hi = tau_max_general(n, k, r, gamma_r, alpha, delta, eps_t)
    _check_secrecy(n, gamma_e, eps_s)
    cap = _capture_share(d0)
    return _tolerance(n, tau_hi, _eaves_level(gamma_e, d0, alpha, delta), eps_s, cap)
