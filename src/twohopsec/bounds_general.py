"""Closed-form outage bounds for the distance-dependent case.

The geometry enters through three unit-square path-loss integrals (worst
cases of the interference seen at the selected relay, at the destination
endpoint, and at a corner eavesdropper).  Written as stated they diverge
for alpha >= 2, so the distance argument is clamped below at ``delta`` --
the same clamp the simulator applies -- which makes bound and simulation
describe one regularized model.  The integrals are evaluated by exact
radial integration in polar coordinates followed by panel Gauss-Legendre
quadrature over the angle, with a resolution-doubling convergence check.
The nodes of a panel count (weight, reach R to the edge, log R) depend on
neither alpha nor delta, so they are built once on ``math`` and an
(alpha, delta) costs one radial profile per node.  The integrals are cached
per (alpha, delta), and the binomial masses of the in-region relay count,
Binomial(n, disc_square_overlap(r)) as the simulator samples it for every
r up to inf, per (n, k, r), each mass from the one form of ``orderstats``;
each bound looks both up there.
The secrecy, tau-window and tolerance algebra is shared with
``bounds_equal``, whose case is the capture share 0 at level gamma_e.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul

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
from .orderstats import _binom_masses

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


# The 16-point Gauss-Legendre rule on [-1, 1], numpy.polynomial.legendre.leggauss(16)
# to the bit, written out.  The rule is symmetric about 0.
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                    0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                    0.062253523938647456, 0.027152459411754176)
_GL_NODES = tuple(-x for x in _GL_HALF_NODES[::-1]) + _GL_HALF_NODES
_GL_WEIGHTS = _GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS

# (factor, width, height): phi1 = 4 I(0.5, 0.5), phi2 = 2 I(1, 0.5) and psi = I(1, 1),
# with I(w, h) the clamped integral of dist-to-origin^-alpha over [0, w] x [0, h]
_RECTANGLES = ((4.0, 0.5, 0.5), (2.0, 1.0, 0.5), (1.0, 1.0, 1.0))


@functools.lru_cache(maxsize=4)
def _nodes(panels: int) -> tuple:
    """Per rectangle, the (weights, R, log R) of its nodes sorted by R: none depends on
    (alpha, delta).  The ray at angle t from the corner leaves at R = w/cos(t) or h/sin(t)."""
    tables = []
    for _, width, height in _RECTANGLES:
        theta_c, nodes = math.atan2(height, width), []
        for lo, hi, reach_of in ((0.0, theta_c, lambda t: width / math.cos(t)),
                                 (theta_c, 0.5 * math.pi, lambda t: height / math.sin(t))):
            step = (hi - lo) / panels  # the edges of np.linspace(lo, hi, panels + 1)
            edges = [i * step + lo for i in range(panels)] + [hi]
            for a, b in zip(edges, edges[1:]):
                half, mid = 0.5 * (b - a), 0.5 * (b + a)
                nodes += [(reach_of(mid + half * x), half * w)
                          for x, w in zip(_GL_NODES, _GL_WEIGHTS)]
        reach, weights = zip(*sorted(nodes))
        tables.append((weights, reach, tuple(map(math.log, reach))))
    return tuple(tables)


def _radial_sum(table, alpha: float, delta: float) -> float:
    """Sum over the nodes of weight * integral_0^R max(s, delta)^-alpha s ds, exact in s.

    That is 0.5 R^2 delta^-alpha for the nodes with R <= delta (a prefix of
    the table); the rest add to c0 = 0.5 delta^(2-alpha) the tail log(R/delta),
    or (R^(2-alpha) - delta^(2-alpha))/(2-alpha) at alpha != 2.
    """
    weights, reach, log_reach = table
    i = bisect.bisect_right(reach, delta)
    near, w = delta**-alpha, weights[i:]
    clamped = 0.5 * near * math.fsum(map(mul, weights[:i], map(mul, reach[:i], reach[:i])))
    c0 = 0.5 * delta * delta * near
    if alpha == 2.0:
        free = math.fsum(map(mul, w, log_reach[i:])) + (c0 - math.log(delta)) * math.fsum(w)
    else:
        e = 2.0 - alpha
        free = (math.fsum(map(mul, w, map(pow, reach[i:], repeat(e)))) / e
                + (c0 - delta**e / e) * math.fsum(w))
    return clamped + free


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
    panels, prev = int(resolution), None
    while True:
        cur = [factor * _radial_sum(table, alpha, delta)
               for (factor, _, _), table in zip(_RECTANGLES, _nodes(panels))]
        if prev and all(abs(c - p) <= _REL_TOL * abs(c) for c, p in zip(cur, prev)):
            return GeometryIntegrals(*cur, alpha=alpha, delta=delta, resolution=panels)
        if panels * 2 > max_resolution:
            raise QuadratureError(
                f"geometry integrals did not converge within {max_resolution} panels"
            )
        panels, prev = panels * 2, cur


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
    """(P(L = 0), P(1 <= L <= k), P(L > k)) for L ~ Binomial(n, p), 1 <= k <= n."""
    if p == 0.0:
        return 1.0, 0.0, 0.0
    if p == 1.0:
        return (0.0, 1.0, 0.0) if k == n else (0.0, 0.0, 1.0)
    masses = _binom_masses(n, range(n + 1), math.log(p), math.log1p(-p))
    return masses[0], math.fsum(masses[1 : k + 1]), math.fsum(masses[k + 1 :])


@functools.lru_cache(maxsize=256, typed=True)
def region_sums(n: int, k: int, r: float):
    """(P(L = 0), P(1 <= L <= k), P(L > k)) for the in-region relay count L.

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
    _, s1, s2 = region_sums(n, k, r)
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


def _log_survival_target(k: int, eps_t: float, sums) -> float | None:
    """log of the smallest admissible U^(phi1+phi2); None when no region relay exists.

    ``sums`` is ``region_sums(n, k, r)``: P(L = 0), then the two masses that
    nu1 and nu2 scale by k^2.  The root x of (nu2/k^2) x^2 + nu1 x = c k^2, c = 1 - eps_t,
    is 2 c k^2 / R with R = hypot(nu1, 2 sqrt(c nu2)) + nu1, so a tiny nu2 does not
    cancel it; from x = 0.5 up its log is log1p(x - 1) with x - 1 rationalized
    too, so neither a tight eps_t nor a target near 1 cancels.
    """
    empty, s1, s2 = sums
    nu1, nu2 = k * k * s1, k * k * s2
    if nu1 == 0.0 and nu2 == 0.0:
        return None
    c = 1.0 - eps_t
    root = math.hypot(nu1, 2.0 * math.sqrt(c * nu2)) + nu1
    if 2.0 * c * k * k < 0.5 * root:
        return math.log(2.0 * c * k * k / root)
    # x - 1 = 4 c k^2 excess / (D R), D = 2 c k^2 - nu1 + hypot(...), so x >= 1 iff excess >= 0
    excess = k * k * (empty - eps_t) + (k * k - 1) * s2
    return math.log1p(4.0 * c * k * k * excess / ((2.0 * c * k * k + 4.0 * c * nu2 / root) * root))


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
    log_target = _log_survival_target(k, eps_t, region_sums(n, k, r))
    if n == 1 or log_target is None:
        return None
    geometry, reach = (n - 1) * geometry_integrals(alpha, delta).hop_sum, _hop_loss(r, alpha)
    # the log of reach is alpha log(0.5 + r) where reach underflows, at a huge alpha
    log_denom = (math.log(gamma_r) + math.log(geometry)
                 + (math.log(reach) if reach > 0.0 else alpha * math.log(0.5 + r)))
    return _root(log_target, gamma_r * geometry * reach, log_denom)


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
