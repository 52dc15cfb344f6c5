"""The stdlib closed forms against the NumPy arithmetic they replaced.

The quadrature and the binomial masses once ran on NumPy arrays.  This file
keeps that arithmetic as an oracle: the Gauss-Legendre panels built with
``np.linspace`` and broadcast over the nodes, the radial profile on arrays,
and the masses as one array exp over the log-factorial coefficients, summed
by NumPy.  The stdlib forms must agree within 1e-15 relative.
"""

import functools
import math

import numpy as np
import pytest

from twohopsec import bounds_general as bgen
from twohopsec.orderstats import topk_random_cdf

REL = 1e-15


def np_radial_profile(reach, alpha, delta):
    short = 0.5 * np.minimum(reach, delta) ** 2 * delta ** (-alpha)
    if alpha == 2.0:
        tail = np.log(np.maximum(reach, delta) / delta)
    else:
        tail = (np.maximum(reach, delta) ** (2.0 - alpha) - delta ** (2.0 - alpha)) / (2.0 - alpha)
    return short + tail


def np_corner_rectangle_integral(width, height, alpha, delta, panels):
    nodes, weights = np.polynomial.legendre.leggauss(16)
    theta_c = math.atan2(height, width)
    total = 0.0
    for lo, hi, reach_of in ((0.0, theta_c, lambda t: width / np.cos(t)),
                             (theta_c, 0.5 * math.pi, lambda t: height / np.sin(t))):
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        thetas = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        total += float(np.sum(w * np_radial_profile(reach_of(thetas), alpha, delta)))
    return total


def np_geometry_integrals(alpha, delta):
    """(phi1, phi2, psi, panels) by the same resolution doubling as ``geometry_integrals``."""
    def evaluate(panels):
        return (4.0 * np_corner_rectangle_integral(0.5, 0.5, alpha, delta, panels),
                2.0 * np_corner_rectangle_integral(1.0, 0.5, alpha, delta, panels),
                np_corner_rectangle_integral(1.0, 1.0, alpha, delta, panels))

    panels, prev = 8, evaluate(8)
    while True:
        panels *= 2
        cur = evaluate(panels)
        if all(abs(c - p) <= bgen._REL_TOL * abs(c) for c, p in zip(cur, prev)):
            return (*cur, panels)
        prev = cur


@functools.cache
def np_log_factorials(n):
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


def np_binom_pmf(n, l, log_p, log_q):
    log_fact = np_log_factorials(n)
    return np.exp(log_fact[n] - log_fact[l] - log_fact[n - l] + l * log_p + (n - l) * log_q)


@pytest.mark.parametrize("delta", [1e-3, 0.02, 0.05, 0.1, 0.6, 2.0])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0, 8.0])
def test_quadrature_matches_the_numpy_panels(alpha, delta):
    # delta = 0.6 and 2.0 pass the nearest edges, so some or all nodes take the clamp
    geo = bgen.geometry_integrals(alpha, delta)
    *want, panels = np_geometry_integrals(alpha, delta)
    assert geo.resolution == panels
    for got, expected in zip((geo.midpoint, geo.endpoint, geo.corner), want):
        assert got == pytest.approx(expected, rel=REL, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 293, 1000, 10_000])
@pytest.mark.parametrize("r", [0.01, 0.1, 0.3, 0.5, 0.6])
def test_region_sums_match_the_numpy_masses(n, r):
    p = bgen.disc_square_overlap(r)
    pmf = np_binom_pmf(n, np.arange(n + 1), math.log(p), math.log1p(-p))
    for k in sorted({1, 2, 3, 5, n // 2, n - 1, n} & set(range(1, n + 1))):
        want = (float(pmf[0]), float(pmf[1 : k + 1].sum()), float(pmf[k + 1 :].sum()))
        for got, expected in zip(bgen.region_sums(n, k, r), want):
            assert got == pytest.approx(expected, rel=REL, abs=0.0), k


@pytest.mark.parametrize("n", [1, 5, 40, 2000])
def test_topk_cdf_matches_the_numpy_tails(n):
    for k in sorted({1, 2, 5, 16, n} & set(range(1, n + 1))):
        for x in (1e-9, 0.004, 0.3, 1.0, 3.0, 7.0):
            log_q = -2.0 * x
            log_p = math.log(-math.expm1(log_q))
            pmf = np_binom_pmf(n, np.arange(n + 1), log_p, log_q)
            tails = [pmf[n - j + 1:].sum() for j in range(1, k + 1)]
            assert topk_random_cdf(x, k, n) == pytest.approx(sum(tails) / k, rel=1e-13), (k, x)
