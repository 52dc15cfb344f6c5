#!/usr/bin/env python3
"""Distance-dependent scenario: geometry integrals, bounds, and simulation.

On the unit square the bounds need three path-loss integrals (interference at
the region center, at the destination endpoint, and at a corner-positioned
eavesdropper).  Written down naively they diverge, so both the bounds and the
simulator clamp distances below at delta.  This script evaluates the
integrals, scans the selection radius for bound feasibility, and checks
dominance of the closed forms over Monte Carlo.
"""

from twohopsec.bounds_general import (
    geometry_integrals,
    max_eaves_general,
    secrecy_bound_general,
    tau_max_general,
    transmission_bound_general,
)
from twohopsec.model import Case, ProtocolParams
from twohopsec.montecarlo import _standard_error, estimate

ALPHA, DELTA, D0 = 2.0, 0.05, 0.05

geo = geometry_integrals(ALPHA, DELTA)
print(f"clamped geometry integrals (alpha={ALPHA}, delta={DELTA}):")
print(f"  region center : {geo.midpoint:.4f}")
print(f"  endpoint      : {geo.endpoint:.4f}")
print(f"  corner        : {geo.corner:.4f}")
print(f"  converged at {geo.resolution} angular panels per segment")

print("\n=== radius scan: transmission bound at tau = 0 and feasibility ===")
print("Small regions risk having no relay at all; large regions push relays")
print("beyond the candidate set and are penalized quadratically.\n")
N, K, EPS = 5, 1, 0.3
print(f"  {'r':>5} {'bound @ tau=0':>13} {'tau_max(eps=0.3)':>17} {'max eaves':>10}")
for r in (0.1, 0.2, 0.3, 0.4, 0.5):
    floor = transmission_bound_general(N, K, r, 1.0, 0.0, ALPHA, DELTA)
    tau_hi = tau_max_general(N, K, r, 1.0, ALPHA, DELTA, EPS)
    tol = max_eaves_general(N, K, r, 1.0, 1.0, D0, ALPHA, DELTA, EPS, EPS)
    tau_txt = "infeasible" if tau_hi is None else f"{tau_hi:.5f}"
    tol_txt = "infeasible" if tol is None else f"{tol.bound:.4f}"
    print(f"  {r:>5.2f} {floor:>13.4f} {tau_txt:>17} {tol_txt:>10}")

print("\n=== bound dominance vs Monte Carlo (1e5 trials) ===")
for n, k, r, tau in ((5, 1, 0.3, 0.036), (10, 2, 0.4, 0.1), (10, 1, 0.3, 0.02)):
    p = ProtocolParams(n=n, m=1, k=k, r=r, tau=tau, gamma_r=1.0, gamma_e=1.0,
                       alpha=ALPHA, d0=D0, delta=DELTA, case=Case.DISTANCE_DEPENDENT)
    rep = estimate(p, 100_000, seed=3)
    bt = transmission_bound_general(n, k, r, 1.0, tau, ALPHA, DELTA)
    bs = secrecy_bound_general(n, 1, 1.0, tau, D0, ALPHA, DELTA)
    ok_t = rep.p_t_hat <= bt + 3 * _standard_error(rep.ci_t)
    ok_s = rep.p_s_hat <= bs.effective + 3 * _standard_error(rep.ci_s)
    print(f"  n={n:>2} k={k} r={r} tau={tau}: "
          f"p_t {rep.p_t_hat:.4f} <= {bt:.4f} [{'ok' if ok_t else 'VIOLATION'}], "
          f"p_s {rep.p_s_hat:.4f} <= {bs.effective:.4f} [{'ok' if ok_s else 'VIOLATION'}]")

print("\nNote: the worst-case geometry (relay at the region center, eavesdropper")
print("at a corner, signal over the longest path) makes these bounds loose, so")
print("dominance holds with room to spare; the radius also enters the tolerance")
print("with competing effects, which can make it locally non-monotone in r.")
