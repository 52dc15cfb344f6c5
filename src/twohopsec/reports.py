"""Assembled bound reports: one evaluation of every closed form for a scenario."""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds_equal as beq
from . import bounds_general as bgen
from .bounds_equal import EavesTolerance, SaturatingBound
from .model import ProtocolParams

__all__ = ["TauWindow", "BoundReport", "evaluate_bounds"]


@dataclass(frozen=True)
class TauWindow:
    """Admissible jamming-threshold window [tau_min, tau_max].

    Either endpoint may be None (that requirement is unattainable); the
    window is feasible only when both exist and tau_min <= tau_max.
    """

    tau_min: float | None
    tau_max: float | None

    @property
    def feasible(self) -> bool:
        return (
            self.tau_min is not None
            and self.tau_max is not None
            and self.tau_min <= self.tau_max
        )


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one parameter set.

    ``bound_t`` / ``bound_s`` are evaluated at the scenario's own tau;
    the window and tolerance come from the outage targets eps_t / eps_s.
    """

    params: ProtocolParams
    eps_t: float
    eps_s: float
    bound_t: float
    bound_s: SaturatingBound
    window: TauWindow
    max_eaves: EavesTolerance | None

    @property
    def feasible(self) -> bool:
        return self.window.feasible


def evaluate_bounds(
    params: ProtocolParams,
    eps_t: float,
    eps_s: float,
) -> BoundReport:
    """Evaluate all bounds for ``params``, dispatching on the path-loss case.

    In the distance-dependent case a relay is in the selection region with
    probability ``disc_square_overlap(r)``, the law the simulator samples,
    so every radius up to inf has a report.  With one relay the window and
    the tolerance are None and the report infeasible.
    """
    p = params
    if p.is_general:
        bound_t = bgen.transmission_bound_general(
            p.n, p.k, p.r, p.gamma_r, p.tau, p.alpha, p.delta
        )
        bound_s = bgen.secrecy_bound_general(
            p.n, p.m, p.gamma_e, p.tau, p.d0, p.alpha, p.delta
        )
    else:
        bound_t = beq.transmission_bound_equal(p.n, p.k, p.gamma_r, p.tau)
        bound_s = beq.secrecy_bound_equal(p.n, p.m, p.gamma_e, p.tau)
    if p.n == 1:
        # a lone relay has no one to jam it: tau tunes neither bound, so there
        # is no window to find and no tolerance to trade against it
        beq._check_eps(eps_t, "eps_t")
        beq._check_eps(eps_s, "eps_s")
        tau_lo = tau_hi = tolerance = None
    elif p.is_general:
        tau_hi = bgen.tau_max_general(p.n, p.k, p.r, p.gamma_r, p.alpha, p.delta, eps_t)
        tau_lo = (
            bgen.tau_min_general(p.n, p.m, p.gamma_e, p.d0, p.alpha, p.delta, eps_s)
            if p.m >= 1
            else 0.0
        )
        tolerance = bgen.max_eaves_general(
            p.n, p.k, p.r, p.gamma_r, p.gamma_e, p.d0, p.alpha, p.delta, eps_t, eps_s
        )
    else:
        tau_hi = beq.tau_max_equal(p.n, p.k, p.gamma_r, eps_t)
        tau_lo = beq.tau_min_equal(p.n, p.m, p.gamma_e, eps_s) if p.m >= 1 else 0.0
        tolerance = beq.max_eaves_equal(p.n, p.k, p.gamma_r, p.gamma_e, eps_t, eps_s)
    window = TauWindow(tau_min=tau_lo, tau_max=tau_hi)
    return BoundReport(
        params=p,
        eps_t=eps_t,
        eps_s=eps_s,
        bound_t=bound_t,
        bound_s=bound_s,
        window=window,
        max_eaves=tolerance,
    )
