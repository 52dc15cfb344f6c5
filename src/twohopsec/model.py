"""Scenario parameters: the path-loss regime and every knob of one protocol configuration.

Two path-loss regimes are supported: equal path loss, where every pair of
distinct nodes sits at distance 1, and distance-dependent path loss on the
unit square.  The network, its channels and the SINR model are in
``protocol``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

__all__ = ["Case", "ConfigurationError", "ProtocolParams", "derived_fields"]


class Case(enum.Enum):
    """Path-loss regime of a scenario."""

    EQUAL_PATH_LOSS = "equal"
    DISTANCE_DEPENDENT = "general"


class ConfigurationError(ValueError):
    """A scenario configuration that leaves a quantity undefined (e.g. zero SINR denominator)."""


@dataclass(frozen=True)
class ProtocolParams:
    """All scenario knobs for one protocol configuration.

    ``n`` relays, ``m`` eavesdroppers, candidate-set size ``k``, selection
    radius ``r``, jamming threshold ``tau``, SINR thresholds ``gamma_r`` /
    ``gamma_e``, path-loss exponent ``alpha``, capture radius ``d0``,
    transmit power ``es``, noise level ``n0`` (defaults to 1e-6 * es so the
    SINR is always defined) and the minimum-distance clamp ``delta``
    (defaults to ``d0`` so the simulator and the bound integrals regularize
    path loss identically).  Equal path loss forces ``r`` to infinity: the
    radius has no effect when channel statistics ignore geometry.
    """

    n: int
    m: int
    k: int
    r: float
    tau: float
    gamma_r: float
    gamma_e: float
    alpha: float = 2.0
    d0: float = 0.05
    es: float = 1.0
    n0: float | None = None
    delta: float | None = None
    case: Case = Case.EQUAL_PATH_LOSS

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if math.isnan(value) or (math.isinf(value) and name not in ("r", "tau")):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.n < 0 or self.m < 0:
            raise ValueError("node counts must be nonnegative")
        if self.n >= 1:
            if not 1 <= self.k <= self.n:
                raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}")
        elif self.k != 0:
            raise ValueError("k must be 0 when there are no relays")
        if self.r < 0:
            raise ValueError("selection radius r must be nonnegative")
        if self.tau < 0:
            raise ValueError("jamming threshold tau must be nonnegative")
        if self.gamma_r <= 0 or self.gamma_e <= 0:
            raise ValueError("SINR thresholds must be positive")
        if self.alpha < 2:
            raise ValueError("path-loss exponent alpha must be >= 2")
        if self.d0 < 0:
            raise ValueError("capture radius d0 must be nonnegative")
        if self.es <= 0:
            raise ValueError("transmit power es must be positive")
        for name, value in derived_fields(self.case, self).items():
            object.__setattr__(self, name, value)
        if self.n0 < 0:
            raise ValueError("noise level n0 must be nonnegative")
        if self.delta is None:
            raise ValueError("delta defaults to d0; give an explicit delta when d0 = 0")
        if self.delta <= 0:
            raise ValueError("distance clamp delta must be positive")
        if self.is_general:
            # the largest path loss; in the equal case max(1, delta)^-alpha <= 1
            try:
                self.delta ** -self.alpha
            except OverflowError:
                raise ValueError(
                    f"path loss delta^-alpha = {self.delta!r}^-{self.alpha!r} overflows; "
                    "lower alpha or raise delta"
                ) from None

    @property
    def is_general(self) -> bool:
        return self.case is Case.DISTANCE_DEPENDENT


def derived_fields(case: Case, p) -> dict:
    """The fields that ``ProtocolParams`` derives, read off ``p`` (any object with its
    field names): r = inf in the equal case, n0 = 1e-6 * es and delta = d0 when d0 > 0."""
    return {"r": math.inf if case is Case.EQUAL_PATH_LOSS else p.r,
            "n0": 1e-6 * p.es if p.n0 is None else p.n0,
            "delta": p.d0 if p.delta is None and p.d0 > 0 else p.delta}


# NaN is rejected in every float field; infinity only where it means something
# (an unbounded selection radius r, a jamming threshold tau that every relay meets).
_FLOAT_FIELDS = tuple(f.name for f in fields(ProtocolParams) if f.type.startswith("float"))
