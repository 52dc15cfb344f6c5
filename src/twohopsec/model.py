"""Scenario parameters, network realization, and the per-link SINR model.

Two path-loss regimes are supported: an equal-path-loss network where every
pair of distinct nodes sits at distance 1, and a distance-dependent network
on the unit square [-0.5, 0.5]^2 with the source fixed at (-0.5, 0) and the
destination at (0.5, 0).  Fading gains |h|^2 are unit-mean exponentials,
drawn lazily per node pair and shared between the two directions of a link.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

__all__ = [
    "Case",
    "ConfigurationError",
    "ProtocolParams",
    "derived_fields",
    "NetworkInstance",
    "TrialOutcome",
    "SOURCE",
    "DEST",
    "relay_node",
    "eave_node",
    "path_loss",
    "sinr",
    "realize_network",
]


class Case(enum.Enum):
    """Path-loss regime of a scenario."""

    EQUAL_PATH_LOSS = "equal"
    DISTANCE_DEPENDENT = "general"


class ConfigurationError(ValueError):
    """A scenario configuration that leaves a quantity undefined (e.g. zero SINR denominator)."""


# Node identifiers: tuples so that a mixed population sorts deterministically.
SOURCE = ("S", 0)
DEST = ("D", 0)


def relay_node(j: int):
    return ("R", int(j))


def eave_node(i: int):
    return ("E", int(i))


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


@dataclass
class TrialOutcome:
    """Per-trial record of one protocol execution."""

    selected_relay: int | None
    candidate_count: int
    jam1_size: int
    jam2_size: int
    t_outage: bool
    s_outage: bool
    hop1_sinr: float
    hop2_sinr: float


@dataclass(eq=False)
class NetworkInstance:
    """Node placement and channel gains for one trial.

    Positions exist only in the distance-dependent case.  The gain map is
    keyed by the canonically ordered node pair so the channel is reciprocal;
    missing pairs are drawn on first use from ``rng`` (unit-mean
    exponential) which keeps storage at the pairs a trial actually consults.
    """

    case: Case
    relay_positions: np.ndarray | None = None
    eave_positions: np.ndarray | None = None
    gains: dict = field(default_factory=dict)
    rng: np.random.Generator | None = None
    # node counts for the geometry-free case; positions imply them otherwise
    _n: int = 0
    _m: int = 0

    @property
    def n(self) -> int:
        if self.relay_positions is not None:
            return len(self.relay_positions)
        return self._n

    @property
    def m(self) -> int:
        if self.eave_positions is not None:
            return len(self.eave_positions)
        return self._m

    def position(self, node) -> np.ndarray:
        import numpy as np

        if self.case is Case.EQUAL_PATH_LOSS:
            raise ValueError("equal-path-loss instances carry no geometry")
        kind, idx = node
        if node == SOURCE:
            return np.array([-0.5, 0.0])
        if node == DEST:
            return np.array([0.5, 0.0])
        if kind == "R":
            return self.relay_positions[idx]
        if kind == "E":
            return self.eave_positions[idx]
        raise KeyError(node)

    def distance(self, a, b) -> float:
        if a == b:
            return 0.0
        if self.case is Case.EQUAL_PATH_LOSS:
            return 1.0
        import numpy as np

        pa, pb = self.position(a), self.position(b)
        return float(np.hypot(pa[0] - pb[0], pa[1] - pb[1]))

    def gain(self, a, b) -> float:
        if a == b:
            raise ValueError("no self-channel gain")
        key = (a, b) if a <= b else (b, a)
        g = self.gains.get(key)
        if g is None:
            if self.rng is None:
                raise KeyError(f"gain for pair {key} not provided and no RNG attached")
            g = float(self.rng.standard_exponential())
            self.gains[key] = g
        return g


def path_loss(d: float, alpha: float, delta: float) -> float:
    """Regularized attenuation max(d, delta)^(-alpha).

    The clamp keeps the model finite at zero separation; for d >= delta it
    is exactly d^(-alpha).
    """
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return max(d, delta) ** (-alpha)


def sinr(signal_gain: float, signal_dist: float, jammers, params: ProtocolParams) -> float:
    """SINR at a receiver: Es*g*l(d) / (sum_j Es*g_j*l(d_j) + N0/2).

    ``jammers`` is a sequence of (gain, distance) pairs for the concurrently
    transmitting noise generators.  Requires a positive noise level or at
    least one jammer so the denominator cannot vanish.
    """
    if signal_gain < 0 or signal_dist <= 0:
        raise ValueError("signal gain must be nonnegative and distance positive")
    jam = list(jammers)
    if params.n0 == 0 and not jam:
        raise ConfigurationError("SINR undefined: no jammers and zero noise level")
    num = params.es * signal_gain * path_loss(signal_dist, params.alpha, params.delta)
    den = params.n0 / 2.0
    for g, d in jam:
        den += params.es * g * path_loss(d, params.alpha, params.delta)
    if den == 0.0:
        raise ConfigurationError("SINR denominator is zero")
    return num / den


def realize_network(params: ProtocolParams, rng: np.random.Generator) -> NetworkInstance:
    """Draw one network: uniform node placement plus a lazy gain table.

    In the distance-dependent case relays and eavesdroppers are i.i.d.
    uniform on the unit square; in the equal-path-loss case positions are
    omitted and every distance is fixed at 1.
    """
    inst = NetworkInstance(case=params.case, rng=rng)
    if params.is_general:
        inst.relay_positions = rng.uniform(-0.5, 0.5, size=(params.n, 2))
        inst.eave_positions = rng.uniform(-0.5, 0.5, size=(params.m, 2))
    else:
        inst._n = params.n
        inst._m = params.m
    return inst
