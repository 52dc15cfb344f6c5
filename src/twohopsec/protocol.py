"""The two-hop relay protocol, one trial at a time: the scalar oracle.

A network places its nodes by the path-loss regime.  With equal path loss
every pair of distinct nodes sits at distance 1 and no position exists; with
distance-dependent path loss, relays and eavesdroppers are i.i.d. uniform on
the unit square [-0.5, 0.5]^2, with the source fixed at (-0.5, 0) and the
destination at (0.5, 0).  Fading gains |h|^2 are unit-mean exponentials,
drawn lazily per node pair and shared between the two directions of a link.

One trial walks the five protocol steps: restrict relays to the selection
disc, rank the survivors by bottleneck gain, pick the relay uniformly among
the best k, then run both hops while the non-selected relays whose channel
to the legitimate receiver is weaker than ``tau`` jam.  Outage
classification follows the two-event composition: transmission fails when
no candidate exists or a hop SINR drops below ``gamma_r``; secrecy fails
when any eavesdropper reaches ``gamma_e`` (or sits inside a capture disc in
the distance-dependent case) on either hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Case, ConfigurationError, ProtocolParams

__all__ = [
    "SOURCE",
    "DEST",
    "relay_node",
    "eave_node",
    "TrialOutcome",
    "NetworkInstance",
    "path_loss",
    "sinr",
    "realize_network",
    "CandidateSet",
    "region_filter",
    "select_candidates",
    "pick_relay",
    "jammer_set",
    "execute_trial",
    "run_trial",
]


# Node identifiers: tuples so that a mixed population sorts deterministically.
SOURCE = ("S", 0)
DEST = ("D", 0)


def relay_node(j: int):
    return ("R", int(j))


def eave_node(i: int):
    return ("E", int(i))


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


@dataclass
class CandidateSet:
    """Relay indices eligible for selection, best bottleneck gain first."""

    indices: list
    region_count: int

    def __len__(self) -> int:
        return len(self.indices)


def region_filter(instance: NetworkInstance, r: float) -> list:
    """Indices of relays inside the selection disc of radius r around the midpoint.

    The midpoint of source and destination is the origin.  Equal-path-loss
    instances have no geometry, so every relay qualifies.
    """
    if instance.case is Case.EQUAL_PATH_LOSS:
        return list(range(instance.n))
    pos = instance.relay_positions
    if pos is None or len(pos) == 0:
        return []
    inside = np.hypot(pos[:, 0], pos[:, 1]) <= r
    return [int(j) for j in np.nonzero(inside)[0]]


def _min_pair_gain(instance: NetworkInstance, j: int) -> float:
    node = relay_node(j)
    return min(instance.gain(SOURCE, node), instance.gain(DEST, node))


def select_candidates(instance: NetworkInstance, region_indices, k: int) -> CandidateSet:
    """Top min(k, region size) relays by bottleneck gain, ties broken by index."""
    region = list(region_indices)
    ranked = sorted(region, key=lambda j: (-_min_pair_gain(instance, j), j))
    return CandidateSet(indices=ranked[: min(k, len(ranked))], region_count=len(region))


def pick_relay(candidates: CandidateSet, rng: np.random.Generator):
    """Uniform choice among the candidates; None signals no relay is available."""
    if len(candidates) == 0:
        return None
    return candidates.indices[int(rng.integers(len(candidates)))]


def jammer_set(instance: NetworkInstance, receiver, exclude: int, tau: float) -> list:
    """Relays (other than the selected one) whose gain to the receiver is below tau."""
    out = []
    for j in range(instance.n):
        if j == exclude:
            continue
        if instance.gain(relay_node(j), receiver) < tau:
            out.append(j)
    return out


def _hop_sinr(instance, params, tx, rx, jammers) -> float:
    sig = instance.gain(tx, rx)
    dist = instance.distance(tx, rx)
    jam = [
        (instance.gain(relay_node(j), rx), instance.distance(relay_node(j), rx))
        for j in jammers
    ]
    return sinr(sig, dist, jam, params)


def _eaves_success(instance, params, tx, jammers) -> bool:
    """Whether any eavesdropper recovers the packet transmitted by ``tx``.

    Success means either falling inside the capture disc of radius d0
    around the transmitter (distance-dependent case only) or reaching an
    SINR of at least gamma_e under the hop's jamming.
    """
    for i in range(instance.m):
        e = eave_node(i)
        if params.is_general and instance.distance(tx, e) < params.d0:
            return True
        if _hop_sinr(instance, params, tx, e, jammers) >= params.gamma_e:
            return True
    return False


def execute_trial(instance: NetworkInstance, params: ProtocolParams, rng: np.random.Generator) -> TrialOutcome:
    """Run the protocol once on an already-realized network.

    When the candidate set is empty the trial records a transmission outage
    with no radio activity at all (no jamming, no secrecy exposure).
    """
    region = region_filter(instance, params.r)
    candidates = select_candidates(instance, region, params.k)
    selected = pick_relay(candidates, rng)
    if selected is None:
        return TrialOutcome(
            selected_relay=None,
            candidate_count=0,
            jam1_size=0,
            jam2_size=0,
            t_outage=True,
            s_outage=False,
            hop1_sinr=float("nan"),
            hop2_sinr=float("nan"),
        )

    star = relay_node(selected)
    jam1 = jammer_set(instance, star, selected, params.tau)
    jam2 = jammer_set(instance, DEST, selected, params.tau)

    hop1 = _hop_sinr(instance, params, SOURCE, star, jam1)
    hop2 = _hop_sinr(instance, params, star, DEST, jam2)
    t_outage = hop1 < params.gamma_r or hop2 < params.gamma_r

    s_outage = False
    if params.m > 0:
        s_outage = _eaves_success(instance, params, SOURCE, jam1) or _eaves_success(
            instance, params, star, jam2
        )

    return TrialOutcome(
        selected_relay=selected,
        candidate_count=len(candidates),
        jam1_size=len(jam1),
        jam2_size=len(jam2),
        t_outage=t_outage,
        s_outage=s_outage,
        hop1_sinr=hop1,
        hop2_sinr=hop2,
    )


def run_trial(params: ProtocolParams, rng: np.random.Generator) -> TrialOutcome:
    """Realize a fresh network and execute one trial on it."""
    return execute_trial(realize_network(params, rng), params, rng)
