"""Execution of the two-hop relay protocol on a realized network.

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

from dataclasses import dataclass

import numpy as np

from .model import (
    DEST,
    SOURCE,
    Case,
    NetworkInstance,
    ProtocolParams,
    TrialOutcome,
    eave_node,
    realize_network,
    relay_node,
    sinr,
)

__all__ = [
    "CandidateSet",
    "region_filter",
    "select_candidates",
    "pick_relay",
    "jammer_set",
    "execute_trial",
    "run_trial",
]


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
