"""Monte Carlo estimation of outage probabilities and relay load balance.

Trials are vectorized in fixed-size batches.  Batch ``b`` draws everything
it needs, in a documented order, from its own RNG stream
``PCG64(SeedSequence(seed, spawn_key=(b,)))``; trial ``t`` lives in batch
``t // batch_size``.  Because the batch layout is independent of the worker
count and the reduction is pure counting, a run is reproducible bit-for-bit
for a given (params, trials, seed, batch_size) no matter how it is
parallelized.

Per-batch draw order (distance-dependent case; the equal-path-loss case
skips the position draws): relay positions, eavesdropper positions, gains
source->relays, gains destination->relays, the relay-selection uniform,
gains relays->selected relay, gains source->eavesdroppers, gains
relays->eavesdroppers.

A batch runs as named stages, draw -> select -> jam -> legit_sinr -> eaves
-> reduce.  ``_draw`` takes every whole-batch draw but the last.  The next
four run over trial chunks of max(1, 2^15 // max(n, m)) trials: ``_select``
applies the region and picks the relay by sorted value (one sort per trial,
the pick exactly where a stable descending sort ranks it, ties included, at
a cost that does not depend on k), ``_jam`` forms both hops' jammer
sets, ``_legit_sinr`` gives the bottleneck SINR and ``_eaves`` the strongest
eavesdropper SINR, each written into a (batch,) array that ``_reduce``
counts.  ``_eaves`` walks its chunk's (trial, relay, eavesdropper) tensor in
tiles of max(1, 2^15 // (n*m)) trials and draws the relays->eavesdroppers
gains tile by tile, in trial order; a ``Generator`` fills draws
sequentially, so the tiles hold exactly the values of one (batch, n, m)
draw.  Memory per batch is the draws plus a fixed number of chunk arrays
and tiles of about 2^15 float64 values (~256 KiB) each, or of one trial's
n*m values when that is more, whatever the batch size.  The draws are views
of one float64 buffer per thread, kept between batches and ``estimate``
calls and grown only when a batch needs more room, so no batch maps fresh
pages for them.  Each thread keeps its largest batch's draws: 5n+3m+1
values per trial in the general case and 3n+m+1 in the equal case, about
50 MiB (52 MB) for a 4096-trial batch at general n = m = 200.  The kept
buffer holds at most 2^23 values (64 MiB); a batch whose draws need more
gets a buffer of its own, freed with the batch.

A signal or interference power past the float range (an enormous ``es``)
would turn a finite SINR into +inf or NaN, so it raises
``FloatingPointError`` with a message that says so, and so does a NaN SINR
in ``_reduce``.  Two overflows are the right value and pass: an attenuation
past the float range (a huge alpha) is +inf, a path loss of 0, and an SINR
quotient may reach the right +inf (over a subnormal noise level it overflows,
and at n0 = 5e-324 the noise half rounds to a zero divisor).

Distances are handled squared, so no square root is taken: the region test
is x^2 + y^2 <= r^2, capture is d^2 < d0^2, and the path loss is applied as
a divisor, the attenuation max(d^2, delta^2)^(alpha/2); at the default
alpha = 2 that is the clamp alone, with no power.  Each squared distance is
an exact coordinate difference, except the relay->eavesdropper ones of the
jammer interference: those come from one stacked matmul of Gram factors,
|r - e|^2 = |r|^2 + |e|^2 - 2 r.e, within 1e-15 absolute on the unit
square, so within 1e-15/delta^2 relative at the clamp (~4e-13 at the
default delta = 0.05).  Capture and the selected relay's own hop-2
attenuation keep exact differences.

Neither SINR threshold enters a draw, the relay selection or the jammer
sets, so each trial is reduced to two statistics: the legitimate bottleneck
SINR ``min(hop-1 SINR, hop-2 SINR)`` and the strongest eavesdropper SINR,
the maximum over eavesdroppers and both hops, with capture (``d < d0``)
counted as ``+inf``.  A trial is a transmission outage at ``gamma_r`` when it
has no candidate relay or its bottleneck is below ``gamma_r``, and a secrecy
outage at ``gamma_e`` when it has a candidate and its strongest eavesdropper
reaches ``gamma_e``.  Each batch counts these outages for a whole grid of
thresholds at once, so a gamma_r or gamma_e sweep costs one simulation
(common random numbers) and a single point is the one-value grid.  The draw
order above and the comparisons are the same for every grid, so each grid
value gets exactly the counts of a separate run at that value.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, ProtocolParams
from .reports import BoundReport

__all__ = [
    "BATCH_SIZE",
    "EstimateReport",
    "ComparisonRow",
    "estimate",
    "load_balance",
    "wilson_interval",
    "compare",
]

BATCH_SIZE = 4096
# Values per stage-chunk array (trials x max(n, m)) and per eavesdropper
# tile (trials x n x m): 2^15 float64 values, about 256 KiB.
_CHUNK_ELEMS = 1 << 15
_Z95 = 1.959963984540054
# each thread's batch draws (see _draw_buffer), kept up to 2^23 values (64 MiB)
_THREAD_DRAWS = threading.local()
_KEPT_DRAWS = 1 << 23


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Monte Carlo estimates with confidence intervals and load-balance metrics.

    ``jain_index`` / ``norm_entropy`` describe the selection histogram
    accumulated over all trials.  Because every trial redraws an independent
    network, relays are exchangeable and that histogram tends to uniform for
    any candidate-set size; the per-trial concentration that the candidate
    set actually controls shows up in ``conditional_jain`` /
    ``conditional_entropy``, the mean load-balance of the within-trial
    selection law (uniform over the candidate set, Jain index c/n).
    """

    params: ProtocolParams
    seed: int
    trials: int
    p_t_hat: float
    p_s_hat: float
    ci_t: tuple
    ci_s: tuple
    selection_histogram: np.ndarray
    jain_index: float
    norm_entropy: float
    no_candidate_rate: float
    conditional_jain: float
    conditional_entropy: float


@dataclass(frozen=True)
class ComparisonRow:
    """Bound-vs-simulation verdicts: estimate <= bound + 3*SE per metric."""

    t_pass: bool
    t_slack: float
    s_pass: bool
    s_slack: float


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion.

    The endpoints at 0 and at ``trials`` successes are exactly 0 and 1: the
    formula gives them only up to rounding.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    zz = _Z95 * _Z95 / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = (_Z95 / (1.0 + zz)) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def load_balance(selection_histogram) -> tuple:
    """(Jain fairness index, normalized entropy) of relay selection counts.

    Jain = (sum f)^2 / (N * sum f^2) over all N relays; entropy is
    normalized by log N (defined as 1.0 for a single relay).  An all-zero
    histogram has no defined balance and yields (nan, nan).
    """
    f = np.asarray(selection_histogram, dtype=float)
    if f.size == 0:
        raise ValueError("histogram must be nonempty")
    total = float(f.sum())
    if total == 0:
        return (math.nan, math.nan)
    jain = total * total / (f.size * float(np.dot(f, f)))
    if f.size == 1:
        return (jain, 1.0)
    p = f[f > 0] / total
    entropy = float(-(p * np.log(p)).sum()) / math.log(f.size)
    return (jain, entropy)


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,)))
    )


def _count_below(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """For each grid value g, how many of ``values`` are strictly below g."""
    return np.searchsorted(np.sort(values), grid, side="left")


def _pick_among_best(w_eff: np.ndarray, k: int, region_count: np.ndarray,
                     pick_u: np.ndarray) -> tuple:
    """Pick each trial's relay uniformly among its best min(k, region_count).

    Returns (jstar, c) with c the candidate count.  The relay picked at rank
    ``pick`` is the one a stable descending sort of ``w_eff`` ranks there
    (ties by relay index), found by sorted value: one sort of each row gives
    its pick-th largest value, and the first relay that holds it is the pick.
    Only a row in which a relay of that value ranks before the pick is ranked
    in full, by the stable sort itself.  So the rule is exact, ties included,
    and the cost does not depend on k.  A pick never reaches a -inf
    (out-of-region) entry, because c <= region_count; in a trial with no
    candidate, jstar is relay 0 and unused.
    """
    size, n = w_eff.shape
    c = np.minimum(k, region_count)
    c_safe = np.maximum(c, 1)
    pick = np.minimum((pick_u * c_safe).astype(np.int64), c_safe - 1)
    ranked = np.sort(w_eff, axis=1)
    rows = np.arange(size)
    at = n - 1 - pick  # the pick-th largest value's place in ascending order
    value = ranked[rows, at]
    jstar = np.argmax(w_eff == value[:, None], axis=1)
    tied = np.flatnonzero((pick > 0) & (ranked[rows, np.minimum(at + 1, n - 1)] == value))
    order = np.argsort(-w_eff[tied], axis=1, kind="stable")
    jstar[tied] = order[np.arange(len(tied)), pick[tied]]
    return jstar, c


def _draw_buffer(count: int) -> np.ndarray:
    """A float64 draw buffer at least ``count`` values long.

    Up to ``_KEPT_DRAWS`` values it is this thread's kept buffer, which
    lives between batches and ``estimate`` calls and is replaced only when a
    batch needs more room, so a thread keeps its largest such batch's draws.
    A buffer that is never freed maps no fresh pages per batch and leaves
    the allocator's thresholds where they are.  Past ``_KEPT_DRAWS`` values
    the batch gets a buffer of its own, freed with the batch.
    """
    if count > _KEPT_DRAWS:
        return np.empty(count)
    buf = getattr(_THREAD_DRAWS, "buf", None)
    if buf is None or buf.size < count:
        buf = _THREAD_DRAWS.buf = np.empty(count)
    return buf


def _draw(params: ProtocolParams, rng: np.random.Generator, size: int) -> tuple:
    """Draw stage: every whole-batch draw, in the documented order.

    Returns (relay positions (batch, n, 2), eavesdropper positions
    (batch, m, 2), g_sr, g_dr, pick_u, g_rr, g_se); positions are None in
    the equal case and the eavesdropper arrays None when m = 0.  The
    relays -> eavesdroppers gains come last and are drawn tile by tile in
    ``_eaves``.  The arrays are views of a ``_draw_buffer``, valid until
    this thread's next ``_draw``; each holds the bits of a fresh draw of its
    shape.
    """
    n, m = params.n, params.m
    general = params.is_general
    buf = _draw_buffer(size * (5 * n + 3 * m + 1 if general else 3 * n + m + 1))
    end = 0

    def take(*shape):
        # the next unused values of buf, as an array of this shape
        nonlocal end
        start, end = end, end + math.prod(shape)
        return buf[start:end].reshape(shape)

    # random() less 0.5 in place: the bits of uniform(-0.5, 0.5), through the plain fill
    rel = rng.random(out=take(size, n, 2)) if general else None
    eav = rng.random(out=take(size, m, 2)) if general and m else None
    for pos in (rel, eav):
        if pos is not None:
            pos -= 0.5
    g_sr = rng.standard_exponential(out=take(size, n))
    g_dr = rng.standard_exponential(out=take(size, n))
    pick_u = rng.random(out=take(size))
    g_rr = rng.standard_exponential(out=take(size, n))
    g_se = rng.standard_exponential(out=take(size, m)) if m else None
    return rel, eav, g_sr, g_dr, pick_u, g_rr, g_se


def _attenuation(d2: np.ndarray, params: ProtocolParams, out=None) -> np.ndarray:
    """max(d, delta)^alpha from squared distances, in place when ``out`` is given:
    the divisor that applies the path loss.  At alpha = 2 it is the clamp alone;
    an attenuation past the float range is +inf, a path loss of 0."""
    clamped = np.maximum(d2, params.delta * params.delta, out=out)
    if params.alpha == 2.0:
        return clamped
    with np.errstate(over="ignore"):
        return np.power(clamped, 0.5 * params.alpha, out=clamped)


def _unit_attenuation(params: ProtocolParams) -> float:
    """The attenuation of every link in the equal case: max(1, delta)^alpha."""
    try:
        return max(1.0, params.delta) ** params.alpha
    except OverflowError:
        return math.inf


def _select(params, g_sr, g_dr, pick_u, rx, ry) -> tuple:
    """Select stage: (jstar, c) of each trial of a chunk.  Candidates are the
    relays inside the region (every relay in the equal case, where ``rx`` is
    None), ranked by their bottleneck gain min(g_sr, g_dr)."""
    w = np.minimum(g_sr, g_dr)
    if rx is None:
        return _pick_among_best(w, params.k, np.full(len(w), params.n), pick_u)
    in_region = rx * rx + ry * ry <= params.r * params.r
    w[~in_region] = -np.inf
    # the count as a matrix-vector product: one pass, not a sum per row
    region_count = (in_region @ np.ones(params.n)).astype(np.int64)
    return _pick_among_best(w, params.k, region_count, pick_u)


def _jam(params, g_rr, g_dr, jstar) -> np.ndarray:
    """Jam stage: (chunk, 2, n) jammer memberships of hops 1 and 2, as 0/1
    floats.  A non-selected relay jams a hop when its gain toward that hop's
    legitimate receiver is below tau."""
    jammers = np.empty((len(jstar), 2, g_rr.shape[1]))
    np.less(g_rr, params.tau, out=jammers[:, 0])
    np.less(g_dr, params.tau, out=jammers[:, 1])
    jammers[np.arange(len(jstar)), :, jstar] = 0.0
    return jammers


def _legit_sinr(params, g_sr, g_dr, g_rr, jammers, jstar, rx, ry) -> np.ndarray:
    """Legitimate-SINR stage: each trial's bottleneck min(hop-1 SINR, hop-2 SINR)."""
    es = params.es
    rows = np.arange(len(jstar))
    if rx is None:
        att_rr = att_rd = att_s = att_d = _unit_attenuation(params)
    else:
        sx, sy = rx[rows, jstar], ry[rows, jstar]
        att_rr = _attenuation((rx - sx[:, None]) ** 2 + (ry - sy[:, None]) ** 2, params)
        att_rd = _attenuation((rx - 0.5) ** 2 + ry * ry, params)
        att_s = _attenuation((sx + 0.5) ** 2 + sy * sy, params)
        att_d = att_rd[rows, jstar]
    sig1 = es * g_sr[rows, jstar] / att_s
    sig2 = es * g_dr[rows, jstar] / att_d
    noise = params.n0 / 2.0
    # each hop's interference sum as a matrix-vector product, not a sum per row
    ones = np.ones(g_rr.shape[1])
    intf1 = es * ((jammers[:, 0] * g_rr / att_rr) @ ones)
    intf2 = es * ((jammers[:, 1] * g_dr / att_rd) @ ones)
    # With a subnormal noise level and no jammer the quotient overflows, or
    # divides by a noise half that rounds to 0, to +inf: the right SINR.  A
    # signal that underflows to 0 over that 0 is NaN, which _reduce refuses.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.minimum(sig1 / (intf1 + noise), sig2 / (intf2 + noise))


def _gram_buffers(tile: int, n: int, m: int) -> tuple:
    """Buffers for ``_gram_d2`` of up to ``tile`` trials: the Gram factors
    (tile, n, 4) and (tile, 4, m) with their constant 1s written, and the
    (tile, n, m) product."""
    rel_f, eav_f = np.empty((tile, n, 4)), np.empty((tile, 4, m))
    rel_f[..., 3] = eav_f[:, 2] = 1.0
    return rel_f, eav_f, np.empty((tile, n, m))


def _gram_d2(rx, ry, ex, ey, rel_f, eav_f, out) -> np.ndarray:
    """Squared distances (h, n, m) from relays (rx, ry) to eavesdroppers (ex, ey):
    one stacked product of Gram factors, [x, y, x^2+y^2, 1] per relay in ``rel_f``
    (h, n, 4) and [-2x', -2y', 1, x'^2+y'^2] per eavesdropper in ``eav_f`` (h, 4, m).
    The constant 1s are already in place (see ``_gram_buffers``)."""
    rel_f[..., 0], rel_f[..., 1] = rx, ry
    np.multiply(ex, -2.0, out=eav_f[:, 0])
    np.multiply(ey, -2.0, out=eav_f[:, 1])
    np.add(rx * rx, ry * ry, out=rel_f[..., 2])
    np.add(ex * ex, ey * ey, out=eav_f[:, 3])
    return np.matmul(rel_f, eav_f, out=out)


def _eaves(params, rng, g_se, eav, jammers, jstar, rx, ry) -> np.ndarray:
    """Eavesdropper stage: each trial's strongest eavesdropper SINR, the
    maximum over eavesdroppers and both hops with capture as +inf.

    The (trial, relay, eavesdropper) tensor is walked in tiles of whole
    trials, each about _CHUNK_ELEMS values so it stays in cache, and the
    relays -> eavesdroppers gains are drawn tile by tile, in trial order.
    """
    (size, m), n = g_se.shape, jammers.shape[2]
    es, general = params.es, rx is not None
    tile = min(size, max(1, _CHUNK_ELEMS // (n * m)))
    g_tile, sig_e2, intf_e = np.empty((tile, n, m)), np.empty((size, m)), np.empty((size, 2, m))
    if general:
        # contiguous copies of the coordinate planes, read once per tile
        ex, ey = eav[..., 0].copy(), eav[..., 1].copy()
        rows = np.arange(size)
        d2_se = (ex + 0.5) ** 2 + ey * ey
        d2_sel = (rx[rows, jstar, None] - ex) ** 2 + (ry[rows, jstar, None] - ey) ** 2
        d0_sq = params.d0 * params.d0
        captured1, captured2 = d2_se < d0_sq, d2_sel < d0_sq
        sig_e1 = np.divide(es * g_se, _attenuation(d2_se, params, out=d2_se), out=d2_se)
        att_e2 = _attenuation(d2_sel, params, out=d2_sel)
        gram_bufs = _gram_buffers(tile, n, m)
    else:
        att_e2 = _unit_attenuation(params)  # every link's attenuation
        sig_e1 = es * g_se / att_e2
    for lo in range(0, size, tile):
        hi = min(lo + tile, size)
        g_re = rng.standard_exponential(out=g_tile[:hi - lo])
        sig_e2[lo:hi] = g_re[np.arange(hi - lo), jstar[lo:hi], :]
        if general:
            d2 = _gram_d2(rx[lo:hi], ry[lo:hi], ex[lo:hi], ey[lo:hi],
                          *(buf[:hi - lo] for buf in gram_bufs))
            weighted = np.divide(g_re, _attenuation(d2, params, out=d2), out=d2)
        else:
            weighted = np.divide(g_re, att_e2, out=g_re)
        # both hops' jammer interference in one stacked product
        np.matmul(jammers[lo:hi], weighted, out=intf_e[lo:hi])
    intf_e *= es
    np.divide(es * sig_e2, att_e2, out=sig_e2)
    noise = params.n0 / 2.0
    # SINRs overwrite the signal arrays; +inf and NaN are handled as above
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sinr_e1 = np.divide(sig_e1, intf_e[:, 0] + noise, out=sig_e1)
        sinr_e2 = np.divide(sig_e2, intf_e[:, 1] + noise, out=sig_e2)
    if general:
        sinr_e1[captured1] = np.inf
        sinr_e2[captured2] = np.inf
    # the maximum over eavesdroppers down the columns of a transposed copy, not per row
    return np.maximum(sinr_e1, sinr_e2, out=sinr_e1).T.copy().max(axis=0)


def _reduce(n, bottleneck, eav_max, jstar, c, gamma_r, gamma_e) -> tuple:
    """Reduce stage: count one batch's outages at every threshold of the grids.

    Raises FloatingPointError when a selected trial's bottleneck or
    strongest eavesdropper SINR is NaN: a NaN compares false with every
    threshold, so it would count silently as no outage.
    """
    size = len(c)
    selected = c > 0
    n_selected = int(selected.sum())
    bottleneck, eav_max = bottleneck[selected], eav_max[selected]
    if np.isnan(bottleneck).any() or np.isnan(eav_max).any():
        raise FloatingPointError("an SINR evaluated to NaN, which would count as no outage")
    c_sel = c[selected]
    return (
        size - n_selected + _count_below(bottleneck, gamma_r),
        n_selected - _count_below(eav_max, gamma_e),
        size - n_selected,
        np.bincount(jstar[selected], minlength=n).astype(np.int64),
        int(c_sel.sum()),
        float(np.log(c_sel).sum()),
    )


def _power_overflow(kind, flag):
    raise FloatingPointError("a signal or interference power passed the float range")


def _run_batch(task) -> tuple:
    """Simulate one batch and count its outages at every threshold of the grids.

    Returns (t_outages per gamma_r, s_outages per gamma_e, no_candidate,
    histogram, sum of candidate counts, sum of log candidate counts), the
    last two over trials that selected a relay.  ``params.gamma_r`` and
    ``params.gamma_e`` are not read; the grids take their place.
    """
    params, seed, batch_index, size, gamma_r, gamma_e = task
    n, m = params.n, params.m
    if n == 0:
        return (np.full(len(gamma_r), size, dtype=np.int64),
                np.zeros(len(gamma_e), dtype=np.int64), size,
                np.zeros(0, dtype=np.int64), 0, 0.0)
    rng = _batch_rng(seed, batch_index)
    rel, eav, g_sr, g_dr, pick_u, g_rr, g_se = _draw(params, rng, size)
    bottleneck, eav_max = np.empty(size), np.full(size, -np.inf)
    jstar, c = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    chunk = min(size, max(1, _CHUNK_ELEMS // max(n, m)))
    # Outside the attenuation and the SINR quotients an overflow (a huge es)
    # would turn a finite SINR into +inf or NaN: it raises FloatingPointError
    # instead, with a message that names it.
    with np.errstate(over="call", call=_power_overflow):
        for lo in range(0, size, chunk):
            s = slice(lo, min(lo + chunk, size))
            rx = ry = eav_s = None
            if rel is not None:
                # contiguous copies of the chunk's coordinate planes
                rx, ry = rel[s, :, 0].copy(), rel[s, :, 1].copy()
                eav_s = None if eav is None else eav[s]
            jstar[s], c[s] = _select(params, g_sr[s], g_dr[s], pick_u[s], rx, ry)
            jammers = _jam(params, g_rr[s], g_dr[s], jstar[s])
            bottleneck[s] = _legit_sinr(params, g_sr[s], g_dr[s], g_rr[s], jammers, jstar[s],
                                        rx, ry)
            if m:
                eav_max[s] = _eaves(params, rng, g_se[s], eav_s, jammers, jstar[s], rx, ry)
    return _reduce(n, bottleneck, eav_max, jstar, c, gamma_r, gamma_e)


def estimate(
    params: ProtocolParams,
    trials: int,
    seed: int,
    workers: int = 1,
    batch_size: int = BATCH_SIZE,
    *,
    gamma_r=None,
    gamma_e=None,
) -> EstimateReport | list[EstimateReport]:
    """Estimate outage probabilities over ``trials`` independent protocol runs.

    Outage frequencies get Wilson 95% intervals; trials with an empty
    candidate set count as transmission outages and are also reported
    separately.  Reproducible for fixed (params, trials, seed, batch_size)
    regardless of ``workers``, of which at most one per batch and CPU is started.

    Given a sequence of ``gamma_r`` or ``gamma_e`` values (at most one of
    the two), every value is evaluated on the same trials and a list with
    one report per value is returned; each report equals that of a separate
    call with the threshold set to that value.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    if params.n0 == 0:
        raise ConfigurationError(
            "estimate requires n0 > 0: the jammer set is empty with positive probability"
        )
    if gamma_r is not None and gamma_e is not None:
        raise ValueError("sweep at most one of gamma_r and gamma_e")
    if gamma_r is not None:
        points = [dataclasses.replace(params, gamma_r=float(g)) for g in gamma_r]
    elif gamma_e is not None:
        points = [dataclasses.replace(params, gamma_e=float(g)) for g in gamma_e]
    else:
        points = [params]
    grid_r = np.array([p.gamma_r for p in points])
    grid_e = np.array([p.gamma_e for p in points])
    n_batches = (trials + batch_size - 1) // batch_size
    tasks = [
        (params, seed, b, min(batch_size, trials - b * batch_size), grid_r, grid_e)
        for b in range(n_batches)
    ]
    workers = min(workers, n_batches, os.cpu_count() or 1)  # a pool forks all it is sized for
    if workers > 1:
        # only here: importing it costs set-up time on every single-process run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_batch, tasks))
    else:
        results = [_run_batch(t) for t in tasks]

    # each field summed over the batches, in batch order
    t_counts, s_counts, nc_count, hist, c_sum, log_c_sum = map(sum, zip(*results))

    jain, entropy = load_balance(hist) if params.n else (math.nan, math.nan)
    n_selected = trials - nc_count
    if n_selected == 0:
        cond_jain = cond_entropy = math.nan
    else:
        cond_jain = c_sum / (params.n * n_selected)
        cond_entropy = (
            1.0 if params.n == 1 else (log_c_sum / n_selected) / math.log(params.n)
        )
    reports = [
        EstimateReport(
            params=point,
            seed=seed,
            trials=trials,
            p_t_hat=t_count / trials,
            p_s_hat=s_count / trials,
            ci_t=wilson_interval(t_count, trials),
            ci_s=wilson_interval(s_count, trials),
            selection_histogram=hist,
            jain_index=jain,
            norm_entropy=entropy,
            no_candidate_rate=nc_count / trials,
            conditional_jain=cond_jain,
            conditional_entropy=cond_entropy,
        )
        for point, t_count, s_count in zip(points, t_counts.tolist(), s_counts.tolist())
    ]
    return reports if gamma_r is not None or gamma_e is not None else reports[0]


def _standard_error(ci: tuple) -> float:
    return (ci[1] - ci[0]) / (2.0 * _Z95)


def compare(estimates: EstimateReport, bounds: BoundReport) -> ComparisonRow:
    """Check estimate <= bound + 3*SE for both outage metrics.

    The SE is derived from the Wilson interval width so it stays positive
    at empirical frequencies of exactly 0 or 1.  A saturated secrecy bound
    compares as the trivial bound 1.
    """
    if estimates.params != bounds.params:
        raise ValueError("estimate and bound reports describe different parameter sets")
    se_t = _standard_error(estimates.ci_t)
    se_s = _standard_error(estimates.ci_s)
    t_slack = bounds.bound_t + 3.0 * se_t - estimates.p_t_hat
    s_slack = bounds.bound_s.effective + 3.0 * se_s - estimates.p_s_hat
    return ComparisonRow(
        t_pass=t_slack >= 0.0,
        t_slack=t_slack,
        s_pass=s_slack >= 0.0,
        s_slack=s_slack,
    )
