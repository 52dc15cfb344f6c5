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

Distances are handled squared, so no square root is taken: the region test
is x^2 + y^2 <= r^2, capture is d^2 < d0^2, and path loss is
max(d^2, delta^2)^(-alpha/2).

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
from concurrent.futures import ProcessPoolExecutor
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
_Z95 = 1.959963984540054


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

    @property
    def passed(self) -> bool:
        return self.t_pass and self.s_pass


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion.

    The endpoints at 0 and at ``trials`` successes are exactly 0 and 1: the
    formula gives them only up to rounding.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    p = successes / trials
    zz = z * z / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = (z / (1.0 + zz)) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials))
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


def _run_batch(task) -> tuple:
    """Simulate one batch and count its outages at every threshold of the grids.

    Returns (t_outages per gamma_r, s_outages per gamma_e, no_candidate,
    histogram, sum of candidate counts, sum of log candidate counts), the
    last two over trials that selected a relay.  ``params.gamma_r`` and
    ``params.gamma_e`` are not read; the grids take their place.
    """
    params, seed, batch_index, size, gamma_r, gamma_e = task
    n, m, k = params.n, params.m, params.k
    if n == 0:
        return (np.full(len(gamma_r), size, dtype=np.int64),
                np.zeros(len(gamma_e), dtype=np.int64), size,
                np.zeros(0, dtype=np.int64), 0, 0.0)
    rng = _batch_rng(seed, batch_index)
    general = params.is_general
    alpha, delta, es, n0 = params.alpha, params.delta, params.es, params.n0
    idx = np.arange(size)

    def pl(d2, out=None):
        """Path loss max(d, delta)^-alpha from squared distances, in place when ``out`` is given."""
        clamped = np.maximum(d2, delta * delta, out=out)
        return np.power(clamped, -0.5 * alpha, out=clamped)

    if general:
        rel = rng.uniform(-0.5, 0.5, size=(size, n, 2))
        eav = rng.uniform(-0.5, 0.5, size=(size, m, 2)) if m else None
        # contiguous copies of the coordinate planes, read many times below
        rx, ry = rel[..., 0].copy(), rel[..., 1].copy()
    g_sr = rng.standard_exponential((size, n))
    g_dr = rng.standard_exponential((size, n))
    pick_u = rng.random(size)
    g_rr = rng.standard_exponential((size, n))
    if m:
        g_se = rng.standard_exponential((size, m))
        g_re = rng.standard_exponential((size, n, m))

    # Candidate selection: best bottleneck gains inside the region.
    w = np.minimum(g_sr, g_dr)
    if general:
        in_region = rx * rx + ry * ry <= params.r * params.r
        region_count = in_region.sum(axis=1)
        w_eff = np.where(in_region, w, -np.inf)
    else:
        region_count = np.full(size, n)
        w_eff = w
    order = np.argsort(-w_eff, axis=1, kind="stable")
    c = np.minimum(k, region_count)
    no_cand = c == 0
    c_safe = np.maximum(c, 1)
    pick = np.minimum((pick_u * c_safe).astype(np.int64), c_safe - 1)
    jstar = order[idx, pick]

    # Jammer memberships: gain toward the hop's legitimate receiver below tau.
    mask1 = g_rr < params.tau
    mask1[idx, jstar] = False
    mask2 = g_dr < params.tau
    mask2[idx, jstar] = False

    if general:
        sx, sy = rx[idx, jstar], ry[idx, jstar]
        pl_rr = pl((rx - sx[:, None]) ** 2 + (ry - sy[:, None]) ** 2)
        pl_rd = pl((rx - 0.5) ** 2 + ry * ry)
        sig1 = es * g_sr[idx, jstar] * pl((sx + 0.5) ** 2 + sy * sy)
        sig2 = es * g_dr[idx, jstar] * pl_rd[idx, jstar]
    else:
        pl_unit = max(1.0, delta) ** (-alpha)
        pl_rr = pl_rd = pl_unit
        sig1 = es * g_sr[idx, jstar] * pl_unit
        sig2 = es * g_dr[idx, jstar] * pl_unit

    noise = n0 / 2.0
    intf1 = es * np.sum(mask1 * g_rr * pl_rr, axis=1)
    intf2 = es * np.sum(mask2 * g_dr * pl_rd, axis=1)
    # With a subnormal noise level and no jammer the quotient overflows to
    # +inf, which is the right SINR.
    with np.errstate(over="ignore"):
        bottleneck = np.minimum(sig1 / (intf1 + noise), sig2 / (intf2 + noise))

    if m:
        if general:
            ex, ey = eav[..., 0].copy(), eav[..., 1].copy()
            d2_se = (ex + 0.5) ** 2 + ey * ey
            # squared relay->eavesdropper distances, built in place
            d2_re = rx[:, :, None] - ex[:, None, :]
            np.square(d2_re, out=d2_re)
            dy = ry[:, :, None] - ey[:, None, :]
            d2_re += np.square(dy, out=dy)
            del dy
            d0_sq = params.d0 * params.d0
            captured1 = d2_se < d0_sq
            captured2 = d2_re[idx, jstar, :] < d0_sq
            weighted = pl(d2_re, out=d2_re)
            sig_e1 = es * g_se * pl(d2_se)
            sig_e2 = es * g_re[idx, jstar, :] * weighted[idx, jstar, :]
            weighted *= g_re
        else:
            sig_e1 = es * g_se * pl_unit
            sig_e2 = es * g_re[idx, jstar, :] * pl_unit
            weighted = g_re * pl_unit
        intf_e1 = es * np.einsum("bn,bnm->bm", mask1.astype(float), weighted)
        intf_e2 = es * np.einsum("bn,bnm->bm", mask2.astype(float), weighted)
        # SINRs overwrite the signal arrays: no extra (batch, m) arrays at the peak
        with np.errstate(over="ignore"):
            sinr_e1 = np.divide(sig_e1, intf_e1 + noise, out=sig_e1)
            sinr_e2 = np.divide(sig_e2, intf_e2 + noise, out=sig_e2)
        if general:
            sinr_e1[captured1] = np.inf
            sinr_e2[captured2] = np.inf
        eav_max = np.maximum(sinr_e1, sinr_e2, out=sinr_e1).max(axis=1)
    else:
        eav_max = np.full(size, -np.inf)

    selected = ~no_cand
    n_selected = int(selected.sum())
    hist = np.bincount(jstar[selected], minlength=n).astype(np.int64)
    c_sel = c[selected]
    return (
        size - n_selected + _count_below(bottleneck[selected], gamma_r),
        n_selected - _count_below(eav_max[selected], gamma_e),
        size - n_selected,
        hist,
        int(c_sel.sum()),
        float(np.log(c_sel).sum()),
    )


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
    regardless of ``workers``.

    Given a sequence of ``gamma_r`` or ``gamma_e`` values (at most one of
    the two), every value is evaluated on the same trials and a list with
    one report per value is returned; each report equals that of a separate
    call with the threshold set to that value.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
    if workers > 1 and n_batches > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_batch, tasks))
    else:
        results = [_run_batch(t) for t in tasks]

    t_counts = sum(r[0] for r in results)
    s_counts = sum(r[1] for r in results)
    nc_count = sum(r[2] for r in results)
    c_sum = sum(r[4] for r in results)
    log_c_sum = sum(r[5] for r in results)
    hist = np.zeros(params.n, dtype=np.int64)
    for r in results:
        hist += r[3]

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
