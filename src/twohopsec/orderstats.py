"""Order-statistic distributions of bottleneck relay channel gains.

Every distribution here derives from one parent: the bottleneck gain of a
relay toward the two endpoints, ``min(|h_S|^2, |h_D|^2)`` with unit-mean
exponential components, which is itself exponential with rate 2.  On top of
that parent we provide the j-th largest gain among ``n`` relays and the gain
of a relay drawn uniformly from the ``k`` best of ``n`` (the quantity that
drives the relay-selection analysis), plus brute-force sampling oracles so
the closed forms can be cross-checked empirically.

A real ``x`` gives a float computed on ``math``; an array-like ``x`` gives
an array from the same arithmetic on NumPy's elementwise exp, log and
expm1.  Every binomial mass is one form, exp(log C(n, l) + l log p +
(n - l) log(1 - p)) with log C(n, l) from ``math.lgamma``, so no factor
overflows at any n; an array forms them in one NumPy call over a counts
axis.  The j-th largest gain's CDF sums the masses at l = n, n - 1, ...,
n - j + 1, so the top-k CDF forms k masses and reads every rank off their
running sum.  Only arrays and the samplers, which draw from a NumPy
``Generator``, import NumPy.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from itertools import accumulate
from operator import add

__all__ = [
    "min_pair_cdf",
    "kth_largest_cdf",
    "topk_random_cdf",
    "mixture_cdf",
    "sample_min_pair",
    "sample_kth_largest",
    "sample_topk_random",
]


def _points(x):
    """(x, xp): a real ``x`` as a float with ``math``, an array-like one as an array with NumPy."""
    if isinstance(x, numbers.Real):
        x, xp = float(x), math
    else:
        import numpy as xp

        x = xp.asarray(x, dtype=float)
    if not (math.isfinite(x) if xp is math else xp.isfinite(x).all()):
        raise ValueError("gain argument must be finite")
    return x, xp


def _apply(cdf, x):
    """``cdf(x, xp)`` at x > 0, clamped at 1e300 (every CDF here is exactly 1 from
    x ~ 400); 0 at x <= 0, where arrays evaluate at x = 0 (log p = -inf)."""
    x, xp = _points(x)
    if xp is math:
        return cdf(min(x, 1e300), math) if x > 0.0 else 0.0
    with xp.errstate(divide="ignore"):
        return xp.asarray(cdf(xp.clip(x, 0.0, 1e300), xp))  # a 0-d input stays an array


def _validate_rank(value: int, n: int, name: str) -> None:
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= n:
        raise ValueError(f"{name} must satisfy 1 <= {name} <= n, got {name}={value}, n={n}")


def min_pair_cdf(x):
    """CDF of the bottleneck gain min of two unit-mean exponentials: 1 - e^{-2x}."""
    return _apply(lambda v, xp: -xp.expm1(-2.0 * v), x)


def _binom_masses(n: int, counts, log_p, log_q, xp=math):
    """Binomial(n, p) masses at the integer ``counts``, 0 <= l <= n, from log p and log(1 - p).

    A list of floats on ``math``; with NumPy as ``xp`` and arrays of log p
    and log(1 - p), one array whose leading axis runs over the counts.  A
    count of 0 at p = 0, or of n at p = 1, would form 0 * -inf: callers
    settle those p themselves.
    """
    lgamma, top = math.lgamma, math.lgamma(n + 1)
    log_c = [top - lgamma(l + 1) - lgamma(n - l + 1) for l in counts]
    if xp is math:
        return [math.exp(c + l * log_p + (n - l) * log_q) for c, l in zip(log_c, counts)]
    shape = (-1,) + (1,) * xp.ndim(log_p)  # the whole counts axis as one array
    l = xp.reshape(xp.asarray(counts), shape)
    return xp.exp(xp.reshape(log_c, shape) + l * log_p + (n - l) * log_q)


def _rank_masses(x, xp, count: int, n: int):
    """The Binomial(n, 1 - e^{-2x}) masses at l = n, n - 1, ..., n - count + 1.

    The j-th largest gain's CDF F_j(x) = P(L >= n - j + 1) is the sum of the
    first j of them; log(1 - p) = -2x exactly.
    """
    log_q = -2.0 * x
    return _binom_masses(n, range(n, n - count, -1), xp.log(-xp.expm1(log_q)), log_q, xp)


def _sum_in_order(terms, xp):
    """terms[0] + terms[1] + ..., added one at a time along the leading axis."""
    return reduce(add, terms) if xp is math else xp.cumsum(terms, axis=0)[-1]


def kth_largest_cdf(x, j: int, n: int):
    """CDF of the j-th largest of n independent bottleneck gains.

    Equals the binomial tail sum_{i=n-j+1}^{n} C(n,i) (1-e^{-2x})^i e^{-2x(n-i)};
    for j = n it collapses to the minimum, 1 - e^{-2nx}.
    """
    _validate_rank(j, n, "j")
    return _apply(lambda v, xp: _sum_in_order(_rank_masses(v, xp, j, n), xp), x)


def topk_random_cdf(x, k: int, n: int):
    """CDF of the gain of a relay selected uniformly among the k largest of n.

    The uniform selection makes this the rank mixture (1/k) sum_{j=1}^{k} of
    the j-th-largest CDFs; k = 1 recovers the maximum, k = n the parent.
    """
    _validate_rank(k, n, "k")

    def cdf(v, xp):  # F_1, ..., F_k are the running sums; added in order, as mixture_cdf adds
        masses = _rank_masses(v, xp, k, n)
        ranks = accumulate(masses) if xp is math else xp.cumsum(masses, axis=0)
        return _sum_in_order(ranks, xp) / k

    return _apply(cdf, x)


def mixture_cdf(component_cdfs, x):
    """CDF of a variable selected uniformly among components: the plain mean.

    ``component_cdfs`` is a nonempty sequence of callables evaluating each
    component CDF at ``x``.
    """
    cdfs = list(component_cdfs)
    if not cdfs:
        raise ValueError("mixture requires at least one component CDF")
    x, xp = _points(x)
    acc = 0.0
    for f in cdfs:
        acc = acc + (float(f(x)) if xp is math else xp.asarray(f(x), dtype=float))
    return acc / len(cdfs)


def sample_min_pair(rng, size=None):
    """Brute-force bottleneck-gain draws: elementwise min of two Exp(1) draws."""
    shape = () if size is None else (size,)
    draws = rng.standard_exponential(shape + (2,))
    out = draws.min(axis=-1)
    return float(out) if size is None else out


def sample_kth_largest(n: int, j: int, rng, size=None):
    """Brute-force draws of the j-th largest of n bottleneck gains."""
    _validate_rank(j, n, "j")
    b = 1 if size is None else size
    gains = rng.standard_exponential((b, n, 2)).min(axis=-1)
    gains.sort(axis=1)
    out = gains[:, n - j]
    return float(out[0]) if size is None else out


def sample_topk_random(n: int, k: int, rng, size=None):
    """Sampling oracle for the top-k uniform selection.

    Draws n independent bottleneck gains (each the min of two unit-mean
    exponentials), orders them descending with ties broken by draw index,
    then returns the gain of a uniformly chosen relay among the k largest.
    Gains are consumed from ``rng`` first, the selection index second.
    """
    import numpy as np

    _validate_rank(k, n, "k")
    b = 1 if size is None else size
    gains = rng.standard_exponential((b, n, 2)).min(axis=-1)
    order = np.argsort(-gains, axis=1, kind="stable")
    pick = rng.integers(0, k, size=b)
    out = gains[np.arange(b), order[np.arange(b), pick]]
    return float(out[0]) if size is None else out
