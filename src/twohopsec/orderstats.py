"""Order-statistic distributions of bottleneck relay channel gains.

Every distribution here derives from one parent: the bottleneck gain of a
relay toward the two endpoints, ``min(|h_S|^2, |h_D|^2)`` with unit-mean
exponential components, which is itself exponential with rate 2.  On top of
that parent we provide the j-th largest gain among ``n`` relays and the gain
of a relay drawn uniformly from the ``k`` best of ``n`` (the quantity that
drives the relay-selection analysis), plus brute-force sampling oracles so
the closed forms can be cross-checked empirically.

All CDF evaluators broadcast over ``x`` and accept scalars or arrays.
Binomial coefficients are taken in log space, from a table of log l!, so
the rank sums stay finite for relay counts up to the thousands.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "min_pair_cdf",
    "kth_largest_cdf",
    "topk_random_cdf",
    "mixture_cdf",
    "sample_min_pair",
    "sample_kth_largest",
    "sample_topk_random",
]


def _validate_x(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("gain argument must be finite")
    return arr


def _validate_rank(value: int, n: int, name: str) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 1 <= value <= n:
        raise ValueError(f"{name} must satisfy 1 <= {name} <= n, got {name}={value}, n={n}")


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def min_pair_cdf(x):
    """CDF of the bottleneck gain min of two unit-mean exponentials: 1 - e^{-2x}."""
    arr = _validate_x(x)
    out = np.where(arr > 0.0, -np.expm1(-2.0 * arr), 0.0)
    return _maybe_scalar(out, np.isscalar(x))


# log l! at index l, each entry math.lgamma(l + 1); _log_factorials grows it
# by doubling.  An entry depends on its index only, never on the call history.
_log_factorial_table = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """The table of log l!, grown first if it does not reach l = n."""
    global _log_factorial_table
    size = len(_log_factorial_table)
    if n >= size:
        new_size = size
        while new_size <= n:
            new_size *= 2
        grown = np.empty(new_size)
        grown[:size] = _log_factorial_table
        grown[size:] = [math.lgamma(l + 1) for l in range(size, new_size)]
        _log_factorial_table = grown
    return _log_factorial_table


def _binom_pmf(n: int, l: np.ndarray, log_p, log_q) -> np.ndarray:
    """Binomial(n, p) masses at the integer counts ``l``, from log p and log(1 - p).

    Each mass is exp(log C(n, l) + l log p + (n - l) log(1 - p)) with the
    coefficient from the log-factorial table, so no factor overflows at any
    n.  The table is indexed with l and n - l directly, so every count must
    satisfy 0 <= l <= n.  ``l`` broadcasts against ``log_p`` and ``log_q``.
    A count of 0 at p = 0, or of n at p = 1, would form 0 * -inf: callers
    settle those p themselves.
    """
    log_fact = _log_factorials(n)
    log_c = log_fact[n] - log_fact[l] - log_fact[n - l]
    return np.exp(log_c + l * log_p + (n - l) * log_q)


def _binom_tail(x: np.ndarray, lo: int, n: int) -> np.ndarray:
    """P(Binomial(n, 1 - e^{-2x}) >= lo) with log-space terms, 1 <= lo <= n.

    Exploits log(1-p) = -2x exactly.  Terms are nonnegative, so a plain
    float64 reduction over at most n+1 terms keeps relative error ~ n*eps.
    """
    with np.errstate(divide="ignore"):
        log_p = np.log(-np.expm1(-2.0 * x))  # -inf at x = 0 is fine: exp -> 0
    i = np.arange(lo, n + 1).reshape((-1,) + (1,) * x.ndim)
    return np.add.reduce(_binom_pmf(n, i, log_p, -2.0 * x), axis=0)


def kth_largest_cdf(x, j: int, n: int):
    """CDF of the j-th largest of n independent bottleneck gains.

    Equals the binomial tail sum_{i=n-j+1}^{n} C(n,i) (1-e^{-2x})^i e^{-2x(n-i)};
    for j = n it collapses to the minimum, 1 - e^{-2nx}.
    """
    _validate_rank(j, n, "j")
    arr = _validate_x(x)
    out = np.where(arr > 0.0, _binom_tail(np.maximum(arr, 0.0), n - j + 1, n), 0.0)
    return _maybe_scalar(out, np.isscalar(x))


def topk_random_cdf(x, k: int, n: int):
    """CDF of the gain of a relay selected uniformly among the k largest of n.

    The uniform selection makes this the rank mixture (1/k) sum_{j=1}^{k} of
    the j-th-largest CDFs; k = 1 recovers the maximum, k = n the parent.
    """
    _validate_rank(k, n, "k")
    arr = _validate_x(x)
    pos = np.maximum(arr, 0.0)
    acc = np.zeros_like(pos)
    for j in range(1, k + 1):
        acc += _binom_tail(pos, n - j + 1, n)
    out = np.where(arr > 0.0, acc / k, 0.0)
    return _maybe_scalar(out, np.isscalar(x))


def mixture_cdf(component_cdfs, x):
    """CDF of a variable selected uniformly among components: the plain mean.

    ``component_cdfs`` is a nonempty sequence of callables evaluating each
    component CDF at ``x``.
    """
    cdfs = list(component_cdfs)
    if not cdfs:
        raise ValueError("mixture requires at least one component CDF")
    arr = _validate_x(x)
    acc = np.zeros_like(arr, dtype=float)
    for f in cdfs:
        acc = acc + np.asarray(f(arr), dtype=float)
    out = acc / len(cdfs)
    return _maybe_scalar(out, np.isscalar(x))


def sample_min_pair(rng: np.random.Generator, size=None):
    """Brute-force bottleneck-gain draws: elementwise min of two Exp(1) draws."""
    shape = () if size is None else (size,)
    draws = rng.standard_exponential(shape + (2,))
    out = draws.min(axis=-1)
    return float(out) if size is None else out


def sample_kth_largest(n: int, j: int, rng: np.random.Generator, size=None):
    """Brute-force draws of the j-th largest of n bottleneck gains."""
    _validate_rank(j, n, "j")
    b = 1 if size is None else size
    gains = rng.standard_exponential((b, n, 2)).min(axis=-1)
    gains.sort(axis=1)
    out = gains[:, n - j]
    return float(out[0]) if size is None else out


def sample_topk_random(n: int, k: int, rng: np.random.Generator, size=None):
    """Sampling oracle for the top-k uniform selection.

    Draws n independent bottleneck gains (each the min of two unit-mean
    exponentials), orders them descending with ties broken by draw index,
    then returns the gain of a uniformly chosen relay among the k largest.
    Gains are consumed from ``rng`` first, the selection index second.
    """
    _validate_rank(k, n, "k")
    b = 1 if size is None else size
    gains = rng.standard_exponential((b, n, 2)).min(axis=-1)
    order = np.argsort(-gains, axis=1, kind="stable")
    pick = rng.integers(0, k, size=b)
    out = gains[np.arange(b), order[np.arange(b), pick]]
    return float(out[0]) if size is None else out
