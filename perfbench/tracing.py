"""Spans around the calls into each twohopsec module, recorded from outside the package.

Each wrapper replaces a name where its caller looks it up (``cli.estimate``,
the functions ``reports`` reaches through ``bgen``/``beq``, and so on), so the
package itself is unchanged.  Spans stay in memory as
``[id, parent, name, start, end, attrs]`` and are written out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
import tracemalloc

BOUNDS_GENERAL = ("transmission_bound_general", "secrecy_bound_general", "tau_max_general",
                  "tau_min_general", "max_eaves_general")
BOUNDS_EQUAL = ("transmission_bound_equal", "secrecy_bound_equal", "tau_max_equal",
                "tau_min_equal", "max_eaves_equal")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn`` inside a span named ``name``."""
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                0.0, 0.0, attrs if attrs is not None else {}]
        self.spans.append(span)
        self._stack.append(span[0])
        span[3] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        self._patch(owner, attr, wrapper)

    def install(self, cli) -> None:
        """Wrap every traced name of the package whose ``cli`` module is given."""
        import twohopsec.bounds_equal as beq
        import twohopsec.bounds_general as bgen
        import twohopsec.montecarlo as mc
        import twohopsec.reports as reports

        estimate = cli.estimate
        signature = inspect.signature(estimate)

        def traced_estimate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            p, trials = bound.arguments["params"], bound.arguments["trials"]
            batch = bound.arguments.get("batch_size", mc.BATCH_SIZE)
            attrs = {"trials": trials, "batches": math.ceil(trials / batch),
                     "tensor_bytes": min(batch, trials) * p.n * p.m * 8}
            tracemalloc.start()
            try:
                return self.call("montecarlo.estimate", estimate, args, kwargs, attrs)
            finally:
                attrs["tracemalloc_peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        self._patch(cli, "estimate", functools.wraps(estimate)(traced_estimate))
        self.wrap(cli, "evaluate_bounds", "reports.evaluate_bounds")
        for fn in BOUNDS_GENERAL:
            self.wrap(reports.bgen, fn, f"bounds_general.{fn}")
        for fn in BOUNDS_EQUAL:
            self.wrap(reports.beq, fn, f"bounds_equal.{fn}")
        self.wrap(beq, "topk_random_cdf", "orderstats.topk_random_cdf")

        geometry = bgen.geometry_integrals

        def traced_geometry(*args, **kwargs):
            attrs = {}
            misses = geometry.cache_info().misses
            try:
                return self.call("bounds_general.geometry_integrals", geometry, args, kwargs,
                                 attrs)
            finally:
                attrs["miss"] = geometry.cache_info().misses > misses

        traced_geometry = functools.wraps(geometry)(traced_geometry)
        traced_geometry.cache_info = geometry.cache_info
        traced_geometry.cache_clear = geometry.cache_clear
        self._patch(bgen, "geometry_integrals", traced_geometry)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[4] - s[3]
        return own

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer(tracer: Tracer, units: int, geometry_counts: tuple, overhead_share: float) -> dict:
    """Per-layer metrics, per unit of work, from the spans of ``units`` traced units.

    ``geometry_counts`` is (hits, misses) summed from the cache's own
    ``cache_info`` over those units.
    """
    totals, calls, selfs = {}, {}, {}
    est_peak = tensor = 0
    est_sums = {"trials": 0, "batches": 0}
    miss_s = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, dur, attrs = span[2], span[4] - span[3], span[5]
        totals[name] = totals.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + own
        if name == "montecarlo.estimate":
            for key in est_sums:
                est_sums[key] += attrs[key]
            est_peak = max(est_peak, attrs["tracemalloc_peak"])
            tensor = max(tensor, attrs["tensor_bytes"])
        elif name == "bounds_general.geometry_integrals" and attrs.get("miss"):
            miss_s += dur

    def per_unit(x):
        return x / units

    m = {
        "cli.main.self_s": per_unit(selfs.get("cli.main", 0.0)),
        "cli.main.calls": per_unit(calls.get("cli.main", 0)),
        "montecarlo.estimate.s": per_unit(totals.get("montecarlo.estimate", 0.0)),
        "montecarlo.estimate.calls": per_unit(calls.get("montecarlo.estimate", 0)),
        "montecarlo.estimate.trials": per_unit(est_sums["trials"]),
        "montecarlo.estimate.batches": per_unit(est_sums["batches"]),
        "montecarlo.estimate.tracemalloc_peak_mib": est_peak / 2**20,
        "montecarlo.estimate.tensor_bytes": tensor,
        "reports.evaluate_bounds.s": per_unit(totals.get("reports.evaluate_bounds", 0.0)),
        "reports.evaluate_bounds.self_s": per_unit(selfs.get("reports.evaluate_bounds", 0.0)),
        "reports.evaluate_bounds.calls": per_unit(calls.get("reports.evaluate_bounds", 0)),
    }
    for module, fns in (("bounds_general", BOUNDS_GENERAL), ("bounds_equal", BOUNDS_EQUAL),
                        ("orderstats", ("topk_random_cdf",))):
        for fn in fns:
            name = f"{module}.{fn}"
            m[f"{name}.s"] = per_unit(totals.get(name, 0.0))
            m[f"{name}.calls"] = per_unit(calls.get(name, 0))
    m["bounds_general.geometry_integrals.hits"] = per_unit(geometry_counts[0])
    m["bounds_general.geometry_integrals.misses"] = per_unit(geometry_counts[1])
    m["bounds_general.geometry_integrals.miss_s"] = per_unit(miss_s)
    m["trace.overhead_share"] = overhead_share
    return m


PER_LAYER_UNITS = {
    "calls": "count", "trials": "count", "batches": "count", "hits": "count",
    "misses": "count", "tensor_bytes": "bytes", "tracemalloc_peak_mib": "MiB",
    "overhead_share": "ratio",
}


def unit_of(metric: str) -> str:
    return PER_LAYER_UNITS.get(metric.rsplit(".", 1)[1], "s")
