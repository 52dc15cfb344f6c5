"""One benchmark process: set up twohopsec, then run one workload in-process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

``--probe`` stops after set-up (import ``twohopsec.cli`` and one warm-up
call) and reports only its time.  Otherwise the worker repeats units of the
workload until ``--seconds`` have passed.  With ``--trace 1`` it alternates an
untraced and a traced run of the same unit, so the two walls give the tracing
overhead.  The last stdout line is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import hostspeed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def invoke(main, argv) -> tuple:
    """Run ``main(argv)`` with stdout captured: (exit code or None, seconds, stdout, problem)."""
    out, err = io.StringIO(), io.StringIO()
    problem = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse refusing the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 -- an escaped exception is a failed operation
        rc, problem = None, f"escaped {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rc not in (0, None):
        problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
    return rc, seconds, out.getvalue(), problem


class Tally:
    """Results of a run's calls: counts, call times and unit walls.

    A call fails on exit 2 or 3 (``clean_failures``), or on an escaped
    exception or an output-check miss (``wrong``).  Only completed calls
    count rows, trials and latencies.  Each call's time is kept with the
    host-speed sample taken before it, so it can be scaled at the end.
    """

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.calls = []  # (seconds, host-speed mark, completed)
        self.wall = 0.0
        self.attempted = self.clean_failures = self.wrong = 0
        self.rows = self.trials = self.bound_rows = 0
        self.problems = []
        self.unit_walls = []
        self.geometry_misses = 0
        self.pooled = workloads.PooledEstimates()

    @property
    def failed(self) -> int:
        return self.clean_failures + self.wrong

    def record(self, op, result, mark=None) -> None:
        rc, seconds, text, problem = result
        self.attempted += 1
        self.wall += seconds
        if problem is None:
            try:
                outcome = self.workload.check(op, text, self.reference)
            except (KeyError, ValueError, IndexError) as exc:
                outcome = workloads.Outcome(0, f"unreadable output: {exc!r}")
            problem = outcome.problem
            if problem is None:
                self.calls.append((seconds, mark, True))
                self.rows += outcome.rows
                self.trials += outcome.trials
                self.bound_rows += outcome.bound_rows
                self.pooled.add(outcome.estimates)
                return
        self.calls.append((seconds, mark, False))
        if rc in (2, 3):
            self.clean_failures += 1
        else:
            self.wrong += 1
        if len(self.problems) < 5:
            self.problems.append(f"{' '.join(op.argv)}: {problem}")

    def times(self, speed=None) -> tuple:
        """(seconds of all calls, seconds of each completed call), scaled by ``speed`` if given."""
        scaled = [(speed.scaled(s, mark) if speed else s, done) for s, mark, done in self.calls]
        return sum(s for s, _ in scaled), [s for s, done in scaled if done]


def tail(latencies: list) -> dict | None:
    """Highest of a few percentiles with at least ten completed calls beyond it."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(pct / 100.0 * len(ordered))
        if len(ordered) - rank >= 10:
            return {"percentile": pct, "ms": ordered[rank - 1] * 1e3,
                    "calls": len(ordered), "beyond": len(ordered) - rank}
    return None


def run_unit(main, ops, tally, geometry, speed) -> float:
    """Run one unit from an empty geometry-integral cache; return the time of its calls.

    Host-speed samples are taken between calls when due and after the last.
    """
    geometry.cache_clear()
    before = tally.wall
    for op in ops:
        speed.sample_if_due()
        tally.record(op, invoke(main, op.argv), speed.mark)
    speed.sample()
    wall = tally.wall - before
    tally.unit_walls.append(wall)
    tally.geometry_misses += geometry.cache_info().misses
    return wall


def run_probes(main, workload, reference) -> dict:
    """Untimed known-defect probes: a clean exit 2 or 3 is counted, any output is checked."""
    tally = Tally(workload, reference)
    for op in workload.probes():
        tally.record(op, invoke(main, op.argv))
    return {"attempted": tally.attempted, "completed": len(tally.times()[1]),
            "clean_failures": tally.clean_failures, "wrong": tally.wrong,
            "examples": tally.problems[:2]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    # Set-up: import the package from this checkout and finish one warm-up call,
    # between two samples of the host's speed.
    setup_speed = hostspeed.HostSpeed("python")
    setup_speed.sample()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from twohopsec import bounds_general, cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"twohopsec was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    problem = invoke(cli.main, workload.warmup)[3]
    if problem is not None:
        print(f"warm-up call failed: {problem}", file=sys.stderr)
        return 1
    setup_raw_s = time.perf_counter() - start
    setup_speed.sample()
    setup_s = setup_speed.scaled(setup_raw_s, 0)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    reference = workloads.load_reference()
    rng = random.Random(f"{args.workload}:{args.seed}")
    tally = Tally(workload, reference)
    geometry = bounds_general.geometry_integrals
    speed = hostspeed.HostSpeed(workload.speed_kernel)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
    begin = time.perf_counter()
    if not args.trace:
        while not tally.unit_walls or time.perf_counter() - begin < args.seconds:
            run_unit(cli.main, workload.unit(rng), tally, geometry, speed)
    else:
        tracer = tracing.Tracer()
        walls = {False: 0.0, True: 0.0}
        hits = misses = 0

        def traced_main(argv):
            return tracer.call("cli.main", cli.main, (argv,))

        pairs = 0
        while pairs == 0 or time.perf_counter() - begin < args.seconds:
            ops = workload.unit(rng)
            # Alternate which side of the pair runs first.
            for traced in (False, True) if pairs % 2 == 0 else (True, False):
                if traced:
                    tracer.install(cli)
                try:
                    walls[traced] += run_unit(traced_main if traced else cli.main, ops, tally,
                                              geometry, speed)
                finally:
                    tracer.uninstall()
                if traced:
                    info = geometry.cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
            pairs += 1
        result["per_layer"] = tracing.per_layer(tracer, pairs, (hits, misses),
                                                walls[True] / walls[False] - 1.0)
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "units": pairs})
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_wall_s, raw_latencies = tally.times()
    wall_s, latencies = tally.times(speed)

    import numpy
    import scipy

    result.update(
        units=len(tally.unit_walls),
        geometry_misses=tally.geometry_misses,
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        pooled_check=((tally.pooled.check(reference[workload.name]["points"]) or "passed")
                      if tally.pooled.counts else None),
        rows=tally.rows,
        trials=tally.trials,
        bound_rows=tally.bound_rows,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        unit_walls=tally.unit_walls,
        latency_p50_ms=statistics.median(latencies) * 1e3 if latencies else None,
        raw_latency_p50_ms=statistics.median(raw_latencies) * 1e3 if raw_latencies else None,
        latency_tail=tail(latencies),
        host_speed_samples=len(speed.samples),
        probes=run_probes(cli.main, workload, reference) if workload.probes() else None,
        peak_rss_mib=peak_rss_mib,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
