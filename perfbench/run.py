"""twohopsec benchmark: run one workload through ``twohopsec.cli.main`` and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from its
``src/`` directory.  Set-up is timed in ``SETUP_PROBES`` fresh processes plus
the workload's own process (import ``twohopsec.cli`` and one warm-up call);
``setup_s`` is their median.  The workload then runs in a fresh process with
``workers=1`` for ``--seconds`` seconds, and every output is checked (see
``workloads.py``).  BLAS/OpenMP thread counts are pinned to 1.

End-to-end metrics (``--trace 0``); times are scaled to one host speed by a
kernel run next to the calls (see ``hostspeed.py``):
  rows_per_s      CSV rows completed per second of the CLI calls
  latency_p50_ms  median time of one CLI call, over completed calls
  peak_rss_mib    ru_maxrss of the workload process
  setup_s         median set-up time
With ``--trace 1`` the metrics are per-layer: unscaled times and counts per
unit of work, from spans around the calls into each module (see ``tracing.py``).

Lines before the last carry provenance, exact counts, the unscaled times,
trials/s, the latency tail and the known-defect probes; the same record is
written to ``.perfbench_out/``.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import unit_of
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8
# Time allowed beyond --seconds: the set-up probes, the unit that is still
# running when the time is up, and bounds-table's known-defect probes.
DEADLINE_MARGIN_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py in a fresh process; return the JSON object on its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(*args: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code also outside git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(child: dict, setup_samples: list) -> dict:
    if not child["latency_p50_ms"]:
        raise BenchError(f"no call completed; first problems: {child['problems'][:2]}")
    return {
        "rows_per_s": {"value": child["rows"] / child["wall_s"], "unit": "rows/s"},
        "latency_p50_ms": {"value": child["latency_p50_ms"], "unit": "ms"},
        "peak_rss_mib": {"value": child["peak_rss_mib"], "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    if not os.path.isfile(os.path.join(ROOT, "src", "twohopsec", "cli.py")):
        print(f"no twohopsec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("PYTHONPATH", None)  # the worker imports twohopsec from this checkout

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Half the set-up probes run before the workload and half after, so that
        # their median spans the run's whole window.
        setups = [run_worker(common + ["--probe"], deadline) for _ in range(SETUP_PROBES // 2)]
        child = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                           deadline)
        setups.append(child)
        setups += [run_worker(common + ["--probe"], deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setup_samples = [s["setup_s"] for s in setups]
        if args.trace:
            metrics = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in child["per_layer"].items()}
        else:
            metrics = end_to_end(child, setup_samples)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = child["units"]
    record = {
        "provenance": dict(provenance(args), **child.pop("versions")),
        "setup_samples_s": setup_samples,
        "unscaled": {
            "rows_per_s": child["rows"] / child["raw_wall_s"],
            "latency_p50_ms": child["raw_latency_p50_ms"],
            "setup_s": statistics.median(s["setup_raw_s"] for s in setups),
            "host_speed_samples": child["host_speed_samples"],
        },
        "per_unit": {
            "units": units,
            "trials": child["trials"] / units,
            "csv_rows": child["rows"] / units,
            "bound_rows": child["bound_rows"] / units,
            "geometry_misses": child["geometry_misses"] / units,
            "calls": child["attempted"] / units,
        },
        "trials_per_s": child["trials"] / child["wall_s"],
        "latency_tail": child["latency_tail"],
        "failed_share": child["failed"] / child["attempted"],
        "problems": child["problems"],
        "pooled_check": child["pooled_check"],
        "known_defect_probes": child["probes"],
        "spans_file": child.get("spans_file"),
        "unit_walls": child["unit_walls"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    correct = (child["failed"] == 0 and child["pooled_check"] in (None, "passed")
               and not (child["probes"] or {}).get("wrong"))
    for key in ("provenance", "per_unit", "unscaled", "trials_per_s", "latency_tail",
                "failed_share", "problems", "pooled_check", "known_defect_probes"):
        print(f"{key}: {json.dumps(record[key])}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
