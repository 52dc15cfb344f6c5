"""Regenerate ``reference.json``, the values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Simulated points come from long runs (``LONG_TRIALS`` trials at
``REFERENCE_SEED``) and keep their standard errors; bound cells are stored
exactly, or as null where the current code fails on the row.  Takes a few
minutes and a few hundred MiB of memory.
"""

from __future__ import annotations

import json
import os
import sys

import worker
import workloads
from workloads import BOUND_COLUMNS, parse_csv

sys.path.insert(0, worker.SRC)
from twohopsec.cli import main  # noqa: E402

REFERENCE_SEED = 13011746
LONG_TRIALS = 200_000


def run(argv) -> list:
    rc, seconds, text, problem = worker.invoke(main, argv)
    print(f"{seconds:8.2f}s rc={rc} {' '.join(argv)}", file=sys.stderr)
    return None if problem else parse_csv(text)


def estimate_entry(row: dict, trials: int) -> dict:
    return {"p_t": float(row["p_t_hat"]), "se_t": workloads.standard_error(row, "t"),
            "p_s": float(row["p_s_hat"]), "se_s": workloads.standard_error(row, "s"),
            "trials": trials, "seed": REFERENCE_SEED}


def write_reference() -> None:
    ref = {"z": workloads.Z, "bound_rel_tol": workloads.BOUND_REL_TOL}
    rows = run(("sweep", *workloads.SWEEP_GAMMA, "--trials", str(LONG_TRIALS),
                "--seed", str(REFERENCE_SEED)))
    ref["sweep-gamma"] = {"points": [
        dict(estimate_entry(row, LONG_TRIALS), gamma_e=row["gamma_e"],
             bounds={col: row[col] for col in BOUND_COLUMNS})
        for row in rows
    ]}
    table = ref["bounds-table"] = {}
    for op in workloads.WORKLOADS["bounds-table"].grid():
        rows = run(op.argv)
        table[op.key] = None if rows is None else {col: rows[0][col] for col in BOUND_COLUMNS}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_reference()
