"""Workloads of the twohopsec benchmark and the checks on their output.

A workload is a list of ``twohopsec`` CLI invocations, grouped in units.  A
unit is one piece of work as a user would ask for it: one ``sweep`` call, or
one full table of ``bounds`` calls.  The benchmark repeats units until its
time is up; the workload seed fixes the simulation seeds and the order of the
bounds table.

Every output is checked against ``reference.json`` (written by
``make_reference.py``).  Simulated outage rates must lie within ``Z``
combined standard errors of a long reference run, so the checks hold for any
RNG stream that samples the same model.  The same holds for the estimates
pooled over all units of a run (``PooledEstimates``), whose tolerance is
tighter by about the square root of the unit count.  Bound cells must match
the reference to ``BOUND_REL_TOL`` wherever the reference has a value.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

Z = 5.0
BOUND_REL_TOL = 1e-9
_Z95 = 1.959963984540054
BOUND_COLUMNS = ("bound_t", "bound_s", "tau_min", "tau_max", "max_m", "feasible")

SWEEP_GAMMA = ("--sweep-param", "gamma_e", "--sweep-from", "0.25", "--sweep-to", "4",
               "--sweep-steps", "16", "--sweep-scale", "log", "--case", "general",
               "--n", "20", "--m", "10", "--k", "3", "--r", "0.4", "--tau", "0.5")
SWEEP_TRIALS = 4096

# bounds-table grid: n log-spaced from 10 to 2000.
BOUNDS_N = tuple(int(round(10 * 200 ** (i / 11))) for i in range(12))
BOUNDS_K = (1, 3, 5)
BOUNDS_EQUAL_M = (1, 10, 100)
BOUNDS_R = (0.1, 0.3, 0.5)
BOUNDS_ALPHA_DELTA = ((2.0, 0.05), (3.0, 0.05), (4.0, 0.1), (3.0, 0.02))
BOUNDS_COMMON = ("--tau", "0.2", "--gamma-r", "1.0", "--gamma-e", "1.0")
# General rows above this n overflow in the binomial sums of the current
# bounds_general (exit 3).  They are run once per bounds-table run, untimed,
# as known-defect probes; the timed table keeps to rows that complete.
GENERAL_TIMED_MAX_N = 1000


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the reference entry its output is checked against."""

    argv: tuple
    key: str
    seed: int | None = None
    trials: int | None = None


@dataclass
class Outcome:
    """What the checks made of one invocation's output."""

    rows: int
    problem: str | None = None
    trials: int = 0
    bound_rows: int = 0
    # (reference point index, trials, transmission outages, secrecy outages) per row
    estimates: tuple = ()


def parse_csv(text: str) -> list:
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def standard_error(row: dict, metric: str) -> float:
    """The SE implied by a row's Wilson 95% interval; positive also at 0 or 1 outages."""
    return (float(row[f"p_{metric}_hi"]) - float(row[f"p_{metric}_lo"])) / (2.0 * _Z95)


def wilson_se(outages: int, trials: int) -> float:
    """The SE implied by the Wilson 95% interval of a count, as ``standard_error`` reads it."""
    p, zz = outages / trials, _Z95 * _Z95 / trials
    center = (p + zz / 2.0) / (1.0 + zz)
    half = (_Z95 / (1.0 + zz)) * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials))
    return (min(1.0, center + half) - max(0.0, center - half)) / (2.0 * _Z95)


def _near_reference(metric: str, p_hat: float, se: float, ref: dict) -> str | None:
    tol = Z * math.hypot(se, ref[f"se_{metric}"])
    if not abs(p_hat - ref[f"p_{metric}"]) <= tol:
        return (f"p_{metric}_hat={p_hat!r} is more than {Z} SE from the reference "
                f"{ref[f'p_{metric}']!r} (tolerance {tol:.3g})")
    return None


def check_estimate(row: dict, ref: dict) -> str | None:
    """Each outage estimate lies within Z combined standard errors of its reference."""
    for metric in ("t", "s"):
        problem = _near_reference(metric, float(row[f"p_{metric}_hat"]),
                                  standard_error(row, metric), ref)
        if problem:
            return problem
    return None


class PooledEstimates:
    """Outage counts of each reference point, summed over every completed call of a run.

    Units use independent seeds, so the pooled estimate has a standard error
    about sqrt(units) times smaller than one call's: a bias too small for the
    per-call check still shows here.
    """

    def __init__(self):
        self.counts = {}

    def add(self, estimates) -> None:
        for index, trials, out_t, out_s in estimates:
            total = self.counts.setdefault(index, [0, 0, 0])
            total[0] += trials
            total[1] += out_t
            total[2] += out_s

    def check(self, points: list) -> str | None:
        """The pooled estimate of each point lies within Z combined SE of its reference."""
        for index, (trials, out_t, out_s) in sorted(self.counts.items()):
            for metric, outages in (("t", out_t), ("s", out_s)):
                problem = _near_reference(metric, outages / trials, wilson_se(outages, trials),
                                          points[index])
                if problem:
                    return (f"pooled over {trials} trials at gamma_e="
                            f"{points[index]['gamma_e']}: {problem}")
        return None


def _same_number(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=BOUND_REL_TOL, abs_tol=1e-300)


def check_bounds(row: dict, ref: dict | None) -> str | None:
    """Bound cells match the reference; rows without one must be plausible probabilities.

    The CSV does not carry the secrecy bound's saturated flag.  Its raw value
    2x - x^2 never exceeds 1 and drops below 0 only for x > 2, i.e. when
    saturated, so without a reference bound_s must be finite and at most 1.
    """
    if row.get("feasible") == "error":
        return "error cell"
    if ref is not None:
        for col in BOUND_COLUMNS:
            if not _same_number(row[col], ref[col]):
                return f"{col}={row[col]!r} differs from the reference {ref[col]!r}"
        return None
    try:
        bound_t, bound_s = float(row["bound_t"]), float(row["bound_s"])
        if not (math.isfinite(bound_t) and 0.0 <= bound_t <= 1.0):
            return f"bound_t={row['bound_t']!r} is not a probability"
        if not (math.isfinite(bound_s) and bound_s <= 1.0):
            return f"bound_s={row['bound_s']!r} is neither a probability nor saturated"
        for col in ("tau_min", "tau_max", "max_m"):
            if row[col] and not float(row[col]) >= 0.0:
                return f"{col}={row[col]!r} is negative or nan"
    except ValueError as exc:
        return f"unreadable bound cell: {exc}"
    if row["feasible"] not in ("true", "false"):
        return f"feasible={row['feasible']!r}"
    return None


class Workload:
    """Base: a warm-up call, units of calls, and the check of one call's output."""

    name = ""
    warmup: tuple = ()
    speed_kernel = "python"  # the hostspeed kernel doing the same kind of work

    def unit(self, rng: random.Random) -> list:
        raise NotImplementedError

    def probes(self) -> list:
        """Untimed calls run once per run; only bounds-table has them."""
        return []

    def check(self, op: Op, text: str, ref: dict) -> Outcome:
        raise NotImplementedError


class SweepWorkload(Workload):
    name = "sweep-gamma"
    warmup = ("sweep", *SWEEP_GAMMA, "--trials", "64", "--seed", "0")
    speed_kernel = "numpy"

    def unit(self, rng):
        seed = rng.randrange(2**31)
        argv = ("sweep", *SWEEP_GAMMA, "--trials", str(SWEEP_TRIALS), "--seed", str(seed))
        return [Op(argv, self.name, seed, SWEEP_TRIALS)]

    def check(self, op, text, ref):
        rows = parse_csv(text)
        points = ref[self.name]["points"]
        out = Outcome(len(rows), trials=sum(int(r["trials"] or 0) for r in rows),
                      bound_rows=sum(1 for r in rows if r["bound_t"]))
        if len(rows) != len(points):
            out.problem = f"expected {len(points)} rows, got {len(rows)}"
            return out
        for row, point in zip(rows, points):
            problem = None
            if not _same_number(row["gamma_e"], point["gamma_e"]):
                problem = f"gamma_e={row['gamma_e']} is not the reference grid"
            elif (row["trials"], row["seed"]) != (str(op.trials), str(op.seed)):
                problem = f"row echoes trials={row['trials']} seed={row['seed']}"
            else:
                problem = check_estimate(row, point) or check_bounds(row, point["bounds"])
            if problem:
                out.problem = f"gamma_e={row['gamma_e']}: {problem}"
                return out
        if len({row["p_t_hat"] for row in rows}) != 1:
            out.problem = "p_t_hat varies with gamma_e"
        elif any(float(b["p_s_hat"]) > float(a["p_s_hat"]) for a, b in zip(rows, rows[1:])):
            out.problem = "p_s_hat increases with gamma_e"
        out.estimates = tuple(
            (index, op.trials, round(float(row["p_t_hat"]) * op.trials),
             round(float(row["p_s_hat"]) * op.trials))
            for index, row in enumerate(rows))
        return out


class BoundsTableWorkload(Workload):
    name = "bounds-table"
    warmup = ("bounds", "--case", "equal", "--n", "10", "--m", "10", "--k", "1", *BOUNDS_COMMON)

    @staticmethod
    def _row(case: str, n: int, m: int, k: int, extra: tuple = ()) -> Op:
        argv = ("bounds", "--case", case, "--n", str(n), "--m", str(m), "--k", str(k),
                *extra, *BOUNDS_COMMON)
        return Op(argv, " ".join(argv[1:]))

    def grid(self) -> list:
        ops = [self._row("equal", n, m, k)
               for n in BOUNDS_N for m in BOUNDS_EQUAL_M for k in BOUNDS_K]
        for n in BOUNDS_N:
            for k in BOUNDS_K:
                for r in BOUNDS_R:
                    for alpha, delta in BOUNDS_ALPHA_DELTA:
                        extra = ("--r", repr(r), "--alpha", repr(alpha), "--delta", repr(delta))
                        ops.append(self._row("general", n, 10, k, extra))
        return ops

    def _timed(self, op: Op) -> bool:
        return op.argv[2] == "equal" or int(op.argv[4]) <= GENERAL_TIMED_MAX_N

    def unit(self, rng):
        ops = [op for op in self.grid() if self._timed(op)]
        rng.shuffle(ops)
        return ops

    def probes(self):
        return [op for op in self.grid() if not self._timed(op)]

    def check(self, op, text, ref):
        rows = parse_csv(text)
        if len(rows) != 1:
            return Outcome(len(rows), f"expected 1 CSV row, got {len(rows)}")
        return Outcome(1, check_bounds(rows[0], ref[self.name][op.key]), bound_rows=1)


# sweep-gamma and bounds-table between them reach every traced module.  The
# single-point simulate workloads (equal n=m=200, general n=100 m=50) are left
# out: on a 2-vCPU host whose speed drifts over tens of seconds their 10-run
# spreads were too wide to gate on at a run length the time budget allows.
WORKLOADS = {w.name: w for w in (SweepWorkload(), BoundsTableWorkload())}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
