"""CLI output pinned byte for byte.

Each golden file lists command lines (``$ twohopsec ...``), each followed by
what that command prints:

- ``golden/bounds_rows.txt``: the CSV data row of a ``bounds`` run.  The rows
  cover both path-loss cases, feasible and infeasible tau windows, an
  unbounded tolerance, m = 0, k = n, radii past the inscribed disc up to inf,
  d0 = 0 and n = 3000.
- ``golden/cli_output.txt``: the whole transcript of a run of any command:
  stdout as printed, then each stderr line prefixed with ``! ``, then
  ``[exit N]`` with the code ``main`` returned or the ``SystemExit`` code of
  an argument-parser exit.  The entries cover every command name with and
  without ``--report`` in both cases, general k just below n, sweep error rows,
  ``--no-bounds``/``--no-sim`` sweeps, rejected runs (exit 2 and 3) and the
  parser's own paths: no command, an unknown command or flag, a bad or
  missing flag value, a flag before the command, an abbreviated flag,
  ``--``, a stray positional and ``-h``.  Parser messages are wrapped at
  ``COLUMNS=80``.

Regenerate both with ``PYTHONPATH=src python tests/test_golden_bounds.py``
only when a change to the output is intended; it prints the command line of
every entry whose output changed, with the largest relative change of any
number in it and every other cell that changed, so a re-pin shows exactly
what moved and by how much.  A new entry is one more command line followed
by nothing.
"""

import contextlib
import io
import math
import os
import random
import re
import shlex
from pathlib import Path

import pytest

from twohopsec import bounds_general as bgen
from twohopsec.cli import main
from twohopsec.model import Case, ProtocolParams
from twohopsec.reports import evaluate_bounds

GOLDEN = Path(__file__).parent / "golden" / "bounds_rows.txt"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli_output.txt"
PROMPT = "$ twohopsec "
COLUMNS = "80"  # argparse wraps usage and help lines at the terminal width


def read_golden(path=GOLDEN):
    """(args, body) per entry: a command line, then every line up to the next one."""
    entries = []
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith(PROMPT):
            entries.append((line[len(PROMPT):].rstrip("\n"), []))
        else:
            entries[-1][1].append(line)
    return [(args, "".join(body)) for args, body in entries]


def data_row(args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(args)) == 0
    return out.getvalue().splitlines()[-1] + "\n"


def transcript(args: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(args))
        except SystemExit as exc:  # the argument parser's -h and usage errors
            code = exc.code
    stderr = "".join("! " + line for line in err.getvalue().splitlines(keepends=True))
    return f"{out.getvalue()}{stderr}[exit {code}]\n"


_CELL_SEP = re.compile(r"[\s,=\[\]{}()]")  # one cell per CSV comma, so empty cells count


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def describe_move(old: str, new: str) -> str:
    """The largest relative change of a number between two outputs, and every other change.

    Both outputs are split into cells at whitespace, commas, ``=`` and
    brackets.  A change from 0, or from or to inf or nan, counts as relative
    change inf.
    """
    if not old:
        return "new entry"
    old_cells, new_cells = _CELL_SEP.split(old), _CELL_SEP.split(new)
    if len(old_cells) != len(new_cells):
        return f"NON-NUMERIC CHANGE: {len(old_cells)} cells -> {len(new_cells)}"
    largest, other = 0.0, []
    for a, b in zip(old_cells, new_cells):
        x, y = _number(a), _number(b)
        if a == b or x is not None and x == y:
            continue
        if x is None or y is None:
            other.append(f"{a!r} -> {b!r}")
        elif x == 0.0 or not (math.isfinite(x) and math.isfinite(y)):
            largest = math.inf
        else:
            largest = max(largest, abs(y - x) / abs(x))
    text = f"largest relative change {largest:.2g}"
    return f"{text}; NON-NUMERIC CHANGE: {', '.join(other)}" if other else text


def write_golden(path, render) -> None:
    """Re-render every entry of ``path`` and print each that moved, with how far."""
    entries = [(args, old, render(args)) for args, old in read_golden(path)]
    for args, old, new in entries:
        if new != old:
            print(f"{path.name}: {PROMPT}{args}\n    {describe_move(old, new)}")
    path.write_text("".join(f"{PROMPT}{args}\n{new}" for args, _, new in entries))


@pytest.mark.parametrize("args, row", read_golden(), ids=[a for a, _ in read_golden()])
def test_bounds_row(args, row):
    assert data_row(args) == row


def test_every_entry_is_a_command_and_a_row():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) % 2 == 0
    assert all(cmd.startswith(PROMPT + "bounds") for cmd in lines[::2])
    assert not any(row.startswith(PROMPT) for row in lines[1::2])


def test_bound_caches_are_transparent():
    """Every row prints the same from cold bound caches and from warm ones, in any order."""
    rng, golden = random.Random(20131), read_golden()
    bgen.geometry_integrals.cache_clear()
    bgen.region_sums.cache_clear()
    for _ in ("cold", "warm"):
        entries = rng.sample(golden, len(golden))
        assert [data_row(args) for args, _ in entries] == [row for _, row in entries]
    # exceptions are never cached: a rejected input raises on every repeat
    too_wide = ProtocolParams(n=10, m=1, k=3, r=0.3, tau=0.2, gamma_r=1.0, gamma_e=1.0,
                              d0=0.6, case=Case.DISTANCE_DEPENDENT)
    bgen.region_sums(4, 2, 0.3)
    for _ in range(3):
        with pytest.raises(ValueError, match="exceeds 1"):
            evaluate_bounds(too_wide, 0.19, 0.19)
        with pytest.raises(ValueError, match="k must satisfy"):
            bgen.region_sums(4, 5, 0.3)
        # the cache keys on argument types: a float k is no hit for the int one
        with pytest.raises(TypeError):
            bgen.region_sums(4, 2.0, 0.3)


@pytest.mark.parametrize("old, new, text", [
    ("a,0.5,x\n", "a,0.5000001,x\n", "largest relative change 2e-07"),
    ("[1.0, inf]  feasible=true\n", "[1.0, 0.25]  feasible=false\n",
     "largest relative change inf; NON-NUMERIC CHANGE: 'true' -> 'false'"),
    ("a,,1\n", "a,2,1\n", "largest relative change 0; NON-NUMERIC CHANGE: '' -> '2'"),
    ("1.0,2\n", "1,2,3\n", "NON-NUMERIC CHANGE: 3 cells -> 4"),
    ("", "1,2\n", "new entry"),
], ids=["last-digits", "window", "empty-cell", "new-cell", "new-entry"])
def test_a_moved_entry_is_described_by_its_largest_change(old, new, text):
    assert describe_move(old, new) == text


@pytest.mark.parametrize("args, expected", read_golden(CLI_GOLDEN),
                         ids=[a for a, _ in read_golden(CLI_GOLDEN)])
def test_cli_output(args, expected, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert transcript(args) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    write_golden(GOLDEN, data_row)
    write_golden(CLI_GOLDEN, transcript)
