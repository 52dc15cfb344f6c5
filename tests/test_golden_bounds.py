"""CLI output pinned byte for byte.

Each golden file lists command lines (``$ twohopsec ...``), each followed by
what that command prints:

- ``golden/bounds_rows.txt``: the CSV data row of a ``bounds`` run.  The rows
  cover both path-loss cases, feasible and infeasible tau windows, an
  unbounded tolerance, m = 0, k = n, ``--exact-region``, d0 = 0 and n = 3000.
- ``golden/cli_output.txt``: the whole transcript of a run of any command:
  stdout as printed, then each stderr line prefixed with ``! ``, then
  ``[exit N]`` with the code ``main`` returned or the ``SystemExit`` code of
  an argument-parser exit.  The entries cover every command name with and
  without ``--report`` in both cases, sweep error rows,
  ``--no-bounds``/``--no-sim`` sweeps, rejected runs (exit 2 and 3) and the
  parser's own paths: no command, an unknown command or flag, a bad or
  missing flag value, a flag before the command, an abbreviated flag,
  ``--``, a stray positional and ``-h``.  Parser messages are wrapped at
  ``COLUMNS=80``.

Regenerate both with ``PYTHONPATH=src python tests/test_golden_bounds.py``
only when a change to the output is intended; it prints the command line of
every entry whose output changed, so a re-pin shows exactly what moved.  A
new entry is one more command line followed by nothing.
"""

import contextlib
import io
import os
import random
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


def write_golden(path, render) -> None:
    """Re-render every entry of ``path`` and print the command line of each that moved."""
    entries = [(args, old, render(args)) for args, old in read_golden(path)]
    for args, old, new in entries:
        if new != old:
            print(f"{path.name}: {PROMPT}{args}")
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
    too_wide = ProtocolParams(n=10, m=1, k=3, r=0.7, tau=0.2, gamma_r=1.0, gamma_e=1.0,
                              case=Case.DISTANCE_DEPENDENT)
    bgen.region_sums(4, 2, 0.3, None)
    for _ in range(3):
        with pytest.raises(ValueError, match="exceeds 1"):
            evaluate_bounds(too_wide, 0.19, 0.19)
        with pytest.raises(ValueError, match="k must satisfy"):
            bgen.region_sums(4, 5, 0.3, None)
        # the cache keys on argument types: a float k is no hit for the int one
        with pytest.raises(TypeError):
            bgen.region_sums(4, 2.0, 0.3, None)


@pytest.mark.parametrize("args, expected", read_golden(CLI_GOLDEN),
                         ids=[a for a, _ in read_golden(CLI_GOLDEN)])
def test_cli_output(args, expected, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    assert transcript(args) == expected


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    write_golden(GOLDEN, data_row)
    write_golden(CLI_GOLDEN, transcript)
