"""`bounds` CSV rows pinned byte for byte.

``golden/bounds_rows.txt`` lists command lines (``$ twohopsec ...``), each
followed by the CSV data row it prints.  The rows cover both path-loss cases,
feasible and infeasible tau windows, an unbounded tolerance, m = 0, k = n,
``--exact-region``, d0 = 0 and n = 3000.  Regenerate the file with
``PYTHONPATH=src python tests/test_golden_bounds.py`` only when a change to
the bound cells is intended.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from twohopsec.cli import main

GOLDEN = Path(__file__).parent / "golden" / "bounds_rows.txt"
PROMPT = "$ twohopsec "


def read_golden():
    lines = GOLDEN.read_text().splitlines()
    return [(cmd[len(PROMPT):], row) for cmd, row in zip(lines[::2], lines[1::2])]


def data_row(args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(args)) == 0
    return out.getvalue().splitlines()[-1]


@pytest.mark.parametrize("args, row", read_golden(), ids=[a for a, _ in read_golden()])
def test_bounds_row(args, row):
    assert data_row(args) == row


def test_every_entry_is_a_command_and_a_row():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) % 2 == 0
    assert all(cmd.startswith(PROMPT + "bounds") for cmd in lines[::2])
    assert not any(row.startswith(PROMPT) for row in lines[1::2])


if __name__ == "__main__":
    entries = read_golden()
    GOLDEN.write_text("".join(f"{PROMPT}{args}\n{data_row(args)}\n" for args, _ in entries))
