"""The benchmark's trace hooks still find every function they wrap.

``perfbench/tracing.py`` wraps functions of the package by name, from
outside it.  A rename inside the package would otherwise show up only in a
traced benchmark run (``perfbench/run.py --trace 1``).
"""

import contextlib
import io
from pathlib import Path

from twohopsec import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_one_equal_and_one_general_bounds_call_span_every_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (cli.estimate, cli.evaluate_bounds)
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bounds"]) == 0
            assert cli.main(["bounds", "--case", "general", "--r", "0.3"]) == 0
    finally:
        tracer.uninstall()
    assert (cli.estimate, cli.evaluate_bounds) == originals
    names = {span[2] for span in tracer.spans}
    expected = {"reports.evaluate_bounds", "bounds_general.geometry_integrals"}
    expected |= {f"bounds_general.{fn}" for fn in tracing.BOUNDS_GENERAL}
    expected |= {f"bounds_equal.{fn}" for fn in tracing.BOUNDS_EQUAL}
    assert expected <= names, sorted(expected - names)
