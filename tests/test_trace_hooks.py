"""The benchmark's trace hooks still find every function they wrap.

``perfbench/tracing.py`` wraps functions of the package by name, from
outside it.  A rename inside the package would otherwise show up only in a
traced benchmark run (``perfbench/run.py --trace 1``).
"""

import contextlib
import io
from pathlib import Path

import pytest

from twohopsec import cli

PERFBENCH = Path(__file__).parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def traced_spans(tracing, *argvs) -> list:
    """The spans of ``cli.main`` calls run under the benchmark's ``Tracer``."""
    originals = (cli.estimate, cli.evaluate_bounds)
    tracer = tracing.Tracer()
    tracer.install(cli)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert (cli.estimate, cli.evaluate_bounds) == originals
    return tracer.spans


def test_one_equal_and_one_general_bounds_call_span_every_bound(tracing):
    spans = traced_spans(tracing, ["bounds"], ["bounds", "--case", "general", "--r", "0.3"])
    names = {span[2] for span in spans}
    expected = {"reports.evaluate_bounds", "bounds_general.geometry_integrals"}
    expected |= {f"bounds_general.{fn}" for fn in tracing.BOUNDS_GENERAL}
    expected |= {f"bounds_equal.{fn}" for fn in tracing.BOUNDS_EQUAL}
    assert expected <= names, sorted(expected - names)


def test_one_general_sweep_call_spans_its_estimate(tracing):
    spans = traced_spans(tracing, ["sweep", "--sweep-param", "gamma_e", "--sweep-from", "0.5",
                                   "--sweep-to", "2", "--sweep-steps", "3", "--case", "general",
                                   "--n", "6", "--m", "3", "--k", "2", "--r", "0.4",
                                   "--trials", "5000", "--seed", "3"])
    attrs = [span[5] for span in spans if span[2] == "montecarlo.estimate"]
    assert len(attrs) == 1
    assert (attrs[0]["trials"], attrs[0]["batches"]) == (5000, 2)
    assert attrs[0]["tracemalloc_peak"] > 0
