"""Simulation and closed-form analysis of a secure two-hop relay protocol.

The protocol picks a relay uniformly among the k relays with the largest
bottleneck channel gain inside a disc of radius r between source and
destination, while non-selected relays with weak channels to the legitimate
receiver jam eavesdroppers.  This package executes the protocol by Monte
Carlo over random networks with Rayleigh fading, evaluates the matching
closed-form transmission/secrecy outage bounds, and cross-checks the two.
"""

from .model import Case, ProtocolParams
from .reports import evaluate_bounds

__version__ = "0.1.0"


def __getattr__(name: str):  # the simulator, and with it NumPy, on first use
    if name not in ("compare", "estimate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo

    return getattr(montecarlo, name)
