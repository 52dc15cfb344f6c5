"""Simulation and closed-form analysis of a secure two-hop relay protocol.

The protocol picks a relay uniformly among the k relays with the largest
bottleneck channel gain inside a disc of radius r between source and
destination, while non-selected relays with weak channels to the legitimate
receiver jam eavesdroppers.  This package executes the protocol by Monte
Carlo over random networks with Rayleigh fading, evaluates the matching
closed-form transmission/secrecy outage bounds, and cross-checks the two.
"""

from .model import Case, ProtocolParams
from .montecarlo import compare, estimate
from .reports import evaluate_bounds

__version__ = "0.1.0"
