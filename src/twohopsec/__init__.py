"""Simulation and closed-form analysis of a secure two-hop relay protocol.

The protocol picks a relay uniformly among the k relays with the largest
bottleneck channel gain inside a disc of radius r between source and
destination, while non-selected relays with weak channels to the legitimate
receiver jam eavesdroppers.  This package executes the protocol by Monte
Carlo over random networks with Rayleigh fading, evaluates the matching
closed-form transmission/secrecy outage bounds, and cross-checks the two.
"""

from .bounds_equal import (
    EavesTolerance,
    SaturatingBound,
    max_eaves_equal,
    secrecy_bound_equal,
    tau_max_equal,
    tau_min_equal,
    transmission_bound_equal,
)
from .bounds_general import (
    GeometryIntegrals,
    QuadratureError,
    disc_square_overlap,
    geometry_integrals,
    max_eaves_general,
    nu_coeffs,
    secrecy_bound_general,
    tau_max_general,
    tau_min_general,
    transmission_bound_general,
)
from .model import (
    Case,
    ConfigurationError,
    NetworkInstance,
    ProtocolParams,
    TrialOutcome,
    path_loss,
    realize_network,
    sinr,
)
from .montecarlo import (
    ComparisonRow,
    EstimateReport,
    compare,
    estimate,
    load_balance,
    wilson_interval,
)
from .orderstats import (
    kth_largest_cdf,
    kth_largest_pdf,
    min_pair_cdf,
    min_pair_pdf,
    mixture_cdf,
    sample_topk_random,
    topk_random_cdf,
    topk_random_pdf,
)
from .protocol import (
    CandidateSet,
    execute_trial,
    jammer_set,
    pick_relay,
    region_filter,
    run_trial,
    select_candidates,
)
from .reports import BoundReport, TauWindow, evaluate_bounds

__version__ = "0.1.0"
