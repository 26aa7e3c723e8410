"""Link-level Monte Carlo simulator for dual-hop amplify-and-forward
MIMO relay networks with matched-filter and regularized zero-forcing
relay beamforming."""

from .beamformers import Scheme
from .channel import NetworkConfig
from .montecarlo import (
    CapacityEstimate,
    SweepRow,
    SweepSpec,
    estimate_ergodic_capacity,
    estimate_upper_bound,
    run_sweep,
)
from .scenario import ScenarioError, list_bundled, load_bundled, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "CapacityEstimate",
    "NetworkConfig",
    "ScenarioError",
    "Scheme",
    "SweepRow",
    "SweepSpec",
    "estimate_ergodic_capacity",
    "estimate_upper_bound",
    "list_bundled",
    "load_bundled",
    "parse_scenario",
    "run_sweep",
]
