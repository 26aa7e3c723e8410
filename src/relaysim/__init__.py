"""Link-level Monte Carlo simulator for dual-hop amplify-and-forward
MIMO relay networks with matched-filter and regularized zero-forcing
relay beamforming."""

from .beamformers import Scheme
from .montecarlo import SweepRow, SweepSpec, run_sweep
from .scenario import ScenarioError, list_bundled, load_bundled, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ScenarioError",
    "Scheme",
    "SweepRow",
    "SweepSpec",
    "list_bundled",
    "load_bundled",
    "parse_scenario",
    "run_sweep",
]
