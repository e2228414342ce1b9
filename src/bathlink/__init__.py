"""Qubit-oscillator pair damped by a common thermal bath.

Builds the Markovian (GKSL) generator of the pair, integrates the dynamics,
and computes entanglement (negativity), mutual information, quantum
discord, and the short-time entanglement-generation witness.
"""

from .correlations import (
    Correlations,
    discord,
    mutual_information,
    negativity,
)
from .dynamics import (
    Trajectory,
    evolve_exact,
    evolve_rk,
    product_state,
    trajectory_to_csv,
    validate_density_matrix,
)
from .errors import (
    ConfigError,
    DegenerateSteadyStateError,
    NumericalInvariantError,
    StabilityError,
)
from .model import (
    Liouvillian,
    ModelParams,
    SteadyStateResult,
    build_liouvillian,
    hamiltonian,
    kossakowski_matrix,
    rates_from_temperature,
    steady_state_analytic,
    steady_state_numeric,
)
from .witness import (
    RegionScan,
    WitnessReport,
    dxi0_general,
    dxi0_quadratic,
    is_entangling,
    region_scan,
    witness_vector,
    xi,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Correlations",
    "DegenerateSteadyStateError",
    "Liouvillian",
    "ModelParams",
    "NumericalInvariantError",
    "RegionScan",
    "StabilityError",
    "SteadyStateResult",
    "Trajectory",
    "WitnessReport",
    "build_liouvillian",
    "discord",
    "dxi0_general",
    "dxi0_quadratic",
    "evolve_exact",
    "evolve_rk",
    "hamiltonian",
    "is_entangling",
    "kossakowski_matrix",
    "mutual_information",
    "negativity",
    "product_state",
    "rates_from_temperature",
    "region_scan",
    "steady_state_analytic",
    "steady_state_numeric",
    "trajectory_to_csv",
    "validate_density_matrix",
    "witness_vector",
    "xi",
]
