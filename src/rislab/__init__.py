"""Numerical laboratory for finite-dimensional rate-independent systems.

The package builds exact piecewise-affine paths, evaluates dissipation
potentials and contact costs in closed form, certifies candidate solutions
against four solution concepts, constructs parametrized tuples from local
solutions, and cross-checks everything against a viscosity-regularized
solver.
"""

from .checkers import (
    CheckReport,
    ConditionResult,
    IncreasingSet,
    check_differential,
    check_local,
    check_normalized_pbv,
    check_relaxed,
    energy_residual,
    increasing_set,
)
from .construction import (
    ConstructionResult,
    JumpDecomposition,
    build_load_hat,
    build_parametrization,
    construct_relaxed_from_local,
    diss0,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    PreconditionError,
    RislabError,
    SolverError,
)
from .kernels import (
    ContactPotentialValue,
    Dissipation,
    contact_potential,
    polyhedral,
    scaled_norm,
    weighted_l1,
)
from .model import (
    EnergyModel,
    ParametrizedTuple,
    RISProblem,
    make_energy,
)
from .paths import (
    ConvergenceDiagnostics,
    LipschitzPath,
    PiecewisePath,
    compose_monotone,
    convergence_diagnostics,
    dissipation,
    from_csv,
    kurzweil_stieltjes,
    l1_distance,
    merge_breakpoints,
    path_difference,
    sup_distance,
    to_csv,
    total_variation,
)
from .viscous import ViscousTrajectory, reparametrize, solve_viscous

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ConditionResult",
    "ConfigError",
    "ConstructionError",
    "ConstructionResult",
    "ContactPotentialValue",
    "ConvergenceDiagnostics",
    "Dissipation",
    "DomainError",
    "EnergyModel",
    "IncreasingSet",
    "JumpDecomposition",
    "LipschitzPath",
    "ParametrizedTuple",
    "PiecewisePath",
    "PreconditionError",
    "RISProblem",
    "RislabError",
    "SolverError",
    "ViscousTrajectory",
    "build_load_hat",
    "build_parametrization",
    "check_differential",
    "check_local",
    "check_normalized_pbv",
    "check_relaxed",
    "compose_monotone",
    "construct_relaxed_from_local",
    "contact_potential",
    "convergence_diagnostics",
    "diss0",
    "dissipation",
    "energy_residual",
    "from_csv",
    "increasing_set",
    "kurzweil_stieltjes",
    "l1_distance",
    "make_energy",
    "merge_breakpoints",
    "path_difference",
    "polyhedral",
    "reparametrize",
    "scaled_norm",
    "solve_viscous",
    "sup_distance",
    "to_csv",
    "total_variation",
    "weighted_l1",
]
