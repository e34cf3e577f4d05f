"""Coupled mean-field / pairing gap equations.

Scalar Fermi-surface solver (:mod:`gapforge.scalar_gap`), closed-form
asymptotic regimes (:mod:`gapforge.asymptotics`), thermal mode expectations
(:mod:`gapforge.thermal`), momentum-resolved kernels
(:mod:`gapforge.kernel_solver`), phase maps and scans
(:mod:`gapforge.phase_diagram`), and the ``gapforge`` command line
(:mod:`gapforge.cli`).
"""

from .core_types import (
    BogoliubovCoefficients,
    GapSolution,
    ModelParams,
    PhaseLabel,
    SolveReport,
    solution_checks,
    validate,
)
from .errors import GapEquationError, NotConverged
from .phase_diagram import MultiplicityClass, RegionLabel, classify_region, multiplicity_class, scan
from .scalar_gap import (
    critical_temperature,
    effective_energy,
    equilibrium_mu,
    mean_field_gap_given_w,
    pairing_energy_roots,
    pure_mean_field,
    recover_delta_b,
    solve_all,
)

__version__ = "0.1.0"

__all__ = [
    "BogoliubovCoefficients",
    "GapEquationError",
    "GapSolution",
    "ModelParams",
    "MultiplicityClass",
    "NotConverged",
    "PhaseLabel",
    "RegionLabel",
    "SolveReport",
    "classify_region",
    "critical_temperature",
    "effective_energy",
    "equilibrium_mu",
    "mean_field_gap_given_w",
    "multiplicity_class",
    "pairing_energy_roots",
    "pure_mean_field",
    "recover_delta_b",
    "scan",
    "solution_checks",
    "solve_all",
    "validate",
    "__version__",
]
