"""Bound states of the semi-infinite square well.

A particle confined by a hard wall at x = 0 and a potential step of
height V0 at x = a.  The package solves the bound-state eigenvalue
problem in dimensionless form, counts states exactly, builds normalized
eigenfunctions, exposes the closed-form solvable family of wells, and
dissects common sign mistakes in the graphical solution.
"""

from .dimensionless import (
    BoundState,
    WellStrength,
    cot,
    residual_exact,
    residual_interval,
    strength_value,
)
from .errors import ConvergenceError, DomainError
from .exact import ExactSolutionRecord, cross_validate, exact_solution
from .output import CurveKind, OutputDocument, emit_curves, format_float, serialize
from .solver import (
    NewtonTrace,
    SolveConfig,
    Spectrum,
    count_bound_states,
    newton_solve,
    solve_all,
    solve_spectrum,
)
from .units import (
    ELECTRON_MASS_SI,
    EV_SI,
    HBAR_SI,
    NM_SI,
    PhysicalWell,
    critical_depth,
    energy_from_z,
    strength_from_physical,
)
from .variants import (
    Intersection,
    VariantKind,
    VariantReport,
    enumerate_intersections,
    filtered_equivalence,
    variant_residual,
)
from .wavefunction import (
    WavefunctionSpec,
    build_wavefunction,
    evaluate,
    probability_inside,
    quadrature_norm_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundState",
    "ConvergenceError",
    "CurveKind",
    "DomainError",
    "ELECTRON_MASS_SI",
    "EV_SI",
    "ExactSolutionRecord",
    "HBAR_SI",
    "Intersection",
    "NM_SI",
    "NewtonTrace",
    "OutputDocument",
    "PhysicalWell",
    "SolveConfig",
    "Spectrum",
    "VariantKind",
    "VariantReport",
    "WavefunctionSpec",
    "WellStrength",
    "build_wavefunction",
    "cot",
    "count_bound_states",
    "critical_depth",
    "cross_validate",
    "emit_curves",
    "energy_from_z",
    "enumerate_intersections",
    "evaluate",
    "exact_solution",
    "filtered_equivalence",
    "format_float",
    "newton_solve",
    "probability_inside",
    "quadrature_norm_check",
    "residual_exact",
    "residual_interval",
    "serialize",
    "solve_all",
    "solve_spectrum",
    "strength_from_physical",
    "strength_value",
    "variant_residual",
    "__version__",
]
