"""Pressure-robust staggered DG discretization of the Stokes equations on
convex polygonal meshes, with an H(div) velocity reconstruction in the load
term (method "sdg1") next to the plain piecewise-constant load ("sdg2")."""

from .assembly import SaddleSystem, assemble_system
from .bench import ErrorRecord, convergence_study, robustness_sweep, run_case
from .cases import case_noflow, case_taylor, case_trig, get_case
from .mesh import (PrimalMesh, StaggeredMesh, build_staggered,
                   generate_polygonal, generate_trapezoidal,
                   generate_triangular, read_mesh, validate, write_mesh)
from .solver import FieldSolution, SolverError, solve
from .spaces import (GradientField, PressureField, VelocityField,
                     interp_gradient, interp_pressure, interp_velocity)

__version__ = "0.1.0"

__all__ = [
    "SaddleSystem", "assemble_system",
    "ErrorRecord", "convergence_study", "robustness_sweep", "run_case",
    "case_noflow", "case_taylor", "case_trig", "get_case",
    "PrimalMesh", "StaggeredMesh", "build_staggered",
    "generate_polygonal", "generate_trapezoidal", "generate_triangular",
    "read_mesh", "validate", "write_mesh",
    "FieldSolution", "SolverError", "solve",
    "GradientField", "PressureField", "VelocityField",
    "interp_gradient", "interp_pressure", "interp_velocity",
    "__version__",
]
