"""Primal-dual weak Galerkin finite elements for linear transport problems.

The package discretizes the first-order equation

    div(beta u) + c u = f   in Omega,      u = g   on the inflow boundary,

with a fully discontinuous primal unknown and a weak-function Lagrange
multiplier coupled through a symmetric saddle-point system.  Submodules:

- ``mesh``       triangulations of the benchmark domains and refinement
- ``poly``       polynomial bases and quadrature rules
- ``weakspace``  degrees of freedom, projection into the weak space and
                 the discrete weak gradient
- ``assembly``   element tables, inflow/outflow classification, local
                 forms and the global saddle-point system
- ``solver``     static condensation, nested-dissection sparse LU, residual checks
- ``analysis``   error norms, conservation checks, post-processing
- ``fields``     closed-form coefficient fields and piecewise composition
- ``catalog``    the benchmark experiment catalog
- ``study``      refinement-study driver and CSV emission
- ``cli``        the ``pdwg`` command line tool
"""

from .mesh import BoundaryClassification, Mesh, build_coarse_mesh, refine_uniform
from .weakspace import DofMap
from .assembly import ProblemSpec, SaddleSystem, assemble, build_contexts, classify_boundary
from .solver import Solution, SolverError, solve
from .catalog import catalog, get_experiment
from .study import StudyReport, emit_csv, emit_plot_data, run_study

__all__ = [
    "BoundaryClassification",
    "DofMap",
    "Mesh",
    "ProblemSpec",
    "SaddleSystem",
    "Solution",
    "SolverError",
    "StudyReport",
    "assemble",
    "build_coarse_mesh",
    "build_contexts",
    "catalog",
    "classify_boundary",
    "emit_csv",
    "emit_plot_data",
    "get_experiment",
    "refine_uniform",
    "run_study",
    "solve",
]

__version__ = "0.1.0"
