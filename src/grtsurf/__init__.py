"""Generalized Ribaucour-type surfaces: construction, meshing, verification.

A surface with prescribed unit normal N = (2g, 1-|g|^2)/(1+|g|^2) and support
function h = ell(Re f), for holomorphic f, g and a twice differentiable real
profile ell, admits a closed-form parameterization.  This package parses the
three input functions, evaluates every pointwise quantity of that
representation (Weingarten matrix, curvatures, fundamental forms), samples
meshes, and verifies the defining identities numerically against an
independent finite-difference oracle.
"""

from .expr import (EvalError, ExprError, Jet2, ParseError,
                   UnknownIdentifierError, differentiate, eval_jet2, evaluate,
                   parse_expr, simplify, unparse)
from .geometry import inner
from .surface import (EmptyMeshError, SurfaceMesh, SurfaceSpec, rotation_spec,
                      sample_mesh, sample_rotation_mesh)
from .verify import ResidualReport, convergence_order, run_checks

__version__ = "0.1.0"

__all__ = [
    "EvalError", "ExprError", "Jet2", "ParseError", "UnknownIdentifierError",
    "differentiate", "eval_jet2", "evaluate", "parse_expr", "simplify",
    "unparse",
    "inner",
    "EmptyMeshError", "SurfaceMesh", "SurfaceSpec", "rotation_spec",
    "sample_mesh", "sample_rotation_mesh",
    "ResidualReport", "convergence_order", "run_checks",
    "__version__",
]
