"""Exact exterior-algebra calculus over flat (k, n) space-times.

The package builds multivector fields with rational polynomial
components, differentiates them with the exterior, interior, and tensor
derivatives, and derives Euler-Lagrange field equations from quadratic
Lagrangian densities.  Everything is exact; no floats are accepted
anywhere.
"""

from .blades import AlgebraError, GradeError, Metric, Multivector
from .calculus import (
    check_laplacian_splitting,
    directional_deriv,
    divergence_scalar,
    ext_deriv,
    int_deriv,
    laplacian,
    matrix_divergence,
    right_int_deriv,
    tensor_deriv,
)
from .em import (
    MaxwellConfig,
    build_dual_lagrangian,
    build_lagrangian,
    derive_equations,
    dual_field,
    dual_gauge_check,
    dual_theory,
    field_from_potential,
    gauge_transform,
    homogeneous_check,
    polarization_count,
    wave_form,
)
from .eqdoc import doc_to_equation, equation_to_doc
from .indexes import complement, merge_signature, sort_signature
from .matrices import MvMatrix, mat_vec, vec_mat
from .parser import ExprError, parse_expr, parse_lagrangian
from .poly import PolyScalar
from .randgen import random_field, rng_for
from .variational import (
    DerivOp,
    FieldEquation,
    FieldSymbol,
    FormalExpr,
    LagrangianDensity,
    euler_lagrange_exterior,
    euler_lagrange_tensor,
    first_variation,
    tensor_slot_matrix,
    vderiv,
    verify_tensor_exterior_identity,
)

__version__ = "0.1.0"


def __getattr__(name):  # verify loads on first use, so that import mvcalc stays light
    if name in ("format_report", "run_suites"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), "format_report", "run_suites"])


__all__ = [
    "AlgebraError",
    "DerivOp",
    "ExprError",
    "FieldEquation",
    "FieldSymbol",
    "FormalExpr",
    "GradeError",
    "LagrangianDensity",
    "MaxwellConfig",
    "Metric",
    "Multivector",
    "MvMatrix",
    "PolyScalar",
    "build_dual_lagrangian",
    "build_lagrangian",
    "check_laplacian_splitting",
    "complement",
    "derive_equations",
    "directional_deriv",
    "divergence_scalar",
    "doc_to_equation",
    "dual_field",
    "dual_gauge_check",
    "dual_theory",
    "equation_to_doc",
    "euler_lagrange_exterior",
    "euler_lagrange_tensor",
    "ext_deriv",
    "field_from_potential",
    "first_variation",
    "format_report",
    "gauge_transform",
    "homogeneous_check",
    "int_deriv",
    "laplacian",
    "mat_vec",
    "matrix_divergence",
    "merge_signature",
    "parse_expr",
    "parse_lagrangian",
    "polarization_count",
    "random_field",
    "right_int_deriv",
    "rng_for",
    "run_suites",
    "sort_signature",
    "tensor_deriv",
    "tensor_slot_matrix",
    "vderiv",
    "vec_mat",
    "verify_tensor_exterior_identity",
    "wave_form",
    "__version__",
]
