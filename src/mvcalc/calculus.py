"""Differential operators on multivector fields.

A field is a Multivector whose coefficients are PolyScalar polynomials
in the coordinates x0..x(d-1) (plain rational coefficients count as
constant fields).  With D_ii the metric sign of axis i and s(.,.) the
merge signature, the derivative operator acts in four ways:

    exterior    ext_deriv(a)    = sum_{i not in I} D_ii s(i,I) d_i a_I e_{i+I}
    interior    int_deriv(a)    = sum_{i in I} s(I\\i, i) d_i a_I e_{I\\i}
    tensor      tensor_deriv(a) = sum_{i,I} D_ii d_i a_I w_{i,I}
    laplacian   laplacian(a)    = sum_i D_ii d_i^2 a_I e_I   (component-wise)

plus the right-acting interior derivative

    right_int_deriv(a) = sum_{i in I} s(i, I\\i) d_i a_I e_{I\\i}

which satisfies int_deriv(a) == (-1)^(gr(a)+1) right_int_deriv(a), and
the divergence of a row-grade-1 matrix field

    matrix_divergence(B) = sum_{i,J} d_i b_{i,J} e_J.

Both exterior and interior derivatives are nilpotent.  The two second
derivatives split the Laplacian with a grade-dependent sign:

    int_deriv(ext_deriv(a)) - ext_deriv(int_deriv(a)) = (-1)^gr(a) laplacian(a)

(verified symbolically by the verification suite; wave-equation
rewriting refuses to run unless this check passes for its shape).

Fields are blade-mask dicts.  Each operator lowers the monomials of every
polynomial component (``poly._lower_into``) straight into the exponent
dict of its output blade, and builds each output polynomial once.  ``d^``
and ``d_|`` visit only the axes with a term (``indexes._STEPS``).
"""

from __future__ import annotations

from .blades import GradeError, Metric, Multivector, require
from .indexes import _STEPS, _left_rule, _wedge_rule
from .matrices import MvMatrix
from .poly import PolyScalar, _lower_into, partial


def _polys(nvars: int, out: dict) -> dict:
    """A key -> exponent dict map as key -> polynomial, empty dicts dropped."""
    return {key: PolyScalar._make(nvars, terms) for key, terms in out.items() if terms}


def _vector_deriv(field: Multivector, rule, time_flip: bool, shift: int) -> Multivector:
    """sum_i rule(e_i, d_i field), of grade gr + ``shift``, run with no time-like axes;
    D_ii if ``time_flip``."""
    metric, out = require(field).metric, {}
    dim, k = metric.dim, metric.k if time_flip else 0
    for mask, coeff in field._terms.items():
        if isinstance(coeff, PolyScalar):
            for i, odd, hit in _STEPS[rule, dim, mask]:
                _lower_into(out.setdefault(hit, {}), coeff._terms, i, odd ^ (i < k))
    return Multivector._make(metric, field.grade + shift, _polys(dim, out))


def ext_deriv(field: Multivector) -> Multivector:
    """Exterior derivative; raises the grade by one (zero at top grade)."""
    return _vector_deriv(field, _wedge_rule, True, 1)


def int_deriv(field: Multivector) -> Multivector:
    """Interior derivative; lowers the grade by one (zero at grade 0)."""
    # the contraction's D_ii cancels the D_ii of the reciprocal frame
    return _vector_deriv(field, _left_rule, False, -1)


def right_int_deriv(field: Multivector) -> Multivector:
    """Right-acting interior derivative (the field contracted from the right).

    Same index sums as ``int_deriv`` but with the removed axis merged in
    from the left, so the two differ by (-1)^(gr-1).
    """
    inner = int_deriv(field)
    return inner if field.grade & 1 else -inner


def tensor_deriv(field: Multivector) -> MvMatrix:
    """Tensor derivative: row grade 1 matrix of all first partials."""
    dim, k, out = require(field).metric.dim, field.metric.k, {}
    for mask, coeff in field._terms.items():
        if isinstance(coeff, PolyScalar):
            for i in range(dim):
                out[(1 << i, mask)] = _lower_into({}, coeff._terms, i, i < k)
    return MvMatrix._make(field.metric, 1, field.grade, _polys(dim, out))


def laplacian(field: Multivector) -> Multivector:
    """Component-wise d'Alembertian sum_i D_ii d_i^2, grade unchanged."""
    dim, k, out = require(field).metric.dim, field.metric.k, {}
    for mask, c in field._terms.items():
        if isinstance(c, PolyScalar):
            for i in range(dim):
                _lower_into(out.setdefault(mask, {}), _lower_into({}, c._terms, i), i, i < k)
    return Multivector._make(field.metric, field.grade, _polys(dim, out))


def matrix_divergence(matrix: MvMatrix) -> Multivector:
    """Divergence of a row-grade-1 matrix field, one grade-m field.

    Contracting the derivative against the row slot cancels the metric
    signs, leaving sum_{i,J} d_i b_{i,J} e_J.
    """
    if require(matrix, MvMatrix).row_grade != 1 and matrix._terms:
        raise GradeError("matrix divergence needs row grade 1")
    out: dict[int, dict] = {}
    for (row, cols), coeff in matrix._terms.items():
        if isinstance(coeff, PolyScalar):
            _lower_into(out.setdefault(cols, {}), coeff._terms, row.bit_length() - 1)
    return Multivector._make(matrix.metric, matrix.col_grade, _polys(matrix.metric.dim, out))


def divergence_scalar(field: Multivector):
    """Divergence of a 1-vector field as a scalar, sum_i d_i v_i; int 0 with no polynomial."""
    require(field, grade=1, what="divergence field")
    terms = None
    for mask, coeff in field._terms.items():
        if isinstance(coeff, PolyScalar):
            terms = _lower_into(terms or {}, coeff._terms, mask.bit_length() - 1)
    return 0 if terms is None else PolyScalar._make(field.metric.dim, terms)


def directional_deriv(direction: Multivector, field: Multivector) -> Multivector:
    """Convective derivative (v . d) a, component-wise sum_i v_i d_i a_I."""
    require(field, metric=require(direction, grade=1, what="direction").metric)
    return Multivector._make(field.metric, field.grade, {
        mask: sum(v * d for unit, v in direction._terms.items()
                  if (d := partial(coeff, unit.bit_length() - 1)))
        for mask, coeff in field._terms.items()})


def check_laplacian_splitting(metric: Metric, grade: int, fields) -> bool:
    """Check int(ext a) - ext(int a) == (-1)^grade laplacian(a) on given fields."""
    sign = -1 if grade & 1 else 1
    for a in fields:
        lhs = int_deriv(ext_deriv(a)) - ext_deriv(int_deriv(a))
        if lhs != sign * laplacian(a):
            return False
    return True
