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

(checked exactly on sampled fields by the verification suite; wave-equation
rewriting refuses to run unless it holds on six probe fields of its shape).

Each operator but the convective one is one loop over a field's flat keys
(``poly``): x_i's exponent is a shift and a mask away (``poly._AXES``), and
d_i lowers it by a subtract, so each term goes straight to its output key.
``d^`` and ``d_|`` visit only the axes with a term (``indexes._STEPS``),
through ``_DERIVS``: per mask, each axis's field offset, change of key and
sign.  ``tensor_deriv`` fills one row per axis for ``matrices._stack``, and
(v . d) a is ``vec_mat(v, tensor_deriv(a))``, with no loop of its own.
"""

from __future__ import annotations

from .blades import GradeError, Metric, Multivector, require
from .indexes import _STEPS, _Memo, _left_rule, _wedge_rule
from .matrices import MvMatrix, _stack, vec_mat
from .poly import _AXES, _FIELD, PolyScalar


def _steps(rule, dim: int, k: int) -> _Memo:
    """mask -> (x_i's field offset, key change, negate) of each axis i with a term."""
    axes = _AXES[dim, dim]
    return _Memo(lambda mask: tuple((axes[i], hit - mask - (1 << axes[i]), odd ^ (i < k))
                                    for i, odd, hit in _STEPS[rule, dim, mask]))


_DERIVS = _Memo(lambda key: _steps(*key))  # (rule, dim, k) -> _steps


def _vector_deriv(field: Multivector, rule, time_flip: bool, shift: int) -> Multivector:
    """sum_i rule(e_i, d_i field), of grade gr + ``shift``, run with no time-like axes;
    D_ii if ``time_flip``."""
    metric, out = require(field).metric, {}
    dim = metric.dim
    full, steps = (1 << dim) - 1, _DERIVS[rule, dim, metric.k if time_flip else 0]
    for key, c in field._terms.items():
        for axis, step, negate in steps[key & full]:
            if e := key >> axis & _FIELD:
                d = -c * e if negate else c * e
                out[j] = d if (acc := out.get(j := key + step)) is None else acc + d
    return Multivector._make(metric, field.grade + shift, out, field._poly)


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
    """Tensor derivative: row grade 1 matrix of all first partials, row e_i D_ii d_i a."""
    dim, k, terms = require(field).metric.dim, field.metric.k, field._terms.items()
    rows = [{key - (1 << axis): c * (-e if i < k else e) for key, c in terms
             if (e := key >> axis & _FIELD)} for i, axis in enumerate(_AXES[dim, dim])]
    return _stack(field.metric, field.grade, rows, field._poly)


def laplacian(field: Multivector) -> Multivector:
    """Component-wise d'Alembertian sum_i D_ii d_i^2, grade unchanged."""
    dim, k, out = require(field).metric.dim, field.metric.k, {}
    for key, c in field._terms.items():
        for i, axis in enumerate(_AXES[dim, dim]):
            if (e := key >> axis & _FIELD) > 1:
                d = -c * e * (e - 1) if i < k else c * e * (e - 1)
                out[j] = d if (acc := out.get(j := key - (2 << axis))) is None else acc + d
    return Multivector._make(field.metric, field.grade, out, field._poly)


def matrix_divergence(matrix: MvMatrix) -> Multivector:
    """Divergence of a row-grade-1 matrix field, one grade-m field.

    Contracting the derivative against the row slot cancels the metric
    signs, leaving sum_{i,J} d_i b_{i,J} e_J.
    """
    if require(matrix, MvMatrix).row_grade != 1 and matrix._terms:
        raise GradeError("matrix divergence needs row grade 1")
    dim = matrix.metric.dim
    return Multivector._make(matrix.metric, matrix.col_grade,
                             _divergence(matrix._terms, dim, 2 * dim), matrix._poly)


def divergence_scalar(field: Multivector):
    """Divergence of a 1-vector field as a scalar, sum_i d_i v_i; int 0 for a rational field."""
    dim = require(field, grade=1, what="divergence field").metric.dim
    return PolyScalar._make(dim, _divergence(field._terms, dim, dim)) if field._poly else 0


def _divergence(terms: dict, dim: int, shift: int) -> dict:
    """sum_i d_i of flat terms whose low dim bits are one axis e_i, monomials above ``shift``;
    each key loses those bits (moves down by dim)."""
    full, axes, out = (1 << dim) - 1, _AXES[shift, dim], {}
    for key, c in terms.items():
        if e := key >> (axis := axes[(key & full).bit_length() - 1]) & _FIELD:
            d = c * e
            out[j] = d if (acc := out.get(j := key - (1 << axis) >> dim)) is None else acc + d
    return out


def directional_deriv(direction: Multivector, field: Multivector) -> Multivector:
    """Convective derivative (v . d) a, component-wise sum_i v_i d_i a_I: the
    ``vec_mat`` product's D_ii cancels the D_ii of ``tensor_deriv``'s row e_i."""
    require(field, metric=require(direction, grade=1, what="direction").metric)
    return vec_mat(direction, tensor_deriv(field))


def check_laplacian_splitting(metric: Metric, grade: int, fields) -> bool:
    """Check int(ext a) - ext(int a) == (-1)^grade laplacian(a) on given fields."""
    sign = -1 if grade & 1 else 1
    for a in fields:
        lhs = int_deriv(ext_deriv(a)) - ext_deriv(int_deriv(a))
        if lhs != sign * laplacian(a):
            return False
    return True
