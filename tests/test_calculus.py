from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.calculus import (
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
from mvcalc.matrices import MvMatrix, mat_vec
from mvcalc.poly import PolyScalar
from mvcalc.randgen import field_cases, random_field, random_matrix_field, rng_for

M13 = Metric(1, 3)
E2 = Metric(0, 2)
E3 = Metric(0, 3)


def x(metric, i, power=1):
    return PolyScalar.variable(metric.dim, i, power)


def test_ext_deriv_of_scalar_is_metric_weighted_gradient():
    # d^ f = sum_i D_ii (d_i f) e_i
    f = Multivector.scalar(M13, x(M13, 0) * x(M13, 0) + x(M13, 2))
    g = ext_deriv(f)
    assert g.grade == 1
    assert g.coefficient((0,)) == -2 * x(M13, 0)
    assert g.coefficient((2,)) == 1
    assert g.coefficient((1,)) == 0


def test_ext_deriv_inserts_with_sign():
    a = Multivector.blade(M13, (0, 2), x(M13, 1))
    g = ext_deriv(a)
    # index 1 lands between 0 and 2: one transposition, D_11 = +1
    assert g == Multivector.blade(M13, (0, 1, 2), Fraction(-1))


def test_int_deriv_has_no_metric_factor():
    a = Multivector.blade(M13, (0,), x(M13, 0))
    assert int_deriv(a) == Multivector.scalar(M13, Fraction(1))
    b = Multivector.blade(M13, (1,), x(M13, 1))
    assert int_deriv(b) == Multivector.scalar(M13, Fraction(1))


def test_int_deriv_of_scalar_is_zero_with_negative_annotation():
    z = int_deriv(Multivector.scalar(M13, x(M13, 0)))
    assert z.is_zero()
    assert z.grade == -1


def test_derivatives_are_nilpotent():
    rng = rng_for(11, "unit/nilpotent")
    for metric in (E2, M13, Metric(2, 2)):
        for grade in range(metric.dim + 1):
            a = random_field(rng, metric, grade)
            assert ext_deriv(ext_deriv(a)).is_zero()
            assert int_deriv(int_deriv(a)).is_zero()


def test_interior_of_wedge_needs_convective_terms():
    # The naive product rule d_|(a ^ b) = a (d.b) - (d.a) b fails; the
    # directional corrections (b.d)a - (a.d)b complete it.  Pinned
    # counterexample: a = x1 e0, b = x0 e0 in (0,2).
    a = Multivector.blade(E2, (0,), x(E2, 1))
    b = Multivector.blade(E2, (0,), x(E2, 0))
    lhs = int_deriv(a.wedge(b))
    naive = a * divergence_scalar(b) - b * divergence_scalar(a)
    assert lhs != naive
    full = naive + directional_deriv(b, a) - directional_deriv(a, b)
    assert lhs == full
    assert lhs.is_zero()
    assert naive == Multivector.blade(E2, (0,), x(E2, 1))


def test_divergence_of_contraction_rule():
    rng = rng_for(13, "unit/contraction-rule")
    for metric in (E3, M13):
        for s in range(1, metric.dim + 1):
            a = random_field(rng, metric, s - 1)
            b = random_field(rng, metric, s)
            lhs = divergence_scalar(a.left_contract(b))
            sign = Fraction(-1 if (s - 1) % 2 else 1)
            rhs = ext_deriv(a).dot(b) + sign * int_deriv(b).dot(a)
            assert not (lhs - rhs)


def test_tensor_deriv_entries():
    a = Multivector.blade(M13, (1,), x(M13, 0) * x(M13, 2))
    B = tensor_deriv(a)
    assert B.row_grade == 1 and B.col_grade == 1
    # D_00 = -1 weights the time row
    assert B.entry((0,), (1,)) == -x(M13, 2)
    assert B.entry((2,), (1,)) == x(M13, 0)
    assert B.entry((1,), (1,)) == 0


def test_matrix_divergence_is_plain():
    B = random_matrix_field(rng_for(17, "unit/matrix-div"), M13, 1, 1)
    a = random_field(rng_for(17, "unit/matrix-div-arg"), M13, 1)
    lhs = divergence_scalar(mat_vec(B, a))
    rhs = matrix_divergence(B).dot(a) + B.dot(tensor_deriv(a))
    assert not (lhs - rhs)


def test_matrix_divergence_needs_vector_rows():
    B = MvMatrix.basis(M13, (0, 1), (2,), x(M13, 0))
    with pytest.raises(GradeError):
        matrix_divergence(B)


def test_matrix_divergence_of_tensor_deriv_is_laplacian():
    rng = rng_for(23, "unit/tensor-laplacian")
    for metric in (E2, M13):
        for grade in range(metric.dim + 1):
            a = random_field(rng, metric, grade)
            assert matrix_divergence(tensor_deriv(a)) == laplacian(a)


def test_laplacian_weighting():
    f = Multivector.scalar(M13, x(M13, 0, 2) + x(M13, 1, 2))
    out = laplacian(f)
    # D_00 = -1, D_11 = +1
    assert out == Multivector.scalar(M13, Fraction(0))
    g = laplacian(Multivector.scalar(M13, x(M13, 1, 2) + x(M13, 2, 2)))
    assert g.scalar_value() == 4


def test_splitting_carries_alternating_sign():
    rng = rng_for(29, "unit/splitting")
    for metric in (E3, M13, Metric(2, 2)):
        for grade in range(metric.dim + 1):
            fields = field_cases(rng, metric, grade, 6)
            assert check_laplacian_splitting(metric, grade, fields)
            a = fields[-1]
            sign = Fraction(-1 if grade % 2 else 1)
            lhs = int_deriv(ext_deriv(a)) - ext_deriv(int_deriv(a))
            assert lhs == laplacian(a) * sign


def test_right_interior_orientation():
    rng = rng_for(31, "unit/right-interior")
    for grade in range(M13.dim + 1):
        a = random_field(rng, M13, grade)
        sign = Fraction(1 if (grade + 1) % 2 == 0 else -1)
        assert int_deriv(a) == right_int_deriv(a) * sign


def test_euclidean_curl_component_form():
    v = Multivector(
        E3,
        1,
        {(0,): x(E3, 1) * x(E3, 2), (1,): x(E3, 0, 2), (2,): x(E3, 1)},
    )
    curl = ext_deriv(v).inv_hodge()
    assert curl.coefficient((0,)) == 1
    assert curl.coefficient((1,)) == x(E3, 1)
    assert curl.coefficient((2,)) == 2 * x(E3, 0) - x(E3, 2)
    assert curl == int_deriv(v.hodge())
    assert curl == int_deriv(v.inv_hodge())


def test_directional_deriv_requires_vector_direction():
    a = random_field(rng_for(37, "unit/directional"), M13, 2)
    with pytest.raises(GradeError):
        directional_deriv(a, a)


@pytest.mark.parametrize("apply", [
    ext_deriv, int_deriv, right_int_deriv, laplacian, tensor_deriv, divergence_scalar,
    lambda value: directional_deriv(value, Multivector.blade(M13, (0,))),
    lambda value: directional_deriv(Multivector.blade(M13, (0,)), value),
], ids=["ext", "int", "right-int", "lap", "tensor", "div", "dir-direction", "dir-field"])
@pytest.mark.parametrize("value", [3, Fraction(1, 2), None, [(0,)]], ids=repr)
def test_field_operators_refuse_a_non_field(apply, value):
    with pytest.raises(AlgebraError, match=f"expected Multivector, got {type(value).__name__}"):
        apply(value)


@pytest.mark.parametrize("value", [3, None, Multivector.blade(M13, (0,))], ids=repr)
def test_matrix_divergence_refuses_a_non_matrix(value):
    with pytest.raises(AlgebraError, match=f"expected MvMatrix, got {type(value).__name__}"):
        matrix_divergence(value)
