from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.matrices import MvMatrix, mat_vec, vec_mat
from mvcalc.poly import PolyScalar
from mvcalc.randgen import random_field, random_matrix_field, rng_for

M13 = Metric(1, 3)


def test_basis_and_entry():
    w = MvMatrix.basis(M13, (0,), (1, 2), Fraction(5))
    assert w.entry((0,), (1, 2)) == 5
    assert w.entry((1,), (1, 2)) == 0
    assert w.row_grade == 1 and w.col_grade == 2


def test_identity_carries_metric_signs():
    eye = MvMatrix.identity(M13, 1)
    assert eye.entry((0,), (0,)) == -1
    assert eye.entry((1,), (1,)) == 1
    assert eye.entry((0,), (1,)) == 0


def test_identity_is_two_sided_unit():
    rng = rng_for(3, "unit/matrix-identity")
    A = random_matrix_field(rng, M13, 1, 2)
    assert MvMatrix.identity(M13, 1).matmul(A) == A
    assert A.matmul(MvMatrix.identity(M13, 2)) == A


def test_matmul_contracts_with_metric():
    A = MvMatrix.basis(M13, (0,), (0,))
    B = MvMatrix.basis(M13, (0,), (1,))
    # shared column/row list (0,) carries sign -1
    assert A.matmul(B).entry((0,), (1,)) == -1


def test_frobenius_dot():
    A = MvMatrix.basis(M13, (0,), (1,), 2)
    assert A.dot(A) == Fraction(-4)
    B = MvMatrix.basis(M13, (1,), (2,), 3)
    assert B.dot(B) == 9
    assert A.dot(B) == 0
    with pytest.raises(GradeError):
        A.dot(MvMatrix.basis(M13, (0, 1), (2,)))


def test_mat_vec_and_vec_mat_agree_through_transpose():
    rng = rng_for(5, "unit/matrix-action")
    A = random_matrix_field(rng, M13, 1, 2)
    v = random_field(rng, M13, 2)
    w = random_field(rng, M13, 1)
    assert mat_vec(A, v).grade == 1
    assert vec_mat(w, A) == mat_vec(A.transpose(), w)


def test_mat_vec_on_identity():
    v = random_field(rng_for(9, "unit/matrix-ident-action"), M13, 1)
    assert mat_vec(MvMatrix.identity(M13, 1), v) == v


def test_shape_mismatch_rejected():
    A = MvMatrix.basis(M13, (0,), (1,))
    v = Multivector.blade(M13, (0, 1))
    with pytest.raises(GradeError):
        mat_vec(A, v)
    with pytest.raises(GradeError):
        A.matmul(MvMatrix.basis(M13, (0, 1), (2,)))
    with pytest.raises(GradeError, match="cannot add grades 1,1 and 2,1"):
        A + MvMatrix.basis(M13, (0, 1), (2,))


def test_zero_matrix_annotations_compare_equal():
    assert MvMatrix.zero(M13, 1, 2) == MvMatrix.zero(M13, 0, 3)
    assert MvMatrix.zero(M13, 1, 2) != MvMatrix.zero(Metric(0, 3), 1, 2)


def test_adding_a_zero_keeps_the_nonzero_shape():
    A = MvMatrix.basis(M13, (0,), (1, 2), 3)
    zero = MvMatrix.zero(M13, 2, 0)
    for total in (zero + A, A + zero, A - zero, -(zero - A)):
        assert total == A and (total.row_grade, total.col_grade) == (1, 2)
    both = zero + MvMatrix.zero(M13, 1, 1)
    assert both.is_zero() and (both.row_grade, both.col_grade) == (2, 0)


@pytest.mark.parametrize("operand", [0.5, "2", None, Multivector.blade(M13, (0,))])
def test_scaling_by_a_non_coefficient_is_a_type_error(operand):
    A = MvMatrix.basis(M13, (0,), (1,))
    with pytest.raises(TypeError):
        A * operand
    with pytest.raises(TypeError):
        operand * A


def test_transpose_swaps_grades():
    A = MvMatrix.basis(M13, (0,), (1, 2), 7)
    T = A.transpose()
    assert T.row_grade == 2 and T.col_grade == 1
    assert T.entry((1, 2), (0,)) == 7
    assert T.transpose() == A


@pytest.mark.parametrize("grades", [(True, 1), (1.0, 1), (1, True), (1, 1.0), ("1", 1)])
def test_matrix_grades_must_be_ints(grades):
    with pytest.raises(AlgebraError, match="grade: integers only"):
        MvMatrix(M13, *grades, {((0,), (1,)): 1})
    with pytest.raises(AlgebraError, match="grade: integers only"):
        MvMatrix.zero(M13, *grades)


def test_terms_is_a_view_that_cannot_change_the_value():
    w = MvMatrix.basis(M13, (0,), (1,))
    view = w.terms
    view[((1,), (2,))] = 0.5
    del view[((0,), (1,))]
    assert w.terms == {((0,), (1,)): 1} and w.terms is not w.terms
    assert w == MvMatrix.basis(M13, (0,), (1,)) and "w[1;2]" not in repr(w)


def test_dot_returns_canonical_values():
    m = Metric(0, 2)
    a = MvMatrix(m, 1, 1, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(1, 2)})
    one = a.dot(a * 2)
    assert one == 1 and type(one) is int
    b = MvMatrix(m, 1, 1, {((0,), (0,)): Fraction(1, 2), ((1,), (1,)): Fraction(-1, 2)})
    zero = a.dot(b)
    assert zero == 0 and type(zero) is int
    # D_00 D_11 x0^2 + D_11 D_11 x0^2 cancels to the int 0, not a zero polynomial
    m11 = Metric(1, 1)
    x0 = PolyScalar.variable(2, 0)
    c = MvMatrix(m11, 1, 1, {((0,), (1,)): x0, ((1,), (1,)): x0})
    assert type(c.dot(c)) is int and c.dot(c) == 0


def test_repr_sorts_by_index_lists_not_masks():
    # mask order puts (1, 2) = 0b0110 before (0, 3) = 0b1001
    w = MvMatrix(M13, 2, 0, {((1, 2), ()): 1, ((0, 3), ()): 2})
    assert repr(w) == "<MvMatrix (1,3) grades (2,0): w[0,3;]*2, w[1,2;]*1>"
    assert list(w.terms) == [((1, 2), ()), ((0, 3), ())]


def _expected(pairs):
    out = {}
    for key, value in pairs:
        out[key] = out.get(key, 0) + value
    return out


@pytest.mark.parametrize("k,n", [(0, 2), (1, 1), (2, 1), (1, 3), (2, 2)])
def test_contractions_match_sums_over_the_public_terms(k, n):
    metric = Metric(k, n)
    rng = rng_for(11, f"unit/matrix-contractions-{k}-{n}")
    A = random_matrix_field(rng, metric, 1, 2, max_degree=1)
    A2 = random_matrix_field(rng, metric, 1, 2, max_degree=1)
    B = random_matrix_field(rng, metric, 2, 1, max_degree=1)
    v, w = random_field(rng, metric, 2, max_degree=1), random_field(rng, metric, 1, max_degree=1)
    sign = metric.sign_of
    product = _expected(((I, L), sign(K) * a * b) for (I, K), a in A.terms.items()
                        for (K2, L), b in B.terms.items() if K == K2)
    assert A.matmul(B) == MvMatrix(metric, 1, 1, product)
    right = _expected((I, sign(K) * a * v.coefficient(K)) for (I, K), a in A.terms.items())
    assert mat_vec(A, v) == Multivector(metric, 1, right)
    left = _expected((L, sign(K) * w.coefficient(K) * a) for (K, L), a in A.terms.items())
    assert vec_mat(w, A) == Multivector(metric, 2, left)
    frob = sum(sign(I) * sign(J) * a * A2.entry(I, J) for (I, J), a in A.terms.items())
    assert not (A.dot(A2) - frob)


def test_entries_must_have_the_stated_grades():
    with pytest.raises(GradeError, match=r"^entry \(\(0,\),\(1,\)\) does not have grades \(1,2\)$"):
        MvMatrix(M13, 1, 2, {((0,), (1,)): 1})
    with pytest.raises(GradeError,
                       match=r"^entry \(\(0,\),\(1, 2\)\) does not have grades \(2,2\)$"):
        MvMatrix(M13, 2, 2, {((0, 1), (1, 2)): 1, ((0,), (1, 2)): Fraction(1, 2)})
