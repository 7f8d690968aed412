from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.matrices import MvMatrix, mat_vec, vec_mat
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


def test_zero_matrix_annotations_compare_equal():
    assert MvMatrix.zero(M13, 1, 2) == MvMatrix.zero(M13, 0, 3)
    assert MvMatrix.zero(M13, 1, 2) != MvMatrix.zero(Metric(0, 3), 1, 2)


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
