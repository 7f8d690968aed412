"""The derivative operators agree with a reference built from ``PolyScalar.partial``.

``calculus`` lowers each monomial straight into its output component.
The reference here takes every partial through ``PolyScalar.partial``
and combines the partials with the public products only:

    ext_deriv(a)            == sum_i D_ii e_i ^ d_i a
    int_deriv(a)            == sum_i D_ii e_i _| d_i a
    laplacian(a)            == sum_i D_ii d_i d_i a
    tensor_deriv(a)         has D_ii d_i a_I at ((i,), I)
    matrix_divergence(B)    == sum_{i,J} d_i b_{i,J} e_J
    divergence_scalar(v)    == sum_i d_i v_i

on ``randgen`` fields over every (k, n) with k+n <= 5, with integer,
rational, polynomial, rational-polynomial and mixed coefficients.  Each
result must also have the reference's coefficient types, down to the
coefficients inside each polynomial.
"""

from fractions import Fraction

import pytest

from mvcalc.blades import Metric, Multivector
from mvcalc.calculus import (divergence_scalar, ext_deriv, int_deriv, laplacian,
                             matrix_divergence, tensor_deriv)
from mvcalc.matrices import MvMatrix
from mvcalc.poly import PolyScalar
from mvcalc.randgen import random_matrix_field, rng_for

METRICS = [Metric(k, dim - k) for dim in range(1, 6) for k in range(dim + 1)]


def d(coeff, i):
    return coeff.partial(i) if isinstance(coeff, PolyScalar) else 0


def d_field(a, i):
    return Multivector(a.metric, a.grade, {I: d(c, i) for I, c in a.terms.items()})


def types(value):
    """The coefficient types of a value, through every polynomial."""
    if isinstance(value, PolyScalar):
        return "poly", sorted((e, type(c).__name__) for e, c in value.terms.items())
    if isinstance(value, (Multivector, MvMatrix)):
        return sorted((key, types(c)) for key, c in value.terms.items())
    return type(value).__name__


def assert_same(result, reference):
    assert result == reference
    assert types(result) == types(reference)


def reference_vector_deriv(a, product, grade):
    metric = a.metric
    total = Multivector.zero(metric, grade)
    for i in range(metric.dim):
        total = total + metric.sign(i) * product(Multivector.blade(metric, (i,)), d_field(a, i))
    return total


def reference_laplacian(a):
    total = Multivector.zero(a.metric, a.grade)
    for i in range(a.metric.dim):
        total = total + a.metric.sign(i) * d_field(d_field(a, i), i)
    return total


def reference_tensor_deriv(a):
    metric = a.metric
    return MvMatrix(metric, 1, a.grade, {((i,), I): metric.sign(i) * d(c, i)
                                         for I, c in a.terms.items() for i in range(metric.dim)})


def reference_matrix_divergence(b):
    total = Multivector.zero(b.metric, b.col_grade)
    for (rows, cols), c in b.terms.items():
        total = total + Multivector.blade(b.metric, cols, d(c, rows[0]))
    return total


def reference_divergence_scalar(v):
    total = 0
    for (i,), c in v.terms.items():
        total = total + d(c, i)
    return total


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_fused_operators_match_the_partial_reference(metric, coefficient_fields):
    rng = rng_for(9, f"unit/derivative-kernel/{metric.k},{metric.n}")
    for grade in range(metric.dim + 1):
        cases = coefficient_fields(rng, metric, grade)
        # mixed: polynomial components beside plain rational ones
        cases.append(cases[1] + cases[2])
        matrices = [random_matrix_field(rng, metric, 1, grade),
                    random_matrix_field(rng, metric, 1, grade) * Fraction(1, 2)]
        for a in cases:
            assert_same(ext_deriv(a), reference_vector_deriv(a, Multivector.wedge, grade + 1))
            assert_same(int_deriv(a),
                        reference_vector_deriv(a, Multivector.left_contract, grade - 1))
            assert_same(laplacian(a), reference_laplacian(a))
            m = tensor_deriv(a)
            assert_same(m, reference_tensor_deriv(a))
            matrices.append(m)
            if grade == 1:
                assert_same(divergence_scalar(a), reference_divergence_scalar(a))
        for b in matrices:
            assert_same(matrix_divergence(b), reference_matrix_divergence(b))

