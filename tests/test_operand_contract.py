"""Every value argument of the library's entry points is checked before it is read.

An ``int``, ``None`` or ``str`` where a metric, multivector, matrix,
density, configuration, grade, symbol table, field assignment or formal
term belongs raises ``AlgebraError``, never the ``AttributeError``,
``TypeError`` or ``KeyError`` of reading it.  A grade mismatch names the operand and both
grades.  Deterministic: no hypothesis.
"""

import pytest

from mvcalc import (AlgebraError, DerivOp, FieldEquation, FieldSymbol, FormalExpr, GradeError,
                    LagrangianDensity, Metric, Multivector, MvMatrix)
from mvcalc.calculus import directional_deriv, divergence_scalar
from mvcalc.em import (MaxwellConfig, build_dual_lagrangian, build_lagrangian, derive_equations,
                       dual_theory, gauge_transform, wave_form)
from mvcalc.matrices import mat_vec, vec_mat
from mvcalc.parser import parse_expr, parse_lagrangian
from mvcalc.variational import (euler_lagrange_exterior, first_variation, tensor_slot_matrix,
                                vderiv, verify_tensor_exterior_identity)

M13 = Metric(1, 3)
A = FieldSymbol("A", 1, "dynamical")
L = LagrangianDensity([(1, (DerivOp.ID, A), (DerivOp.ID, A)),
                       (1, (DerivOp.EXT, A), (DerivOp.EXT, A))])
V = Multivector.blade(M13, (0,))
W = Multivector.blade(M13, (1, 2))
B = MvMatrix.basis(M13, (0,), (1,))

CALLS = {
    "Multivector-metric": lambda bad: Multivector(bad, 1),
    "Multivector.zero-metric": lambda bad: Multivector.zero(bad, 0),
    "MvMatrix-metric": lambda bad: MvMatrix(bad, 1, 1),
    "divergence_scalar": divergence_scalar,
    "directional_deriv-direction": lambda bad: directional_deriv(bad, V),
    "directional_deriv-field": lambda bad: directional_deriv(V, bad),
    "mat_vec-matrix": lambda bad: mat_vec(bad, V),
    "mat_vec-vector": lambda bad: mat_vec(B, bad),
    "vec_mat-vector": lambda bad: vec_mat(bad, B),
    "vec_mat-matrix": lambda bad: vec_mat(V, bad),
    "gauge_transform-A": lambda bad: gauge_transform(bad, V),
    "gauge_transform-Abar": lambda bad: gauge_transform(V, bad),
    "gauge_transform-G": lambda bad: gauge_transform(V, V, bad),
    "LagrangianDensity.value-field": lambda bad: L.value({"A": bad}),
    "LagrangianDensity.value-assignment": lambda bad: L.value(bad),
    "FormalExpr.evaluate-field": lambda bad: FormalExpr.single((), A).evaluate({"A": bad}),
    "FormalExpr.evaluate-assignment": lambda bad: FormalExpr.single((), A).evaluate(bad),
    "FormalExpr.evaluate-metric": lambda bad: FormalExpr.zero().evaluate({}, bad),
    "FieldEquation.residual-metric":
        lambda bad: FieldEquation(FormalExpr.zero(), FormalExpr.zero(), 1).residual({}, bad),
    "FieldEquation-side": lambda bad: FieldEquation(bad, FormalExpr.zero(), 1),
    "FieldEquation-grade": lambda bad: FieldEquation(FormalExpr.zero(), FormalExpr.zero(), bad),
    "tensor_slot_matrix-density": lambda bad: tensor_slot_matrix(bad, {"A": V}),
    "tensor_slot_matrix-field": lambda bad: tensor_slot_matrix(L, {"A": bad}),
    "tensor_slot_matrix-assignment": lambda bad: tensor_slot_matrix(L, bad),
    "first_variation-density": lambda bad: first_variation(bad, V, V),
    "first_variation-a_value": lambda bad: first_variation(L, bad, V),
    "first_variation-eps": lambda bad: first_variation(L, V, bad),
    "first_variation-sources": lambda bad: first_variation(L, V, V, sources=bad),
    "verify_tensor_exterior_identity-fields":
        lambda bad: verify_tensor_exterior_identity(L, M13, bad),
    "verify_tensor_exterior_identity-assignment":
        lambda bad: verify_tensor_exterior_identity(L, M13, [bad]),
    "verify_tensor_exterior_identity-metric":
        lambda bad: verify_tensor_exterior_identity(L, bad, [{"A": V}]),
    "vderiv-density": lambda bad: vderiv(bad, (DerivOp.ID, A)),
    "euler_lagrange_exterior": euler_lagrange_exterior,
    "derive_equations": derive_equations,
    "build_lagrangian": build_lagrangian,
    "wave_form": wave_form,
    "MaxwellConfig-metric": lambda bad: MaxwellConfig(bad, 1),
    "MaxwellConfig-r": lambda bad: MaxwellConfig(M13, bad),
    "dual_theory-metric": lambda bad: dual_theory(bad, 1),
    "dual_theory-s": lambda bad: dual_theory(M13, bad),
    "build_dual_lagrangian": build_dual_lagrangian,
    "parse_expr-metric": lambda bad: parse_expr("e[0]", bad),
    "parse_lagrangian-symbols": lambda bad: parse_lagrangian("(A . A)", bad),
    "FormalExpr-terms": FormalExpr,
    "FormalExpr-term": lambda bad: FormalExpr([bad]),
    "FormalExpr-chain": lambda bad: FormalExpr([(bad, A, 1)]),
    "FormalExpr-symbol": lambda bad: FormalExpr([((), bad, 1)]),
}

BAD = {"int": 3, "None": None, "str": "x"}
# the arguments that take one of these: a gauge function and the sources may be left out, and
# a grade is an int
VALID = {("gauge_transform-G", "None"), ("MaxwellConfig-r", "int"), ("dual_theory-s", "int"),
         ("build_dual_lagrangian", "int"), ("FieldEquation-grade", "int"),
         ("first_variation-sources", "None")}


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{name}-{kind}")
    for name, call in CALLS.items() for kind, bad in BAD.items() if (name, kind) not in VALID])
def test_a_bad_value_argument_raises_algebra_error(call, bad):
    with pytest.raises(AlgebraError):
        call(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: divergence_scalar(W), "divergence field has grade 2, expected 1"),
    (lambda: directional_deriv(W, V), "direction has grade 2, expected 1"),
    (lambda: mat_vec(B, W), "vector has grade 2, expected 1"),
    (lambda: vec_mat(W, B), "vector has grade 2, expected 1"),
    (lambda: gauge_transform(V, W), "gauge offset has grade 2, expected 1"),
    (lambda: gauge_transform(V, V, V), "gauge function has grade 1, expected 0"),
    (lambda: L.value({"A": W}), "field of symbol A has grade 2, expected 1"),
    (lambda: first_variation(L, V, W), "variation has grade 2, expected 1"),
], ids=["divergence", "direction", "mat_vec", "vec_mat", "offset", "gauge-function", "symbol",
        "variation"])
def test_a_grade_mismatch_names_the_operand(call, message):
    with pytest.raises(GradeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: mat_vec(MvMatrix.zero(M13, 1, 1), W),
    lambda: mat_vec(B, Multivector.zero(M13, 2)),
    lambda: gauge_transform(V, Multivector.zero(M13, 2), Multivector.zero(M13, 3)),
], ids=["zero-matrix", "zero-vector", "zero-offset"])
def test_a_zero_operand_takes_any_grade(call):
    assert call().metric is M13


def test_the_identity_check_refuses_a_metric_that_is_not_a_metric():
    # it used to return IdentityReport(metric=3, ...)
    with pytest.raises(AlgebraError, match="^expected Metric, got int$"):
        verify_tensor_exterior_identity(L, 3, [{"A": V}])


def test_the_identity_check_refuses_fields_on_another_metric():
    # fields on (1, 3) checked as (0, 4) used to give a passing report naming (0, 4)
    with pytest.raises(AlgebraError, match="^mixed metrics$"):
        verify_tensor_exterior_identity(L, Metric(0, 4), [{"A": V}])
    assert verify_tensor_exterior_identity(L, M13, [{"A": V}]).ok
