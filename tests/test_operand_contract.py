"""Every value argument of the library's entry points is checked before it is read.

An ``int``, ``None`` or ``str`` where a metric, multivector, matrix,
density, configuration, grade, symbol table, field assignment or formal
term belongs raises ``AlgebraError``, never the ``AttributeError``,
``TypeError`` or ``KeyError`` of reading it.  A grade mismatch names the operand and both
grades.  A value Python cannot print (a list nested 3,000 deep, an int past the
int-to-text limit) still raises ``AlgebraError``, as messages print outside values
through ``indexes._shown``.  Deterministic: no hypothesis.
"""

from fractions import Fraction

import pytest

from mvcalc import (AlgebraError, DerivOp, FieldEquation, FieldSymbol, FormalExpr, GradeError,
                    LagrangianDensity, Metric, Multivector, MvMatrix, PolyScalar, doc_to_equation)
from mvcalc.calculus import check_laplacian_splitting, directional_deriv, divergence_scalar
from mvcalc.em import (MaxwellConfig, build_dual_lagrangian, build_lagrangian, derive_equations,
                       dual_theory, gauge_transform, polarization_count, wave_form)
from mvcalc.indexes import complement, sort_signature
from mvcalc.matrices import mat_vec, vec_mat
from mvcalc.parser import parse_expr, parse_lagrangian
from mvcalc.randgen import random_field, random_poly, rng_for
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


def test_the_laplacian_splitting_check_refuses_fields_of_another_metric_or_grade():
    # a grade-2 field on (0, 4) checked as a grade-1 field on (1, 3) used to pass
    other = random_field(rng_for(5, "unit/laplacian-splitting"), Metric(0, 4), 2)
    with pytest.raises(AlgebraError, match="^mixed metrics$"):
        check_laplacian_splitting(M13, 1, [other])
    with pytest.raises(GradeError, match="^field has grade 2, expected 1$"):
        check_laplacian_splitting(M13, 1, [V, W])
    # a zero field takes any grade, as every other operand does
    assert check_laplacian_splitting(M13, 1, [Multivector.zero(M13, 3), V])


def nested_list(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


def test_a_blade_of_a_list_inside_its_index_list_raises_algebra_error():
    # the index list used to be hashed as a dict key first: TypeError: unhashable type: 'list'
    with pytest.raises(AlgebraError, match=r"^bad index: integers only, got \[0\]$"):
        Multivector.blade(M13, [[0]])
    with pytest.raises(AlgebraError, match=r"^bad index: integers only, got \[0\]$"):
        V.coefficient([[0]])


@pytest.mark.parametrize("call", [
    lambda bad: V.coefficient(bad),
    lambda bad: V.coefficient([bad]),
    lambda bad: B.entry(bad, (1,)),
    lambda bad: B.entry((0,), [bad]),
], ids=["coefficient", "coefficient-inner", "entry-rows", "entry-cols"])
@pytest.mark.parametrize("bad", [nested_list(3000), [10 ** 5000]], ids=["deep", "long"])
def test_an_index_too_large_to_print_raises_algebra_error(call, bad):
    # its repr used to raise RecursionError or ValueError while the message was built
    with pytest.raises(AlgebraError, match="too large to print>"):
        call(bad)


def doc_with(where: str, bad) -> dict:
    """A valid equation document with ``bad`` put in at one place."""
    term = {"symbol": "A", "ops": [], "coeff": "1"}
    doc = {"metric": {"k": 1, "n": 3}, "grade": 1, "lhs": [term], "rhs": [],
           "symbols": {"A": {"grade": 1, "role": "dynamical"}}}
    if where == "k":
        doc["metric"]["k"] = bad
    elif where == "symbols":
        doc["symbols"] = bad
    elif where == "role":
        doc["symbols"]["A"]["role"] = bad
    else:
        term[where] = bad
    return doc


VALUE_CALLS = {
    "blade-coefficient": lambda bad: Multivector(M13, 1, {(0,): bad}),
    "poly-coefficient": lambda bad: PolyScalar(1, {(0,): bad}),
    "symbol-name": lambda bad: FieldSymbol(bad, 1),
    "symbol-role": lambda bad: FieldSymbol("A", 1, bad),
    "density-slot": lambda bad: LagrangianDensity([(1, bad, (DerivOp.ID, A))]),
    "density-slot-operator": lambda bad: LagrangianDensity([(1, (bad, A), (DerivOp.ID, A))]),
    "density-term": lambda bad: LagrangianDensity([bad]),
    "formal-term": lambda bad: FormalExpr([bad]),
    "formal-operator": lambda bad: FormalExpr([((bad,), A, 1)]),
    "apply": lambda bad: FormalExpr.single((), A).apply(bad),
    "doc-k": lambda bad: doc_to_equation(doc_with("k", bad)),
    "doc-symbols": lambda bad: doc_to_equation(doc_with("symbols", bad)),
    "doc-role": lambda bad: doc_to_equation(doc_with("role", bad)),
    "doc-term-symbol": lambda bad: doc_to_equation(doc_with("symbol", bad)),
    "doc-ops": lambda bad: doc_to_equation(doc_with("ops", bad)),
    "doc-coeff": lambda bad: doc_to_equation(doc_with("coeff", bad)),
}
BIG = 10 ** 5000
# an int past the int-to-text limit where a bounded int belongs, or a grade, index or exponent
# a message prints: each used to raise a plain ValueError while the message was built
BIG_INT_CALLS = {
    "MaxwellConfig-r": lambda: MaxwellConfig(M13, BIG),
    "Multivector-grade": lambda: Multivector(M13, BIG, {(0,): 1}),
    "MvMatrix-grade": lambda: MvMatrix(M13, BIG, 1, {((0,), (1,)): 1}),
    "FieldSymbol-grade": lambda: FieldSymbol("A", -BIG),
    "variable-index": lambda: PolyScalar.variable(1, BIG),
    "partial-index": lambda: PolyScalar(2).partial(BIG),
    "random_poly-nvars": lambda: random_poly(rng_for(1, "big"), -BIG),
    "dual_theory-s": lambda: dual_theory(M13, BIG),
    "build_dual_lagrangian-s": lambda: build_dual_lagrangian(-BIG),
    "Metric.sign": lambda: M13.sign(BIG),
    "polarization_count-r": lambda: polarization_count(1, 3, BIG),
    "sort_signature-dim": lambda: sort_signature((0,), BIG),
    "complement-dim": lambda: complement((0,), -BIG),
    "poly-exponent": lambda: PolyScalar(1, {(-BIG,): 1}),
    "blade-order": lambda: Multivector.blade(M13, (BIG, 0)),
    "FieldEquation-grade": lambda: FieldEquation(FormalExpr.single((), A), FormalExpr.zero(), BIG),
    "laplacian-splitting-grade": lambda: check_laplacian_splitting(M13, BIG, [V]),
    "dot-zero-grade": lambda: Multivector.zero(M13, BIG).dot(V),
    "matmul-zero-grade":
        lambda: MvMatrix.zero(M13, 1, BIG).matmul(MvMatrix.identity(M13, 1)),
}


@pytest.mark.parametrize("call", [
    *(pytest.param(lambda call=call, bad=bad: call(bad), id=f"{kind}-{name}")
      for kind, bad in (("deep", nested_list(3000)), ("long", [BIG]))
      for name, call in VALUE_CALLS.items()),
    *(pytest.param(call, id=f"int-{name}") for name, call in BIG_INT_CALLS.items())])
def test_a_value_too_large_to_print_raises_algebra_error(call):
    # its repr used to raise RecursionError or ValueError while the message was built
    with pytest.raises(AlgebraError, match="too large to print>"):
        call()


def test_a_matrix_entry_too_long_to_print_raises_algebra_error():
    # str() used to raise a plain ValueError from the int-to-text limit
    huge = MvMatrix(M13, 1, 1, {((0,), (1,)): 10 ** 5000})
    with pytest.raises(AlgebraError, match="^exact value too long to print"):
        str(huge)
    with pytest.raises(AlgebraError, match="^exact value too long to print"):
        str(Multivector.blade(M13, (0,), 10 ** 5000))
    assert str(MvMatrix(M13, 1, 1, {((0,), (1,)): 3})) == "<MvMatrix (1,3) grades (1,1): w[0;1]*3>"
    with pytest.raises(AlgebraError, match=r"^bad matrix key <tuple too large to print>"):
        MvMatrix(M13, 1, 1, {(10 ** 5000,): 1})


def test_reprs_print_values_too_long_to_print():
    # both used to raise a plain ValueError from the int-to-text limit
    assert repr(MaxwellConfig(M13, 2, mass=10 ** 5000)) == (
        "MaxwellConfig(metric=Metric(k=1, n=3), r=2, mass=<int too large to print>, xi=None)")
    with pytest.raises(AlgebraError, match="^exact value too long to print"):
        repr(LagrangianDensity([(10 ** 5000, (DerivOp.ID, A), (DerivOp.ID, A))]))
    # a value that prints keeps its old text
    assert repr(MaxwellConfig(M13, 2, xi=Fraction(1, 2))) == (
        "MaxwellConfig(metric=Metric(k=1, n=3), r=2, mass=0, xi=Fraction(1, 2))")
    assert repr(L) == "<LagrangianDensity 1*(id A . id A) + 1*(ext A . ext A)>"
    # a zero value may carry any int grade
    assert repr(Multivector.zero(M13, BIG)) == (
        "<Multivector (1,3) grade <int too large to print>: 0>")
    assert repr(MvMatrix.zero(M13, BIG, 1)) == (
        "<MvMatrix (1,3) grades (<int too large to print>,1): 0>")
    assert repr(MvMatrix.identity(M13, BIG)) == (
        "<MvMatrix (1,3) grades (<int too large to print>,<int too large to print>): 0>")
    # a MaxwellConfig's parameter messages print the exact value's text
    for params in ({"mass": -BIG}, {"xi": -BIG}):
        with pytest.raises(AlgebraError, match="^exact value too long to print"):
            MaxwellConfig(M13, 2, **params)
    with pytest.raises(AlgebraError, match="^mass must be nonnegative, got -1/2$"):
        MaxwellConfig(M13, 2, mass=Fraction(-1, 2))
