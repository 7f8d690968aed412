"""The value rules that the five slotted value types share.

All five take them from one base, ``poly._Linear``.  Each value survives
``copy``, ``deepcopy`` and ``pickle`` unchanged, and refuses assignment and
deletion; only ``PolyScalar`` is hashable, and its hash holds.  A refused
operand of ``-`` is reported as a subtraction, never as the addition that
``-`` runs on.
Equality of the two sparse values keeps its rule (every zero is equal;
otherwise the shape and the terms must match), and every trusted builder path,
sparse or formal, gives an immutable result that shares no terms dict with its
operands or with another result and stores rational coefficients only.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mvcalc import (AlgebraError, DerivOp, FieldSymbol, FormalExpr, LagrangianDensity, Metric,
                    Multivector, MvMatrix, PolyScalar)
from mvcalc.calculus import ext_deriv, int_deriv, laplacian, matrix_divergence, tensor_deriv
from mvcalc.em import MaxwellConfig, derive_equations, dual_theory, wave_form
from mvcalc.matrices import mat_vec, vec_mat
from mvcalc.randgen import random_constant_field, random_field, random_matrix_field, rng_for
from mvcalc.variational import euler_lagrange_exterior, euler_lagrange_tensor, vderiv

M13 = Metric(1, 3)
X1 = PolyScalar.variable(4, 1)
A = FieldSymbol("A", 1, "dynamical")
J = FieldSymbol("J", 1, "source")

VALUES = [
    pytest.param(Multivector(M13, 2, {(0, 1): X1 + 1, (2, 3): 3}), ("metric", "grade"),
                 id="Multivector"),
    pytest.param(MvMatrix(M13, 1, 2, {((0,), (1, 2)): X1, ((3,), (0, 1)): -2}),
                 ("metric", "row_grade", "col_grade"), id="MvMatrix"),
    pytest.param(FormalExpr([(("int", "ext"), A, 2), ((), J, -1)]), ("terms", "_terms"),
                 id="FormalExpr"),
    pytest.param(LagrangianDensity([(-1, (DerivOp.EXT, A), (DerivOp.EXT, A)),
                                    (2, (DerivOp.ID, A), (DerivOp.ID, J))]),
                 ("terms", "_terms"), id="LagrangianDensity"),
    pytest.param(PolyScalar(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)}), ("nvars", "_terms"),
                 id="PolyScalar"),
]


@pytest.mark.parametrize("value, fields", VALUES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(value, fields, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    for name in fields:
        assert getattr(twin, name) == getattr(value, name)


@pytest.mark.parametrize("value", [VALUES[0].values[0], VALUES[1].values[0]],
                         ids=["Multivector", "MvMatrix"])
def test_deepcopy_copies_polynomial_coefficients(value):
    twin = copy.deepcopy(value)
    for key, coeff in value.terms.items():
        assert twin.terms[key] == coeff
        if isinstance(coeff, PolyScalar):
            assert twin.terms[key] is not coeff


@pytest.mark.parametrize("value, fields", VALUES)
def test_assignment_and_deletion_are_refused(value, fields):
    before = copy.deepcopy(value)
    message = f"{type(value).__name__} is immutable"
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == before
    if isinstance(value, PolyScalar):  # a dict key: its hash must not move
        assert hash(value) == hash(before) and {before: 1}[value] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("value, fields", VALUES)
@pytest.mark.parametrize("operand", [3, "x", 0.5, None], ids=["int", "str", "float", "None"])
def test_a_refused_subtraction_names_subtraction(value, fields, operand):
    if isinstance(value, PolyScalar) and type(operand) is int:  # a rational is a polynomial operand
        assert value - operand == value + (-operand) and operand - value == -(value - operand)
        return
    this, that = type(value).__name__, type(operand).__name__
    if isinstance(value, (Multivector, MvMatrix)):  # they refuse a foreign operand of + and -
        with pytest.raises(AlgebraError, match=f"expected {this}, got {that}"):
            value - operand
    else:
        with pytest.raises(TypeError, match=f"for -: '{this}' and '{that}'"):
            value - operand
    with pytest.raises(TypeError, match=f"for -: '{that}' and '{this}'"):
        operand - value


# -- equality's zero rule ---------------------------------------------------------


def _shape_and_zero_rule(a, b) -> bool:
    """Equality as stated: same metric, then every zero is equal, else shape and terms match."""
    if a.metric != b.metric:
        return False
    if a.is_zero() and b.is_zero():
        return True
    return a._shape() == b._shape() and a._terms == b._terms


def _multivectors(rng, metric):
    values = [Multivector.zero(metric, g) for g in range(-1, metric.dim + 2)]
    for g in range(metric.dim + 1):
        for field in (random_field(rng, metric, g), random_constant_field(rng, metric, g)):
            values += [field, Multivector(metric, g, field.terms), field * 2, -field]
    return values


def _matrices(rng, metric):
    shapes = [(r, c) for r in range(-1, metric.dim + 2) for c in range(-1, metric.dim + 2)]
    values = [MvMatrix.zero(metric, r, c) for r, c in shapes]
    for r, c in shapes[::3]:
        if 0 <= r <= metric.dim and 0 <= c <= metric.dim:
            m = random_matrix_field(rng, metric, r, c)
            values += [m, MvMatrix(metric, r, c, m.terms), m * Fraction(1, 2)]
    return values


@pytest.mark.parametrize("build", [_multivectors, _matrices], ids=["Multivector", "MvMatrix"])
def test_equality_agrees_with_the_shape_and_zero_rule(build):
    rng = rng_for(14, f"unit/value-rules/{build.__name__}")
    # (0,3) and (1,2) share a dimension, so their masks can coincide
    values = [v for metric in (Metric(0, 3), Metric(1, 2), Metric(2, 2))
              for v in build(rng, metric)]
    assert any(v.is_zero() for v in values) and not all(v.is_zero() for v in values)
    equal_pairs = 0
    for a in values:
        for b in values:
            expected = _shape_and_zero_rule(a, b)
            assert (a == b) is expected and (a != b) is not expected, (a, b)
            equal_pairs += expected and a is not b
    assert equal_pairs


# -- every trusted result is its own immutable value ----------------------------------

X0 = PolyScalar.variable(4, 0)
FIELD = Multivector(M13, 1, {(0,): X0 * X1 + 1, (2,): X1, (3,): 2})
FIELD2 = Multivector(M13, 2, {(0, 1): X0, (1, 3): Fraction(1, 2), (2, 3): -3 * X1 * X1})
HALVES = Multivector(M13, 1, {(0,): Fraction(1, 2), (1,): Fraction(2, 3)})  # lifted products
THIRDS = Multivector(M13, 2, {(0, 1): Fraction(1, 3), (2, 3): 5, (1, 2): Fraction(3, 4)})
ZERO = Multivector.zero(M13, 1)
MATRIX = MvMatrix(M13, 1, 2, {((0,), (1, 2)): X1, ((3,), (0, 1)): -2, ((1,), (0, 3)): X0})
MATRIX_ZERO = MvMatrix.zero(M13, 1, 2)
OPERANDS = (FIELD, FIELD2, HALVES, THIRDS, ZERO, MATRIX, MATRIX_ZERO)

TRUSTED = {
    "wedge": lambda: FIELD.wedge(FIELD2),
    "wedge-lifted": lambda: HALVES.wedge(THIRDS),
    "left_contract": lambda: FIELD.left_contract(FIELD2),
    "left_contract-lifted": lambda: HALVES.left_contract(THIRDS),
    "right_contract": lambda: FIELD2.right_contract(FIELD),
    "right_contract-lifted": lambda: THIRDS.right_contract(HALVES),
    "hodge": lambda: FIELD2.hodge(),
    "inv_hodge": lambda: FIELD.inv_hodge(),
    "add": lambda: FIELD + HALVES,
    "add-zero": lambda: FIELD + ZERO,
    "zero-add": lambda: ZERO + FIELD,
    "zero-add-zero": lambda: ZERO + ZERO,
    "sub": lambda: FIELD - HALVES,
    "sub-self": lambda: FIELD - FIELD,
    "neg": lambda: -FIELD,
    "neg-zero": lambda: -ZERO,
    "scale": lambda: FIELD * 2,
    "scale-one": lambda: 1 * FIELD,
    "scale-poly": lambda: FIELD * X0,
    "ext_deriv": lambda: ext_deriv(FIELD),
    "ext_deriv-zero": lambda: ext_deriv(ZERO),
    "int_deriv": lambda: int_deriv(FIELD2),
    "laplacian": lambda: laplacian(FIELD2),
    "tensor_deriv": lambda: tensor_deriv(FIELD2),
    "matrix_divergence": lambda: matrix_divergence(MATRIX),
    "matmul": lambda: MATRIX.matmul(MATRIX.transpose()),
    "mat_vec": lambda: mat_vec(MATRIX, FIELD2),
    "vec_mat": lambda: vec_mat(FIELD, MATRIX),
    "transpose": lambda: MATRIX.transpose(),
    "transpose-zero": lambda: MATRIX_ZERO.transpose(),
    "matrix-add": lambda: MATRIX + MATRIX,
    "matrix-add-zero": lambda: MATRIX + MATRIX_ZERO,
    "zero-add-matrix": lambda: MATRIX_ZERO + MATRIX,
    "matrix-neg": lambda: -MATRIX,
    "matrix-scale": lambda: MATRIX * Fraction(1, 2),
    "copy": lambda: copy.copy(FIELD),
    "deepcopy": lambda: copy.deepcopy(FIELD),
    "pickle": lambda: pickle.loads(pickle.dumps(FIELD)),
    "matrix-copy": lambda: copy.copy(MATRIX),
    "matrix-deepcopy": lambda: copy.deepcopy(MATRIX),
    "matrix-pickle": lambda: pickle.loads(pickle.dumps(MATRIX)),
}


@pytest.fixture(scope="module")
def trusted_results():
    return {name: build() for name, build in TRUSTED.items()}


@pytest.mark.parametrize("name", TRUSTED)
def test_trusted_results_are_immutable_and_own_their_terms(name, trusted_results):
    result = trusted_results[name]
    message = f"{type(result).__name__} is immutable"
    for field in ("metric", "_terms", *type(result).__slots__, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(result, field, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(result, field)
    others = [*OPERANDS, *(v for n, v in trusted_results.items() if n != name)]
    assert all(result._terms is not v._terms for v in others)
    # a polynomial coefficient is stored as flat terms, never as a PolyScalar of its own
    assert all(c and type(c) in (int, Fraction) for c in result._terms.values())


# -- every formal result is its own immutable value -------------------------------------

EXPR = FormalExpr([(("ext",), A, 2), ((), J, -1)])
EXPR2 = FormalExpr([((), J, 1), (("int",), A, Fraction(1, 2))])
DX = FormalExpr([(("tensor",), A, 3), (("tensor",), J, -1)])
DENSITY = LagrangianDensity([(Fraction(-1, 2), (DerivOp.EXT, A), (DerivOp.EXT, A)),
                             (1, (DerivOp.ID, J), (DerivOp.ID, A)),
                             (Fraction(1, 3), (DerivOp.INT, A), (DerivOp.INT, A))])
TENSOR_DENSITY = LagrangianDensity([(Fraction(1, 2), (DerivOp.TENSOR, A), (DerivOp.TENSOR, A)),
                                    (1, (DerivOp.ID, A), (DerivOp.ID, J))])
FORMAL_OPERANDS = (EXPR, EXPR2, DX, DENSITY, TENSOR_DENSITY)
CFG = MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 2))


def _sides(eq):
    return eq.lhs, eq.rhs


FORMAL = {
    "add": lambda: (EXPR + EXPR2,),
    "sub": lambda: (EXPR - EXPR2,),
    "sub-self": lambda: (EXPR - EXPR,),
    "neg": lambda: (-EXPR,),
    "scale": lambda: (EXPR * Fraction(2, 3),),
    "scale-one": lambda: (1 * EXPR,),
    "apply": lambda: (EXPR2.apply("ext"),),
    "divergence": lambda: (DX.divergence(),),
    "vderiv": lambda: (vderiv(DENSITY, (DerivOp.EXT, A)),),
    "exterior-route": lambda: _sides(euler_lagrange_exterior(DENSITY)),
    "tensor-route": lambda: _sides(euler_lagrange_tensor(TENSOR_DENSITY)),
    "derive_equations": lambda: _sides(derive_equations(CFG)),
    "wave_form": lambda: _sides(wave_form(CFG)),
    "dual_theory": lambda: tuple(side for eq in dual_theory(M13, 2) for side in _sides(eq)),
    "density-add": lambda: (DENSITY + TENSOR_DENSITY,),
    "density-sub": lambda: (DENSITY - DENSITY,),
    "density-neg": lambda: (-DENSITY,),
    "density-scale": lambda: (DENSITY * 2,),
    "copy": lambda: (copy.copy(EXPR), copy.copy(DENSITY)),
    "deepcopy": lambda: (copy.deepcopy(EXPR), copy.deepcopy(DENSITY)),
    "pickle": lambda: tuple(pickle.loads(pickle.dumps(v)) for v in (EXPR, DENSITY)),
}


@pytest.fixture(scope="module")
def formal_results():
    return {name: build() for name, build in FORMAL.items()}


@pytest.mark.parametrize("name", FORMAL)
def test_formal_results_are_immutable_and_own_their_terms(name, formal_results):
    others = [*FORMAL_OPERANDS, *(v for n, vs in formal_results.items() if n != name for v in vs)]
    for pos, result in enumerate(formal_results[name]):
        message = f"{type(result).__name__} is immutable"
        for field in ("terms", "_terms", "other"):
            with pytest.raises(AttributeError, match=message):
                setattr(result, field, 1)
            with pytest.raises(AttributeError, match=message):
                delattr(result, field)
        siblings = formal_results[name][:pos] + formal_results[name][pos + 1:]
        assert all(result._terms is not v._terms for v in (*others, *siblings))
        assert all(c and type(c) in (int, Fraction) for c in result._terms.values())
