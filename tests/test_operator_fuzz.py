"""Fuzz properties for the linear rules that the five value types share.

``+``, ``-``, ``*``, ``==``, ``copy`` and ``pickle`` run on ``PolyScalar``,
``Multivector``, ``MvMatrix``, ``FormalExpr`` and ``LagrangianDensity``,
with valid operands mixed with bad ones: non-coefficient scalars (float,
bool, Decimal, bytes, set, None), values of the same type in another
space (another metric, another variable count, a second dynamical symbol)
and values of another type.  Each call returns an exact value or raises
``AlgebraError`` (``GradeError`` is one) or a ``TypeError`` that names the
operator written; it never coerces a bad operand into a result.  On valid
operands ``-`` is adding ``(-1) *`` and the negation, zeros included, and
``+`` is associative.
"""

import copy
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mvcalc import (AlgebraError, DerivOp, FieldSymbol, FormalExpr, LagrangianDensity, Metric,
                    Multivector, MvMatrix, PolyScalar)

# bounded and untimed, so the tier-1 run stays short and a slow machine cannot fail it
FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

M, OTHER = Metric(1, 2), Metric(0, 3)  # one dimension, so the same keys and coefficients fit both
A, J = FieldSymbol("A", 1, "dynamical"), FieldSymbol("J", 1, "source")
B = FieldSymbol("B", 1, "dynamical")
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "==": operator.eq}
SEQUENCE = {"+": "can't concat", "*": "can't multiply sequence"}
BAD = (1.5, True, False, Decimal("2"), b"\x01", {1}, None)
TYPES = (PolyScalar, Multivector, MvMatrix, FormalExpr, LagrangianDensity)

rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


def polys(nvars: int):
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(exps, rationals, max_size=3).map(lambda t: PolyScalar(nvars, t))


coeffs = st.one_of(rationals, polys(3))


def multivectors(metric: Metric):
    return st.dictionaries(st.sampled_from(list(metric.blades(1))), coeffs, max_size=3).map(
        lambda t: Multivector(metric, 1, t))


def matrices(metric: Metric):
    keys = [(i, j) for i in metric.blades(1) for j in metric.blades(2)]
    return st.dictionaries(st.sampled_from(keys), coeffs, max_size=3).map(
        lambda t: MvMatrix(metric, 1, 2, t))


CHAINS = [(), ("ext",), ("int", "ext"), ("lap",)]
formal = st.lists(st.tuples(st.sampled_from(CHAINS), st.sampled_from([A, J]), rationals),
                  max_size=3).map(FormalExpr)
SQUARE_A, SQUARE_B = ((DerivOp.ID, A), (DerivOp.ID, A)), ((DerivOp.ID, B), (DerivOp.ID, B))
PAIRS = [((DerivOp.EXT, A), (DerivOp.EXT, A)), ((DerivOp.ID, A), (DerivOp.ID, J)),
         ((DerivOp.INT, J), (DerivOp.INT, A))]


def densities(square, pairs):
    """Densities with a nonzero ``square`` term, so each has its dynamical symbol."""
    terms = st.lists(st.tuples(rationals, st.sampled_from(pairs)), max_size=2) if pairs else st.just([])
    return st.tuples(rationals.filter(bool), terms).map(lambda drawn: LagrangianDensity(
        [(drawn[0], *square)] + [(c, left, right) for c, (left, right) in drawn[1]]))


# one family of valid values per type, each in one space, and its foreign twin in another
FAMILIES = {
    "PolyScalar": (polys(3), polys(2)),
    "Multivector": (multivectors(M), multivectors(OTHER)),
    "MvMatrix": (matrices(M), matrices(OTHER)),
    "FormalExpr": (formal, st.nothing()),
    "LagrangianDensity": (densities(SQUARE_A, PAIRS), densities(SQUARE_B, [])),
}
any_value = st.one_of(*(valid for valid, _ in FAMILIES.values()))


@st.composite
def operand_pairs(draw):
    """(left value, right operand, kind): kind is "valid", "bad" or "foreign"."""
    valid, foreign = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    left = draw(valid)
    kind, right = draw(st.one_of(
        st.tuples(st.just("valid"), st.one_of(valid, any_value, rationals, st.integers(-2, 2))),
        st.tuples(st.just("bad"), st.sampled_from(BAD)),
        st.tuples(st.just("foreign"), foreign)))
    return (left, right, kind) if draw(st.booleans()) else (right, left, kind)


def exact_value(value) -> bool:
    """A value of one of the five types whose every coefficient is exact and nonzero."""
    if type(value) not in TYPES:
        return False
    return all(c and (type(c) is int or type(c) is Fraction and c.denominator != 1
                      or type(c) is PolyScalar and exact_value(c)) for c in value._terms.values())


def apply(op: str, left, right):
    """The result of ``left op right``, or None when it is refused in a documented way."""
    try:
        return OPS[op](left, right)
    except AlgebraError:
        return None
    except TypeError as err:
        # Python's unsupported-operand message, or its sequence protocol's (a bytes operand)
        assert f"for {op}:" in str(err) or SEQUENCE.get(op, "?") in str(err), (op, left, right, err)
        return None


@FUZZ
@given(operand_pairs())
def test_operators_return_exact_values_or_refuse_the_operands(case):
    left, right, kind = case
    for op in OPS:
        result = apply(op, left, right)
        if op == "==":
            assert type(result) is bool
            assert kind == "valid" or result is False, (left, right)
        elif kind != "valid":
            assert result is None, (op, left, right, result)
        elif result is not None:
            assert exact_value(result), (op, left, right, result)


@FUZZ
@given(st.sampled_from(sorted(FAMILIES)).flatmap(lambda name: st.tuples(*[FAMILIES[name][0]] * 3)))
def test_linear_laws_hold_on_valid_operands(values):
    a, b, c = values
    assert a - b == a + (-1) * b
    assert (a + b) + c == a + (b + c)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = clone(a)
        assert type(twin) is type(a) and twin == a and exact_value(twin)


@FUZZ
@given(st.sampled_from(sorted(FAMILIES)).flatmap(lambda name: st.tuples(*[FAMILIES[name][0]] * 2)),
       st.booleans(), st.booleans())
def test_subtraction_is_adding_the_negation(values, zero_left, zero_right):
    a, b = values
    a, b = a * 0 if zero_left else a, b * 0 if zero_right else b
    difference, total = a - b, a + (-b)
    assert difference == total and exact_value(difference)
    # the same keys in the same order, with the same coefficient types
    assert list(difference._terms.items()) == list(total._terms.items())
    assert [type(c) for c in difference._terms.values()] == [type(c) for c in total._terms.values()]


@pytest.mark.parametrize("zero, value", [
    (Multivector.zero(M, 2), Multivector(M, 1, {(0,): 2, (2,): PolyScalar.variable(3, 1)})),
    (MvMatrix.zero(M, 2, 1), MvMatrix(M, 1, 2, {((0,), (1, 2)): Fraction(1, 2)})),
])
def test_a_zero_minus_a_value_takes_its_shape(zero, value):
    difference = zero - value
    assert difference._shape() == value._shape() and difference == -value


@FUZZ
@given(densities(SQUARE_A, PAIRS))
def test_density_difference_keeps_the_symbol_checks(density):
    a_source = FieldSymbol("A", 1, "source")
    clash = LagrangianDensity([(1, (DerivOp.ID, a_source), (DerivOp.ID, J))])
    with pytest.raises(AlgebraError, match="bound to two fields"):
        density - clash
    with pytest.raises(AlgebraError, match="more than one dynamical symbol"):
        density - LagrangianDensity([(1, *SQUARE_B)])
