"""Flat term storage: one dict of (blade, monomial) keys per value, and its limits.

A multivector or matrix keeps every coefficient in one dict whose keys
pack the blade part and the monomial (``mvcalc.poly``), and records
whether its coefficients are polynomials.  Each exponent field has
``WIDTH`` bits, the top one a guard bit: MAX_EXPONENT works through every
operation, and one more raises ``AlgebraError`` (``ExprError`` at its
offset in the parser, exit 2 in the CLI) instead of carrying into the
next coordinate's field.

The views rebuild the public form: ``Multivector(m, g, v.terms) == v`` for
rational, polynomial, mixed and constant-polynomial values, copies and
pickles keep the coefficient kind, and the text and JSON forms equal a
reference written here from the views alone.
"""

import contextlib
import copy
import io
import json
import pickle
from fractions import Fraction

import pytest

from mvcalc import AlgebraError, ExprError, Metric, Multivector, MvMatrix, PolyScalar, cli, eqdoc
from mvcalc.calculus import (directional_deriv, ext_deriv, int_deriv, laplacian,
                             matrix_divergence, tensor_deriv)
from mvcalc.parser import parse_expr
from mvcalc.poly import MAX_EXPONENT, WIDTH
from mvcalc.randgen import (random_constant_field, random_field, random_matrix_field,
                            random_poly, rng_for)
from mvcalc.verify import BATTERY_METRICS

M13 = Metric(1, 3)
TOP = MAX_EXPONENT


def x(i, power=1, nvars=4):
    return PolyScalar.variable(nvars, i, power)


def test_the_width_leaves_a_guard_bit_per_field():
    assert MAX_EXPONENT == (1 << WIDTH - 1) - 1
    assert x(0, TOP).terms == {(TOP, 0, 0, 0): 1}
    with pytest.raises(AlgebraError, match=f"exponent above {TOP}"):
        x(0, TOP + 1)
    with pytest.raises(AlgebraError, match=f"exponent above {TOP}"):
        PolyScalar(2, {(0, TOP + 1): 1})


@pytest.mark.parametrize("left, right", [(TOP - 1, 1), (1, TOP - 1), (TOP // 2, TOP - TOP // 2)])
def test_products_reach_the_largest_exponent_and_no_further(left, right):
    p, q = x(1, left) + x(0), x(1, right) * 3
    assert (p * q).terms == {(0, TOP, 0, 0): 3, (1, right, 0, 0): 3}
    with pytest.raises(AlgebraError, match=f"exponent above {TOP}"):
        p * (q * x(1))  # one more would carry into x2's field


def test_fields_reach_the_largest_exponent_and_no_further():
    high = Multivector(M13, 1, {(0,): x(2, TOP - 1), (1,): 1})
    vector = Multivector.blade(M13, (3,), x(2))
    assert high.wedge(vector).terms == {(0, 3): x(2, TOP), (1, 3): x(2)}
    assert (high * x(2)).coefficient((0,)) == x(2, TOP)
    assert high.dot(Multivector.blade(M13, (0,), x(2))) == -x(2, TOP)
    top = high * x(2)
    for overflow in (lambda: top.wedge(vector), lambda: top * x(2),
                     lambda: top.left_contract(Multivector.blade(M13, (0, 3), x(2))),
                     lambda: top.dot(Multivector.blade(M13, (0,), x(2))),
                     lambda: directional_deriv(Multivector.blade(M13, (2,), x(2, 2)), top),
                     lambda: tensor_deriv(top).matmul(MvMatrix.basis(M13, (0,), (1,), x(2, 2))),
                     lambda: tensor_deriv(top).dot(MvMatrix.basis(M13, (2,), (0,), x(2, 2)))):
        with pytest.raises(AlgebraError, match=f"exponent above {TOP}"):
            overflow()


def test_derivatives_lower_the_largest_exponent():
    top = Multivector.blade(M13, (1,), x(0, TOP) * x(3, TOP))
    assert top.coefficient((1,)).partial(0) == TOP * x(0, TOP - 1) * x(3, TOP)
    # d^ (x0^T x3^T e1) = D_00 T x0^(T-1) x3^T e01 + D_33 T x0^T x3^(T-1) e31
    assert ext_deriv(top) == Multivector(M13, 2, {
        (0, 1): -TOP * x(0, TOP - 1) * x(3, TOP), (1, 3): -TOP * x(0, TOP) * x(3, TOP - 1)})
    assert int_deriv(top).is_zero()
    assert laplacian(top).coefficient((1,)) == (-TOP * (TOP - 1) * x(0, TOP - 2) * x(3, TOP)
                                                + TOP * (TOP - 1) * x(0, TOP) * x(3, TOP - 2))
    assert matrix_divergence(tensor_deriv(top)) == laplacian(top)


def test_the_parser_takes_the_largest_exponent_and_refuses_the_next():
    assert parse_expr(f"x3^{TOP} ^ e[1]", M13) == Multivector.blade(M13, (1,), x(3, TOP))
    assert parse_expr(f"d^ (x0^{TOP} ^ e[1])", M13) == Multivector.blade(
        M13, (0, 1), -TOP * x(0, TOP - 1))
    # a literal fails where it stands, a product at its operator
    for text, offset in [(f"x3^{TOP + 1}", 0), (f"e[1] + x0^{TOP + 1} ^ e[1]", 7),
                         (f"x0^{TOP} ^ x0", len(f"x0^{TOP} ")),
                         (f"x1 ^ (x1^{TOP} ^ e[0]) . e[0]", 3)]:
        with pytest.raises(ExprError, match=f"exponent above {TOP}") as caught:
            parse_expr(text, M13)
        assert caught.value.offset == offset, text


@pytest.mark.parametrize("text", [f"x3^{TOP + 1}", f"x0^{TOP} ^ x0 ^ e[1]",
                                  f"(x0^{TOP} ^ e[1]) . (x0 ^ e[1])"])
def test_the_cli_exits_2_past_the_largest_exponent(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["eval", text, "--k", "1", "--n", "3"])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: exponent above") and "Traceback" not in err.getvalue()


def test_random_polynomials_refuse_a_degree_past_the_width():
    assert random_poly(rng_for(1, "top"), 1, max_terms=1, max_degree=TOP)
    with pytest.raises(AlgebraError, match=f"exponent above {TOP}"):
        random_poly(rng_for(1, "top"), 1, max_terms=1, max_degree=TOP + 1)


# -- round trips through the views --------------------------------------------------


def _values(metric):
    """Rational, polynomial, mixed and constant-polynomial fields and matrices."""
    rng = rng_for(3, f"unit/flat/{metric.k},{metric.n}")
    dim, out = metric.dim, []
    for grade in range(dim + 1):
        ints = random_constant_field(rng, metric, grade) * Fraction(1, 2)
        polys = random_field(rng, metric, grade)
        constants = Multivector(metric, grade, {I: PolyScalar.constant(dim, c)
                                                for I, c in ints.terms.items()})
        out += [ints, polys, ints + polys, constants, Multivector.zero(metric, grade)]
    for rows in range(2):
        matrix = random_matrix_field(rng, metric, rows, 1)
        rational = MvMatrix(metric, rows, 1, {key: 3 for key in matrix.terms})
        out += [matrix, rational, matrix + rational, rational * PolyScalar.constant(dim, 2)]
    return out


def _kind(value):
    """The type of each coefficient of the view, through every polynomial."""
    return sorted((key, type(c).__name__, sorted((e, type(r).__name__) for e, r in c.terms.items())
                   if isinstance(c, PolyScalar) else None) for key, c in value.terms.items())


def _rebuilt(value):
    if isinstance(value, Multivector):
        return Multivector(value.metric, value.grade, value.terms)
    return MvMatrix(value.metric, value.row_grade, value.col_grade, value.terms)


@pytest.mark.parametrize("metric", BATTERY_METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_views_rebuild_every_kind_of_value(metric):
    values = _values(metric)
    kinds = {frozenset(map(type, v.terms.values())) for v in values}
    assert frozenset({PolyScalar}) in kinds and any(k and PolyScalar not in k for k in kinds)
    for value in values:
        for twin in (_rebuilt(value), copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and twin.terms == value.terms
            assert _kind(twin) == _kind(value)


def test_a_polynomial_value_shows_every_coefficient_as_a_polynomial():
    # a mixed value: its rational blades read as constant polynomials
    mixed = Multivector(M13, 1, {(0,): 3, (1,): x(0)})
    assert mixed.terms == {(0,): 3, (1,): x(0)}
    assert type(mixed.terms[(0,)]) is PolyScalar and type(mixed.coefficient((0,))) is PolyScalar
    assert mixed.coefficient((2,)) == 0 and type(mixed.coefficient((2,))) is int
    constant = Multivector.scalar(M13, PolyScalar.constant(4, 2))
    assert type(constant.scalar_value()) is PolyScalar and constant == Multivector.scalar(M13, 2)
    assert type(Multivector.scalar(M13, 2).scalar_value()) is int
    # a dot with a polynomial value is a polynomial; a sum that cancels is the int 0
    assert type(mixed.dot(Multivector.blade(M13, (0,)))) is PolyScalar
    assert mixed.dot(Multivector.blade(M13, (2,))) == 0


def _reference_text(value):
    """The text of a multivector from its view, as the format documents it."""
    if value.grade == 0 and not value.is_zero():
        return str(value.scalar_value())
    pieces = []
    for indices, coeff in sorted(value.terms.items()):
        blade = "e[" + ",".join(map(str, indices)) + "]"
        if isinstance(coeff, PolyScalar) and len(coeff.terms) > 1:
            negative, text = False, f"({coeff}) ^ {blade}"
        else:
            magnitude = str(coeff).removeprefix("-")
            negative, text = str(coeff).startswith("-"), (
                blade if magnitude == "1" else f"{magnitude} ^ {blade}")
        pieces.append((" - " if negative else " + ") + text if pieces else
                      ("-" if negative else "") + text)
    return "".join(pieces) or "0"


@pytest.mark.parametrize("metric", BATTERY_METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_text_and_json_match_a_reference_from_the_views(metric):
    for value in _values(metric):
        if isinstance(value, MvMatrix):
            entries = ", ".join(f"w[{','.join(map(str, r))};{','.join(map(str, c))}]*{v}"
                                for (r, c), v in sorted(value.terms.items()))
            assert repr(value) == (f"<MvMatrix ({metric.k},{metric.n}) grades "
                                   f"({value.row_grade},{value.col_grade}): {entries or '0'}>")
            continue
        assert str(value) == _reference_text(value)
        assert parse_expr(str(value), metric) == value
        assert json.loads(eqdoc.dumps_value(value)) == {
            "grade": value.grade, "metric": {"k": metric.k, "n": metric.n},
            "terms": [{"coeff": str(c), "indices": list(indices)}
                      for indices, c in sorted(value.terms.items())]}
