"""Exhaustive check of every blade product against the documented tables.

Every pair of basis blades in every (k, n) with k + n <= 5 goes through
``wedge``, both contractions, ``dot``, ``hodge`` and ``inv_hodge``, and
every blade times a coordinate goes through the three first-order
derivatives.  Every blade in every (k, n) with k + n <= 4 goes, as the
partner of a d^ or d_| slot, through ``tensor_slot_matrix``.  The right
contraction and both duals, which the library derives from the
left-contraction rule, are also checked on multi-term operands through
k + n <= 6.  Expected values follow the product table in the
``mvcalc.blades`` docstring, the derivative sums in the
``mvcalc.calculus`` docstring and the slot entries in the
``tensor_slot_matrix`` docstring, with signs from the swap-counting
``transposition_parity`` on concatenated index tuples and metric signs
counted directly, so nothing here shares code with the product kernel.
"""

import itertools
from fractions import Fraction
import random

import pytest

from mvcalc import blades, calculus
from mvcalc.blades import Metric, Multivector
from mvcalc.calculus import ext_deriv, int_deriv, right_int_deriv
from mvcalc.matrices import MvMatrix
from mvcalc.poly import PolyScalar
from mvcalc.variational import DerivOp, FieldSymbol, LagrangianDensity, tensor_slot_matrix
from mvcalc.verify import transposition_parity

METRICS = [(k, dim - k) for dim in range(1, 6) for k in range(dim + 1)]

BLADE_ROWS = [
    "dot           e_I . e_J   = D_II            when I == J, else 0",
    "wedge         e_I ^ e_J   = s(I,J) e_{I+J}",
    "left int.     e_I _| e_J  = D_II s(J\\I, I) e_{J\\I}   when I <= J, else 0",
    "right int.    e_J |_ e_I  = D_II s(I, J\\I) e_{J\\I}   when I <= J, else 0",
    "hodge         e_I^H       = D_II s(I, Ic) e_{Ic}",
    "inv. hodge    e_I^(H-1)   = D_IcIc s(Ic, I) e_{Ic}",
]

DERIVATIVE_ROWS = [
    "ext_deriv(a)    = sum_{i not in I} D_ii s(i,I) d_i a_I e_{i+I}",
    "int_deriv(a)    = sum_{i in I} s(I\\i, i) d_i a_I e_{I\\i}",
    "right_int_deriv(a) = sum_{i in I} s(i, I\\i) d_i a_I e_{I\\i}",
]


SLOT_ROWS = [
    "ext slot:  W |_ e^i       entry (i, I): s(i, I) W_{i+I}          for i not in I",
    "int slot:  W ^ e^i        entry (i, I): D_ii s(I\\i, i) W_{I\\i}  for i in I",
]


def test_docstrings_carry_the_tables_checked_here():
    for row in BLADE_ROWS:
        assert row in blades.__doc__
    for row in DERIVATIVE_ROWS:
        assert row in calculus.__doc__
    for row in SLOT_ROWS:
        assert row in tensor_slot_matrix.__doc__


def _all_blades(dim):
    return [I for g in range(dim + 1) for I in itertools.combinations(range(dim), g)]


def _d(k, indices):
    """D_II: -1 per time-like axis in the list."""
    return -1 if sum(1 for i in indices if i < k) % 2 else 1


def _s(first, second):
    return transposition_parity(tuple(first) + tuple(second))[0]


def _minus(whole, part):
    """whole \\ part, or None when part is not contained."""
    if not set(part) <= set(whole):
        return None
    return tuple(i for i in whole if i not in part)


def _coefficients(kind, dim):
    if kind == "fraction":
        return Fraction(3, 2), Fraction(-2, 5)
    x_first = PolyScalar.variable(dim, 0)
    x_last = PolyScalar.variable(dim, dim - 1)
    return x_first + 1, 2 * x_last - Fraction(1, 3)


def _expect(metric, grade, blade, coeff):
    """Multivector with one term, or the zero of ``grade`` when blade is None."""
    return Multivector(metric, grade, {} if blade is None else {blade: coeff})


def _assert_same(result, expected):
    assert result.grade == expected.grade
    assert result.terms == expected.terms
    assert {I: type(c) for I, c in result.terms.items()} == {
        I: type(c) for I, c in expected.terms.items()}


@pytest.mark.parametrize("kind", ["fraction", "poly"])
@pytest.mark.parametrize("k, n", METRICS)
def test_binary_products_match_the_table(k, n, kind):
    metric = Metric(k, n)
    ca, cb = _coefficients(kind, metric.dim)
    for I, J in itertools.product(_all_blades(metric.dim), repeat=2):
        a = Multivector.blade(metric, I, ca)
        b = Multivector.blade(metric, J, cb)
        product = ca * cb

        sign, merged = transposition_parity(I + J)
        _assert_same(a.wedge(b), _expect(metric, len(I) + len(J),
                                          merged if sign else None, sign * product))

        rest = _minus(J, I)
        left = None if rest is None else _d(k, I) * _s(rest, I) * product
        _assert_same(a.left_contract(b), _expect(metric, len(J) - len(I), rest, left))

        rest = _minus(I, J)
        right = None if rest is None else _d(k, J) * _s(J, rest) * product
        _assert_same(a.right_contract(b), _expect(metric, len(I) - len(J), rest, right))

        if len(I) == len(J):
            assert a.dot(b) == (_d(k, I) * product if I == J else 0)


@pytest.mark.parametrize("kind", ["fraction", "poly"])
@pytest.mark.parametrize("k, n", METRICS)
def test_hodge_pair_matches_the_table(k, n, kind):
    metric = Metric(k, n)
    coeff, _ = _coefficients(kind, metric.dim)
    for I in _all_blades(metric.dim):
        comp = tuple(i for i in range(metric.dim) if i not in I)
        a = Multivector.blade(metric, I, coeff)
        _assert_same(a.hodge(), _expect(metric, len(comp), comp,
                                        _d(k, I) * _s(I, comp) * coeff))
        _assert_same(a.inv_hodge(), _expect(metric, len(comp), comp,
                                            _d(k, comp) * _s(comp, I) * coeff))


@pytest.mark.parametrize("k, n", METRICS)
def test_first_derivatives_match_the_sums(k, n):
    metric = Metric(k, n)
    dim = metric.dim
    for I, j in itertools.product(_all_blades(dim), range(dim)):
        # d_i (x_j) is 1 on axis j only, so each sum keeps at most the i = j term
        field = Multivector.blade(metric, I, PolyScalar.variable(dim, j))
        one = PolyScalar.constant(dim, 1)

        sign, merged = transposition_parity((j,) + I)
        _assert_same(ext_deriv(field), _expect(metric, len(I) + 1, merged if sign else None,
                                               _d(k, (j,)) * sign * one))

        rest = _minus(I, (j,))
        _assert_same(int_deriv(field), _expect(
            metric, len(I) - 1, rest, None if rest is None else _s(rest, (j,)) * one))
        _assert_same(right_int_deriv(field), _expect(
            metric, len(I) - 1, rest, None if rest is None else _s((j,), rest) * one))


METRICS_TO_4 = [(k, dim - k) for dim in range(1, 5) for k in range(dim + 1)]


@pytest.mark.parametrize("kind", ["fraction", "poly"])
@pytest.mark.parametrize("k, n", METRICS_TO_4)
def test_slot_matrix_entries_match_the_docstring(k, n, kind):
    # c (D a . W) with W = w e_K: a d^ slot has one entry per i in K, at (i, K\i), and a
    # d_| slot one per i not in K, at (i, K+i), each with the docstring's sign
    metric = Metric(k, n)
    w, _ = _coefficients(kind, metric.dim)
    c = Fraction(-5, 3)
    for K in _all_blades(metric.dim):
        partner = (DerivOp.ID, FieldSymbol("W", len(K), "source"))
        for op, grade in ((DerivOp.EXT, len(K) - 1), (DerivOp.INT, len(K) + 1)):
            if not 0 <= grade <= metric.dim:
                continue
            L = LagrangianDensity([(c, (op, FieldSymbol("a", grade)), partner)])
            entries = {}
            for i in range(metric.dim):
                if op is DerivOp.EXT and i in K:
                    rest = _minus(K, (i,))
                    entries[(i,), rest] = c * _s((i,), rest) * w
                elif op is DerivOp.INT and i not in K:
                    sign, merged = transposition_parity(K + (i,))
                    entries[(i,), merged] = c * metric.sign(i) * sign * w
            result = tensor_slot_matrix(L, {"a": Multivector.zero(metric, grade),
                                            "W": Multivector.blade(metric, K, w)})
            expected = MvMatrix(metric, 1, grade, entries)
            assert (result.row_grade, result.col_grade) == (1, grade), (K, op)
            assert result.terms == expected.terms, (K, op)
            assert {key: type(v) for key, v in result.terms.items()} == {
                key: type(v) for key, v in expected.terms.items()}, (K, op)


METRICS_TO_6 = [(k, dim - k) for dim in range(1, 7) for k in range(dim + 1)]


def _random_coefficient(rng, kind, dim):
    value = rng.choice([v for v in range(-9, 10) if v])
    if kind == "int":
        return value
    if kind == "fraction":
        return Fraction(value, rng.randint(2, 7))
    return PolyScalar.variable(dim, rng.randrange(dim)) * value + Fraction(1, rng.randint(1, 3))


def _random_operand(rng, dim, grade, kind):
    """Up to four blades of ``grade`` (every blade when fewer), as an index-list dict."""
    blades = list(itertools.combinations(range(dim), grade))
    return {I: _random_coefficient(rng, kind, dim) for I in rng.sample(blades, min(4, len(blades)))}


def _table_sum(metric, grade, products):
    """The Multivector of ``grade`` summing (blade, coefficient) products of the table."""
    out = {}
    for blade, c in products:
        out[blade] = out.get(blade, 0) + c
    return Multivector(metric, grade, out)


@pytest.mark.parametrize("kind", ["int", "fraction", "poly"])
@pytest.mark.parametrize("k, n", METRICS_TO_6)
def test_derived_products_match_the_table_on_multi_term_operands(k, n, kind):
    metric = Metric(k, n)
    dim = metric.dim
    rng = random.Random(f"derived-products:{k}:{n}:{kind}")
    full = tuple(range(dim))
    for ga in range(dim + 1):
        terms = _random_operand(rng, dim, ga, kind)
        a = Multivector(metric, ga, terms)
        comps = [(I, tuple(i for i in full if i not in I), c) for I, c in terms.items()]
        _assert_same(a.hodge(), _table_sum(metric, dim - ga, [
            (comp, _d(k, I) * _s(I, comp) * c) for I, comp, c in comps]))
        _assert_same(a.inv_hodge(), _table_sum(metric, dim - ga, [
            (comp, _d(k, comp) * _s(comp, I) * c) for I, comp, c in comps]))
        for gb in range(dim + 1):
            other = _random_operand(rng, dim, gb, kind)
            b = Multivector(metric, gb, other)
            # e_J |_ e_I = D_II s(I, J\I) e_{J\I} for I <= J
            _assert_same(a.right_contract(b), _table_sum(metric, ga - gb, [
                (rest, _d(k, I) * _s(I, rest) * cj * ci)
                for (J, cj), (I, ci) in itertools.product(terms.items(), other.items())
                if (rest := _minus(J, I)) is not None]))
