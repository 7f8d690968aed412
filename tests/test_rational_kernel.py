"""Blade products on each route of the kernel, checked against termwise sums.

``Multivector._product`` picks a route per product: an empty operand gives
the zero of the stated grade, a single-term operand runs ``_accumulate``
(one rule call per pair), and two multi-term operands run
``_accumulate_forms`` on the rule's per-mask form.  On that last route,
operands whose coefficients are all ints and Fractions, with some
denominator above 1, are multiplied as integer numerators over D_l D_r
(``_lift``).  ``dot`` runs none of them: it sums over shared blades.  Each
product is checked against the sum of its single-term products, which take
the rule-call route, and every coefficient must come out in canonical form:
an int when integral, a Fraction otherwise, never zero.  A spy on the three
kernel functions checks the route itself.
"""

from fractions import Fraction
from functools import reduce
import itertools
import operator
import random

import pytest

from mvcalc import blades
from mvcalc.blades import Metric, Multivector, _lift
from mvcalc.poly import PolyScalar

PRODUCTS = ("wedge", "left_contract", "right_contract", "dot")
SPLITS = [(k, dim - k) for dim in range(1, 6) for k in range(dim + 1)]
PRIMES = [10007, 10009, 10037, 1000003, 998244353, 2**61 - 1]


def _nonzero(rng, bound):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def _int(rng, pos):
    return _nonzero(rng, 9)


def _small(rng, pos):
    return Fraction(_nonzero(rng, 20), rng.randint(2, 7))


def _large(rng, pos):
    return Fraction(rng.randrange(-10**15, 10**15) or 1, rng.choice(PRIMES))


def _mixed(rng, pos):
    return (_int if pos % 2 else _small)(rng, pos)


STYLES = {"int": _int, "small": _small, "large": _large, "mixed": _mixed}
STYLE_PAIRS = [("small", "small"), ("int", "small"), ("large", "large"),
               ("mixed", "large"), ("int", "int")]


def _operand(rng, metric, grade, style):
    """Every blade of ``grade`` with a nonzero coefficient of ``style``."""
    make = STYLES[style]
    return Multivector(metric, grade, {I: make(rng, pos)
                                       for pos, I in enumerate(metric.blades(grade))})


def _termwise(kind, a, b):
    """The product as a sum of products of single-term pieces, which are never lifted."""
    pieces = [[Multivector(x.metric, x.grade, {I: c}) for I, c in x.terms.items()]
              for x in (a, b)]
    return reduce(operator.add, (getattr(p, kind)(q) for p, q in itertools.product(*pieces)))


def _should_lift(a, b):
    coeffs = list(a.terms.values()) + list(b.terms.values())
    return (len(a.terms) > 1 and len(b.terms) > 1
            and all(type(c) in (int, Fraction) for c in coeffs)
            and any(type(c) is Fraction for c in coeffs))


def _expected_route(kind, a, b):
    """The kernel calls one product of ``a`` and ``b`` should make, in order; ``dot``
    sums over shared blades and makes none."""
    if kind == "dot" or a.is_zero() or b.is_zero():
        return []
    if len(a.terms) == 1 or len(b.terms) == 1:
        return ["pairs"]
    return ["lifted" if _should_lift(a, b) else "as given", "forms"]


@pytest.fixture
def route(monkeypatch):
    """The kernel calls made since the last clear: "pairs", "lifted"/"as given", "forms"."""
    calls = []

    def spy(name, tag):
        real = getattr(blades, name)

        def wrapper(*args):
            result = real(*args)
            calls.append(tag(result))
            return result
        monkeypatch.setattr(blades, name, wrapper)

    spy("_accumulate", lambda _: "pairs")
    spy("_accumulate_forms", lambda _: "forms")
    spy("_lift", lambda lifted: "as given" if lifted is None else "lifted")
    return calls


def _assert_canonical(value):
    coeffs = list(value.terms.values()) if isinstance(value, Multivector) else [value]
    for c in coeffs:
        assert type(c) in (int, Fraction), c
        assert type(c) is int or c.denominator != 1, c
    if isinstance(value, Multivector):
        assert all(coeffs)


def _check(kind, a, b):
    got = getattr(a, kind)(b)
    assert got == _termwise(kind, a, b)
    _assert_canonical(got)
    return got


def _grade_pairs(kind, dim):
    pairs = itertools.product(range(dim + 1), repeat=2)
    return [(ga, gb) for ga, gb in pairs if kind != "dot" or ga == gb]


@pytest.mark.parametrize("left_style, right_style", STYLE_PAIRS,
                         ids=[f"{left}-{right}" for left, right in STYLE_PAIRS])
@pytest.mark.parametrize("k, n", SPLITS)
def test_lifted_products_match_termwise_sums(route, k, n, left_style, right_style):
    metric = Metric(k, n)
    rng = random.Random(f"rational-kernel:{k}:{n}:{left_style}:{right_style}")
    for kind in PRODUCTS:
        for ga, gb in _grade_pairs(kind, metric.dim):
            a = _operand(rng, metric, ga, left_style)
            b = _operand(rng, metric, gb, right_style)
            route.clear()
            getattr(a, kind)(b)
            assert route == _expected_route(kind, a, b), (kind, ga, gb)
            _check(kind, a, b)


@pytest.mark.parametrize("kind, ga, gb", [("wedge", 2, 3), ("left_contract", 2, 4),
                                          ("right_contract", 5, 2), ("dot", 3, 3)])
def test_lifted_products_in_dimension_seven(kind, ga, gb):
    metric = Metric(2, 5)
    rng = random.Random(f"rational-kernel:7:{kind}")
    a, b = _operand(rng, metric, ga, "large"), _operand(rng, metric, gb, "mixed")
    assert _lift(a._terms, b._terms) is not None
    _check(kind, a, b)


E4 = Metric(0, 4)
M13 = Metric(1, 3)
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def test_cancelled_sums_leave_no_terms():
    a = Multivector(M13, 1, {(0,): HALF, (1,): THIRD})
    assert _lift(a._terms, a._terms) is not None
    wedge = _check("wedge", a, a)
    assert wedge.is_zero() and wedge.grade == 2
    b = Multivector(E4, 1, {(0,): Fraction(2, 3), (1,): -1})
    dot = _check("dot", Multivector(E4, 1, {(0,): HALF, (1,): THIRD}), b)
    assert dot == 0 and type(dot) is int
    # the e01 terms cancel, (1/2)(1/3) - (1/2)(1/3); the other five stay
    c = Multivector(E4, 1, {(0,): HALF, (1,): HALF, (2,): 3})
    d = Multivector(E4, 1, {(0,): THIRD, (1,): THIRD, (3,): Fraction(5, 7)})
    partly = _check("wedge", c, d)
    assert (0, 1) not in partly.terms and len(partly.terms) == 5


def test_integral_results_are_ints():
    a = Multivector(E4, 1, {(0,): HALF, (1,): HALF})
    b = Multivector(E4, 1, {(2,): 2, (3,): 4})
    wedge = _check("wedge", a, b)
    assert wedge.terms == {(0, 2): 1, (0, 3): 2, (1, 2): 1, (1, 3): 2}
    dot = _check("dot", Multivector(E4, 1, {(0,): HALF, (1,): THIRD}),
                 Multivector(E4, 1, {(0,): 2, (1,): 3}))
    assert dot == 2 and type(dot) is int
    left = _check("left_contract", Multivector(E4, 1, {(0,): THIRD, (1,): Fraction(2, 3)}),
                  Multivector(E4, 2, {(0, 2): 3, (1, 2): 3, (2, 3): Fraction(1, 5)}))
    assert left.terms == {(2,): -3}


def test_operands_outside_the_rule_decline_the_lift(route):
    x0 = PolyScalar.variable(4, 0)
    fractions = Multivector(M13, 1, {(0,): HALF, (1,): THIRD})
    poly = Multivector(M13, 1, {(0,): x0, (2,): THIRD})
    ints = Multivector(M13, 1, {(0,): 2, (3,): -5})
    single = Multivector(M13, 1, {(2,): Fraction(5, 7)})
    for a, b in [(poly, fractions), (fractions, poly), (ints, ints),
                 (single, fractions), (fractions, single)]:
        for kind in PRODUCTS:
            route.clear()
            got = getattr(a, kind)(b)
            assert "lifted" not in route and route == _expected_route(kind, a, b)
            assert got == _termwise(kind, a, b)
    assert fractions.wedge(poly).coefficient((0, 1)) == -(x0 * THIRD)
    assert _lift(ints._terms, fractions._terms) is not None


def test_hodge_duals_run_no_product_kernel(route):
    # each dual relabels its terms one to one, so no product route runs
    x0 = PolyScalar.variable(4, 0)
    for value in (Multivector(M13, 2, {(0, 1): HALF, (1, 2): THIRD, (2, 3): 4}),
                  Multivector(M13, 1, {(0,): x0, (3,): Fraction(5, 7)}),
                  Multivector(E4, 3, {(0, 1, 3): 2}), Multivector(E4, 2)):
        route.clear()
        assert value.hodge().inv_hodge() == value == value.inv_hodge().hodge()
        assert route == []


def test_dot_is_canonical_on_the_unlifted_path_too():
    # single terms and polynomials are not lifted; their sums came back
    # as Fraction(1, 1), Fraction(0, 1) and a zero PolyScalar
    x0 = PolyScalar.variable(4, 0)
    half = Multivector(E4, 1, {(0,): HALF})
    assert type(half.dot(Multivector(E4, 1, {(0,): 2}))) is int
    assert type(half.dot(Multivector(E4, 1, {(1,): 2}))) is int
    poly = Multivector(E4, 1, {(0,): x0, (1,): x0})
    cancelled = poly.dot(Multivector(E4, 1, {(0,): 1, (1,): -1}))
    assert cancelled == 0 and type(cancelled) is int


# -- every route: operand sizes 0, 1 and 2+ with int, Fraction and PolyScalar terms


def _poly(rng, pos, nvars):
    exps = tuple(rng.randint(0, 2) for _ in range(nvars))
    other = tuple(rng.randint(0, 1) for _ in range(nvars))
    return PolyScalar(nvars, {exps: _small(rng, pos), other: _int(rng, pos)})


COEFFS = {"int": lambda rng, pos, nvars: _int(rng, pos),
          "fraction": lambda rng, pos, nvars: _small(rng, pos),
          "poly": _poly}
SIZES = (0, 1, 2, None)  # None: every blade of the grade


def _sized(rng, metric, grade, size, coeffs):
    """``size`` blades of ``grade`` (fewer if the grade has fewer) with ``coeffs`` terms."""
    blades = list(metric.blades(grade))
    chosen = blades if size is None else rng.sample(blades, min(size, len(blades)))
    return Multivector(metric, grade, {I: COEFFS[coeffs](rng, pos, metric.dim)
                                       for pos, I in enumerate(chosen)})


def _stated_grade(kind, ga, gb):
    return {"wedge": ga + gb, "left_contract": gb - ga, "right_contract": ga - gb}[kind]


@pytest.mark.parametrize("right_coeffs", COEFFS)
@pytest.mark.parametrize("left_coeffs", COEFFS)
@pytest.mark.parametrize("k, n", [(0, 3), (1, 3), (2, 2)])
def test_every_route_matches_termwise_sums(route, k, n, left_coeffs, right_coeffs):
    metric = Metric(k, n)
    rng = random.Random(f"kernel-routes:{k}:{n}:{left_coeffs}:{right_coeffs}")
    seen = set()
    for kind in PRODUCTS:
        for ga, gb in _grade_pairs(kind, metric.dim):
            for size_a, size_b in itertools.product(SIZES, repeat=2):
                a = _sized(rng, metric, ga, size_a, left_coeffs)
                b = _sized(rng, metric, gb, size_b, right_coeffs)
                route.clear()
                got = getattr(a, kind)(b)
                assert route == _expected_route(kind, a, b), (kind, a, b)
                seen.add(tuple(route))
                if a.is_zero() or b.is_zero():
                    if kind == "dot":
                        assert got == 0 and type(got) is int
                    else:
                        assert got.is_zero() and got.grade == _stated_grade(kind, ga, gb)
                else:
                    assert got == _termwise(kind, a, b), (kind, a, b)
    # a Fraction draw may be integral, so an int-and-Fraction pair can stay as given too
    rational = "poly" not in (left_coeffs, right_coeffs)
    lifts = rational and "fraction" in (left_coeffs, right_coeffs)
    assert {(), ("pairs",), ("lifted" if lifts else "as given", "forms")} <= seen
    assert lifts or ("lifted", "forms") not in seen


@pytest.mark.parametrize("kind", PRODUCTS)
def test_an_empty_operand_gives_the_stated_zero(route, kind):
    full = _sized(random.Random(kind), E4, 2, None, "fraction")
    zero = Multivector.zero
    # wedge 3 + 2 and 4 + 4 pass the top grade; the contractions go below 0
    grades = [(2, 2)] if kind == "dot" else [(3, 2), (2, 3), (4, 4), (0, 2)]
    for ga, gb in grades:
        pairs = [(zero(E4, ga), full if gb == 2 else zero(E4, gb)),
                 (full if ga == 2 else zero(E4, ga), zero(E4, gb))]
        for a, b in pairs:
            got = getattr(a, kind)(b)
            if kind == "dot":
                assert got == 0 and type(got) is int
            else:
                assert got.is_zero() and got.grade == _stated_grade(kind, ga, gb)
    assert route == []
