"""Blade products on each route of the kernel, checked against termwise sums.

``Multivector._product`` picks a route per product: an empty operand gives
the zero of the stated grade, two single-term rational operands take one
inline step (one rule call and no kernel call), and any other operands run
``_accumulate_forms`` on the rule's per-mask form, polynomial ones on
their flat keys, unless no pair can meet: then the product is the stated
zero with no kernel call.  A left blade A meets only the C(dim - g_l, m)
right blades B = (A & x) | S, S an m-subset of the axes outside A.  The
kernel probes the right operand for those (``probe``) when they are fewer
than its terms and both operands are rational; otherwise it tests every
pair (``scan``).  Two rational operands with some denominator above 1 are
multiplied as integer numerators over D_l D_r (``_lift``).  ``dot`` runs
no product kernel: it sums over shared blades, and two multi-term rational
operands go through ``_lift`` there too.  Each product is checked against
the sum of its single-term products, which take the inline step, and every
coefficient must come out in canonical form: an int when integral, a
Fraction otherwise, never zero.  A spy on the two kernel functions checks
the route itself.  Each value's integer numerators are computed on its first
lift and kept in its ``_ints`` slot (``_lifted``); a spy on ``lcm``, taken
once per value lifted, counts that work, and the results of reused values
must equal those of fresh equal ones and the model in ``bench/oracle.py``.
"""

import copy
from fractions import Fraction
from functools import reduce
import itertools
import math
import operator
import pathlib
import pickle
import random
import types

import pytest

from mvcalc import blades
from mvcalc.blades import Metric, Multivector, _lift
from mvcalc.matrices import MvMatrix
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


def _lift_tag(a, b):
    """What ``_lift`` makes of two rational operands: "lifted" iff some term is a Fraction."""
    coeffs = list(a.terms.values()) + list(b.terms.values())
    return "lifted" if any(type(c) is Fraction for c in coeffs) else "as given"


def _polynomial(value):
    return any(isinstance(c, PolyScalar) for c in value.terms.values())


def _expected_route(kind, a, b):
    """The kernel calls one product of ``a`` and ``b`` should make, in order."""
    if a.is_zero() or b.is_zero():
        return []
    poly = _polynomial(a) or _polynomial(b)
    if kind == "dot":
        return [_lift_tag(a, b)] if not poly and len(a.terms) > 1 and len(b.terms) > 1 else []
    if not poly and len(a.terms) == 1 == len(b.terms):
        return []
    lhs, rhs = (b, a) if kind == "right_contract" else (a, b)
    # |S| = m for the wedge's B = S and for the contraction's B = A | S
    m, free = rhs.grade - (0 if kind == "wedge" else lhs.grade), a.metric.dim - lhs.grade
    if not 0 <= m <= free:
        return []
    if poly:
        return ["scan"]
    return [_lift_tag(a, b), "probe" if math.comb(free, m) < len(rhs.terms) else "scan"]


@pytest.fixture
def route(monkeypatch):
    """The kernel calls made since the last clear: "lifted"/"as given", "probe"/"scan"."""
    calls = []

    def spy(name, tag):
        real = getattr(blades, name)

        def wrapper(*args):
            result = real(*args)
            calls.append(tag(result, args))
            return result
        monkeypatch.setattr(blades, name, wrapper)

    # the kernel's last argument is the probe grade m, or None for the pair scan
    spy("_accumulate_forms", lambda _, args: "scan" if args[-1] is None else "probe")
    spy("_lift", lambda lifted, _: "as given" if lifted is None else "lifted")
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


DENSE = [("wedge", 2, 3), ("wedge", 1, 4), ("left_contract", 2, 4), ("left_contract", 1, 3),
         ("right_contract", 5, 2), ("right_contract", 4, 1)]


@pytest.mark.parametrize("kind, ga, gb", DENSE + [("dot", 3, 3)])
@pytest.mark.parametrize("k, n", [(2, 5), (1, 7)])
def test_lifted_products_in_dimensions_seven_and_eight(route, k, n, kind, ga, gb):
    # every blade of both grades: the C(dim - g_l, m) blades a left term can meet are
    # fewer than the right operand's terms, so the kernel probes for them
    metric = Metric(k, n)
    rng = random.Random(f"rational-kernel:{metric.dim}:{kind}:{ga}")
    a, b = _operand(rng, metric, ga, "large"), _operand(rng, metric, gb, "mixed")
    assert _lift(a, b) is not None
    route.clear()
    _check(kind, a, b)  # the termwise products are single terms, which call no kernel
    assert route == _expected_route(kind, a, b) == ["lifted"] + ["probe"] * (kind != "dot")


E4 = Metric(0, 4)
M13 = Metric(1, 3)
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def test_cancelled_sums_leave_no_terms():
    a = Multivector(M13, 1, {(0,): HALF, (1,): THIRD})
    assert _lift(a, a) is not None
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
    for a, b in [(poly, fractions), (fractions, poly), (ints, ints), (single, single)]:
        for kind in PRODUCTS:
            route.clear()
            got = getattr(a, kind)(b)
            assert "lifted" not in route and route == _expected_route(kind, a, b)
            assert got == _termwise(kind, a, b)
    # one single-term operand is not enough to stay off the lift
    for a, b in [(single, fractions), (fractions, single)]:
        for kind in PRODUCTS:
            route.clear()
            got = getattr(a, kind)(b)
            assert route == _expected_route(kind, a, b)
            assert route[:1] == ([] if kind == "dot" else ["lifted"])
            assert got == _termwise(kind, a, b)
    assert fractions.wedge(poly).coefficient((0, 1)) == -(x0 * THIRD)
    assert _lift(ints, fractions) is not None


def test_hodge_duals_run_no_product_kernel(route):
    # each dual relabels its terms one to one, so no product route runs
    x0 = PolyScalar.variable(4, 0)
    for value in (Multivector(M13, 2, {(0, 1): HALF, (1, 2): THIRD, (2, 3): 4}),
                  Multivector(M13, 1, {(0,): x0, (3,): Fraction(5, 7)}),
                  Multivector(E4, 3, {(0, 1, 3): 2}), Multivector(E4, 2)):
        route.clear()
        assert value.hodge().inv_hodge() == value == value.inv_hodge().hodge()
        assert route == []


@pytest.mark.parametrize("k, n", [(1, 3), (2, 2), (3, 1)])
def test_single_term_products_with_integral_fraction_products_give_ints(route, k, n):
    # 1/2 * 2, 2/3 * 3/2, -3/4 * 4/3 and 2 * 1/2: the one inline step must store an int
    metric = Metric(k, n)
    pairs = [(HALF, 2), (Fraction(2, 3), Fraction(3, 2)), (Fraction(-3, 4), Fraction(4, 3)),
             (2, HALF)]
    hits = 0
    for kind in PRODUCTS:
        for ga, gb in _grade_pairs(kind, metric.dim):
            for I, J in itertools.product(metric.blades(ga), metric.blades(gb)):
                unit = getattr(Multivector.blade(metric, I), kind)(Multivector.blade(metric, J))
                for ca, cb in pairs:
                    route.clear()
                    got = getattr(Multivector.blade(metric, I, ca), kind)(
                        Multivector.blade(metric, J, cb))
                    assert route == [] and got == unit * int(ca * cb), (kind, I, J)
                    _assert_canonical(got)
                    hits += bool(got)
                    if kind != "dot":
                        assert all(type(c) is int for c in got.terms.values())
    assert hits


@pytest.mark.parametrize("k, n", [(0, 4), (1, 3), (2, 3)])
def test_dot_on_integer_numerators_matches_fraction_sums(route, k, n):
    metric = Metric(k, n)
    rng = random.Random(f"rational-dot:{k}:{n}")
    seen = set()
    for grade in range(1, metric.dim):
        for _ in range(20):
            # mixed operands: a Fraction at every other (a) or every third (b) blade
            a, b = (Multivector(metric, grade, {
                I: Fraction(_int(rng, pos), rng.randint(1, 9)) if pos % step == 0
                else _int(rng, pos) for pos, I in enumerate(metric.blades(grade))})
                for step in (2, 3))
            reference = sum((Fraction(c) * b.coefficient(I) * metric.sign_of(I)
                             for I, c in a.terms.items()), Fraction(0))
            route.clear()
            got = a.dot(b)
            assert got == reference and route == _expected_route("dot", a, b)
            _assert_canonical(got)
            seen.add(tuple(route))
    assert ("lifted",) in seen
    # an integral sum and one that cancels to 0 come back as ints
    a = Multivector(E4, 1, {(0,): HALF, (1,): THIRD, (2,): 2})
    integral = a.dot(Multivector(E4, 1, {(0,): 1, (1,): Fraction(3, 2), (2,): 3}))
    assert integral == 7 and type(integral) is int
    cancelled = a.dot(Multivector(E4, 1, {(0,): Fraction(2, 3), (1,): -1, (3,): 5}))
    assert cancelled == 0 and type(cancelled) is int


def test_matrix_dot_on_integer_numerators():
    rows = {((0,), (1,)): HALF, ((1,), (1,)): 3, ((2,), (0,)): Fraction(-5, 7)}
    cols = {((0,), (1,)): 4, ((1,), (1,)): THIRD, ((2,), (0,)): Fraction(7, 5)}
    a, b = MvMatrix(M13, 1, 1, rows), MvMatrix(M13, 1, 1, cols)
    # D_II D_JJ is -1, +1 and -1 on (1, 3): the sum -2 + 1 + 1 cancels
    got = a.dot(b)
    assert got == 0 and type(got) is int
    integral = a.dot(MvMatrix(M13, 1, 1, {((0,), (1,)): 2, ((1,), (1,)): Fraction(4, 3)}))
    assert integral == 3 and type(integral) is int  # -1 + 4


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
    if "poly" in (left_coeffs, right_coeffs):
        assert seen == {(), ("scan",)}
        return
    lifts = "fraction" in (left_coeffs, right_coeffs)
    tag = "lifted" if lifts else "as given"
    assert {(), (tag,), (tag, "probe"), (tag, "scan")} <= seen
    assert lifts or not any(route[:1] == ("lifted",) for route in seen)


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


# -- the right-hand source: probe for the blades a term can meet, or scan every pair


@pytest.mark.parametrize("kind, ga, gb", DENSE)
def test_sparse_products_scan(route, kind, ga, gb):
    metric = Metric(2, 5)
    rng = random.Random(f"rational-kernel:scan:{kind}")
    for size in (2, 3, 5):
        a, b = (_sized(rng, metric, g, size, "fraction") for g in (ga, gb))
        route.clear()
        _check(kind, a, b)
        assert route == _expected_route(kind, a, b) == [_lift_tag(a, b), "scan"]


@pytest.mark.parametrize("coeffs", COEFFS)
def test_products_no_pair_can_meet_call_no_kernel(route, coeffs):
    # contractions of a higher grade into a lower one and wedges past the top grade: with
    # several terms on both sides they pass the inline step, and must stop before the lift
    rng = random.Random(f"rational-kernel:none:{coeffs}")
    for kind, ga, gb in [("left_contract", 3, 2), ("right_contract", 1, 3), ("wedge", 3, 2),
                         ("wedge", 2, 4), ("left_contract", 4, 1)]:
        a, b = (_sized(rng, E4, g, 2, coeffs) for g in (ga, gb))
        assert len(a.terms) > 1 or len(b.terms) > 1
        route.clear()
        got = getattr(a, kind)(b)
        assert route == _expected_route(kind, a, b) == []
        assert got.is_zero() and got.grade == _stated_grade(kind, ga, gb)
        assert got == _termwise(kind, a, b)


@pytest.mark.parametrize("kind", ["wedge", "left_contract", "right_contract"])
@pytest.mark.parametrize("k, n", [(0, 6), (2, 5)])
def test_one_by_n_products_match_termwise_sums(route, k, n, kind):
    # one term against a dense operand, on either side: the right operand's size decides
    metric = Metric(k, n)
    rng = random.Random(f"rational-kernel:1xN:{k}:{n}:{kind}")
    seen = set()
    for ga, gb in _grade_pairs(kind, metric.dim):
        for sizes in [(1, None), (None, 1)]:
            a, b = (_sized(rng, metric, g, size, "fraction") for g, size in zip((ga, gb), sizes))
            route.clear()
            _check(kind, a, b)
            assert route == _expected_route(kind, a, b), (ga, gb, sizes)
            seen.add(tuple(route[1:]))
    assert seen == {(), ("probe",), ("scan",)}


# -- each value's lifted form: computed on its first lift, then read from ``_ints``

ORACLE_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"


def _oracle():
    """``bench/oracle.py``, the benchmark's reference model, which imports nothing from mvcalc;
    run from its text, so that no bytecode is written next to it."""
    module = types.ModuleType("bench_oracle")
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), module.__dict__)
    return module


def _oracle_result(oracle, kind, a, b):
    k, dim = a.metric.k, a.metric.dim
    if kind == "dot":
        return oracle.dot(k, a.terms, b.terms)
    if kind == "wedge":
        return oracle.wedge(a.terms, b.terms)
    if kind in ("hodge", "inv_hodge"):
        return getattr(oracle, kind)(k, dim, a.terms)
    return getattr(oracle, kind)(k, a.terms, b.terms)


@pytest.fixture
def lifts(monkeypatch):
    """The number of lifted forms computed: ``_lifted`` takes one lcm per value it lifts."""
    count = [0]
    real = blades.lcm

    def spy(*args):
        count[0] += 1
        return real(*args)
    monkeypatch.setattr(blades, "lcm", spy)
    return count


ALL_PRODUCTS = ("wedge", "left_contract", "right_contract", "hodge", "inv_hodge", "dot")


def _apply(kind, x, y):
    return getattr(x, kind)() if kind in ("hodge", "inv_hodge") else getattr(x, kind)(y)


def _fresh(value):
    return Multivector(value.metric, value.grade, value.terms)


@pytest.mark.parametrize("k, n", [(0, 4), (1, 3), (2, 5)])
def test_a_reused_value_is_lifted_once(lifts, k, n):
    metric = Metric(k, n)
    rng = random.Random(f"lift-cache:{k}:{n}")
    a = _operand(rng, metric, 2, "small")
    partners = [_operand(rng, metric, grade, style)
                for grade in (1, 2, 3) for style in ("small", "int", "mixed")]
    calls = [(kind, x, y) for b in partners for kind in ALL_PRODUCTS
             if kind != "dot" or b.grade == a.grade for x, y in ((a, b), (b, a))]
    results = [[_apply(*call) for call in calls] for _ in range(3)]
    # a once and each partner once, however often each is used
    assert lifts[0] == 1 + len(partners)
    assert a._ints[1] > 1 and all(hasattr(b, "_ints") for b in partners)
    oracle = _oracle()
    for (kind, x, y), *got in zip(calls, *results):
        assert got[0] == got[1] == got[2] == _apply(kind, _fresh(x), _fresh(y)), (kind, x, y)
        want = _oracle_result(oracle, kind, x, y)
        assert (got[0] if kind == "dot" else got[0].terms) == want, (kind, x, y)
        _assert_canonical(got[0])


def test_a_reused_matrix_is_lifted_once(lifts):
    rng = random.Random("lift-cache:matrix")
    blocks = [((I,), (J,)) for I in range(4) for J in range(4)]

    def matrix(style):
        return MvMatrix(M13, 1, 1, {key: STYLES[style](rng, pos) for pos, key in enumerate(blocks)})
    a = matrix("small")
    partners = [matrix(style) for style in ("small", "int", "mixed", "large")]
    calls = [(x, y) for b in partners for x, y in ((a, b), (b, a))]
    results = [[x.dot(y) for x, y in calls] for _ in range(3)]
    assert lifts[0] == 1 + len(partners)
    for (x, y), *got in zip(calls, *results):
        want = sum((Fraction(c) * y.terms.get(key, 0) * M13.sign_of(key[0]) * M13.sign_of(key[1])
                    for key, c in x.terms.items()), Fraction(0))
        fresh = MvMatrix(M13, 1, 1, x.terms).dot(MvMatrix(M13, 1, 1, y.terms))
        assert got[0] == got[1] == got[2] == fresh == want
        _assert_canonical(got[0])


def test_an_integral_value_keeps_its_own_terms_as_numerators():
    ints = Multivector(M13, 1, {(0,): 2, (3,): -5})
    fractions = Multivector(M13, 1, {(0,): HALF, (1,): THIRD})
    assert _lift(ints, fractions) is not None
    numerators, den = blades._lifted(ints)
    assert numerators is ints._terms and den == 1
    numerators, den = blades._lifted(fractions)
    assert den == 6 and numerators == {0b0001: 3, 0b0010: 2}


def test_new_values_carry_no_lifted_form():
    a = Multivector(E4, 1, {(0,): HALF, (1,): THIRD})
    b = Multivector(E4, 1, {(0,): Fraction(2, 3), (2,): Fraction(5, 7)})
    a.wedge(b)
    assert hasattr(a, "_ints") and hasattr(b, "_ints")
    for value in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)), -a, a * 2,
                  2 * a, a + b, a - b, a.wedge(b), a.hodge()):
        assert not hasattr(value, "_ints"), value
    assert a == _fresh(a) and a != b  # equality reads no cached form


def test_the_lifted_slot_is_immutable():
    a = Multivector(E4, 1, {(0,): HALF, (1,): THIRD})
    m = MvMatrix(E4, 1, 1, {((0,), (1,)): HALF, ((1,), (2,)): THIRD})
    for value in (a, m):
        for lifted in (False, True):
            if lifted:
                value.dot(value)
            with pytest.raises(AttributeError, match="is immutable"):
                value._ints = ({}, 1)
            with pytest.raises(AttributeError, match="is immutable"):
                del value._ints
            assert hasattr(value, "_ints") is lifted
