from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

from mvcalc.blades import AlgebraError
from mvcalc.poly import PolyScalar, _exact_terms

rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)


def polys(nvars=3):
    monomial = st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=nvars, max_size=nvars
        ),
        rationals,
    )
    return st.lists(monomial, max_size=4).map(
        lambda monos: sum(
            (PolyScalar.monomial(nvars, tuple(e), c) for e, c in monos),
            PolyScalar.constant(nvars, 0),
        )
    )


@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_additive_inverse(p):
    assert not (p - p)
    assert p + (-p) == PolyScalar.constant(3, 0)


@given(polys(), st.lists(rationals, min_size=3, max_size=3))
def test_evaluate_is_ring_homomorphism(p, point):
    q = p * p + p
    assert q.evaluate(point) == p.evaluate(point) * p.evaluate(point) + p.evaluate(point)


@given(polys(), polys(), st.integers(min_value=0, max_value=2))
def test_partial_is_linear_and_leibniz(p, q, i):
    assert (p + q).partial(i) == p.partial(i) + q.partial(i)
    assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


def test_variable_and_partial():
    x0 = PolyScalar.variable(3, 0)
    x1 = PolyScalar.variable(3, 1)
    p = x0 * x0 * Fraction(3, 2) + x1
    assert p.partial(0) == 3 * x0
    assert p.partial(1) == PolyScalar.constant(3, 1)
    assert p.partial(2) == PolyScalar.constant(3, 0)


def test_rejects_floats_and_bools():
    with pytest.raises(AlgebraError):
        PolyScalar.constant(2, 0.5)
    with pytest.raises(AlgebraError):
        PolyScalar.constant(2, True)
    x = PolyScalar.variable(2, 0)
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        0.5 * x


def test_mixed_arithmetic_with_rationals():
    x = PolyScalar.variable(2, 0)
    assert 1 + x - 1 == x
    assert Fraction(1, 2) * x * 2 == x
    assert (x + x) / 2 == x
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_division_only_by_rationals():
    x = PolyScalar.variable(2, 0)
    with pytest.raises(TypeError):
        x / x


def test_is_constant_and_value():
    c = PolyScalar.constant(2, Fraction(7, 3))
    assert c.is_constant()
    assert c.constant_value() == Fraction(7, 3)
    x = PolyScalar.variable(2, 1)
    assert not x.is_constant()
    with pytest.raises(AlgebraError):
        x.constant_value()


def test_constant_hashes_like_its_rational_value():
    one = PolyScalar.constant(2, 1)
    assert one == Fraction(1) and hash(one) == hash(Fraction(1))
    assert {Fraction(1): "one"}[one] == "one"
    assert one in {Fraction(1)}
    assert PolyScalar(3) in {Fraction(0)}
    assert PolyScalar.variable(2, 0) not in {Fraction(1), 0}


def test_text_is_graded_lex_descending():
    x0 = PolyScalar.variable(3, 0)
    x1 = PolyScalar.variable(3, 1)
    x2 = PolyScalar.variable(3, 2)
    p = x2 + x0 * x0 * Fraction(3, 2) + x0 * x1
    assert str(p) == "3/2 ^ x0^2 + x0 ^ x1 + x2"
    assert str(PolyScalar.constant(3, 0)) == "0"
    assert str(-x1) == "-x1"


@pytest.mark.parametrize("nvars, message", [
    (1.5, "integers only"), (True, "integers only"), ("2", "integers only"),
    (17, r"nvars must be in \[0, 16\], got 17"), (10**6, r"nvars must be in \[0, 16\]"),
])
def test_variable_count_must_be_an_int(nvars, message):
    with pytest.raises(AlgebraError, match=message):
        PolyScalar(nvars, {})


def test_rational_operand_adds_into_the_constant_term(monkeypatch):
    x = PolyScalar.variable(2, 0) + 3
    built = []
    init, make = PolyScalar.__init__, PolyScalar._make
    # count both builders: results use the trusted one, and neither may run for a constant
    monkeypatch.setattr(PolyScalar, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    monkeypatch.setattr(PolyScalar, "_make", lambda *args: built.append(args) or make(*args))
    results = [x + 1, 1 + x, x - Fraction(1, 2), 5 - x, x + (-3)]
    # one PolyScalar per result, none for a constant operand (5 - x also negates x)
    assert len(built) == 6
    assert [str(p) for p in results] == ["x0 + 4", "x0 + 4", "x0 + 5/2", "-x0 + 2", "x0"]
    with pytest.raises(TypeError):
        x - 0.5
    with pytest.raises(TypeError):
        0.5 - x


@pytest.mark.parametrize("exps", [(0.5, 0), (True, 0), (1, False), (-1, 0), (1,), ("1", 0)])
def test_rejects_bad_exponents(exps):
    with pytest.raises(AlgebraError, match="bad exponent vector"):
        PolyScalar(2, {exps: 1})
    with pytest.raises(AlgebraError):
        PolyScalar.monomial(2, exps, 1)


def test_terms_is_a_view_that_cannot_change_the_value():
    p = PolyScalar.variable(2, 0)
    view = p.terms
    view[(0, 1)] = 0.5
    del view[(1, 0)]
    assert p.terms == {(1, 0): 1} and p.terms is not p.terms
    assert p == PolyScalar.variable(2, 0) and str(p) == "x0"


def test_exact_terms_normalises_each_pair_into_a_new_dict():
    # stored coefficients are rationals only: a polynomial's monomials are keys of their own
    pairs = {(0, 0): 0, (0, 1): Fraction(0), (0, 2): Fraction(0, 5), (1, 0): Fraction(6, 3),
             (1, 1): Fraction(1, 2), (2, 0): -7}
    given_pairs = dict(pairs)
    out = _exact_terms(pairs)
    assert out == {(1, 0): 2, (1, 1): Fraction(1, 2), (2, 0): -7}
    assert type(out[(1, 0)]) is int and type(out[(1, 1)]) is Fraction
    assert out is not pairs and pairs == given_pairs
    # the adoption rule: a canonical dict is kept, one non-canonical coefficient makes a copy
    assert _exact_terms(out) is out and _exact_terms({}) == {}
    for key, c in pairs.items():
        if c not in out.values():
            given = {(2, 0): -7, key: c}
            assert _exact_terms(given) is not given and given == {(2, 0): -7, key: c}
