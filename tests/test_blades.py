from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.calculus import directional_deriv
from mvcalc.matrices import MvMatrix, mat_vec, vec_mat
from mvcalc.poly import PolyScalar
from mvcalc.randgen import random_field, rng_for

M13 = Metric(1, 3)
E3 = Metric(0, 3)


def test_metric_signs():
    m = Metric(2, 3)
    assert m.dim == 5
    assert [m.sign(i) for i in range(5)] == [-1, -1, 1, 1, 1]
    assert m.sign_of((0, 2)) == -1
    assert m.sign_of(()) == 1
    assert m.sign_of((0, 1)) == 1


def test_metric_validation():
    with pytest.raises(AlgebraError):
        Metric(-1, 3)
    with pytest.raises(AlgebraError):
        Metric(0, 0)
    with pytest.raises(AlgebraError):
        Metric(8, 9)
    Metric(8, 8)


@pytest.mark.parametrize("k, n", [(True, 3), (1, False), (1.5, 2), (1, 2.0), ("1", 3),
                                  (Fraction(1), 3)])
def test_metric_rejects_non_integer_signature(k, n):
    with pytest.raises(AlgebraError, match="integers"):
        Metric(k, n)


@pytest.mark.parametrize("grade", [1.0, True, "1", Fraction(1)])
def test_multivector_grade_must_be_an_int(grade):
    # a float grade used to pass the length check and print as "grade":2.0 after a wedge
    with pytest.raises(AlgebraError, match="bad grade"):
        Multivector(M13, grade, {(0,): 1})


def test_blades_enumeration():
    assert list(E3.blades(2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(E3.blades(0)) == [()]
    assert list(E3.blades(4)) == []


def test_construction_rejects_bad_terms():
    with pytest.raises(AlgebraError):
        Multivector(M13, 2, {(1, 0): 1})
    with pytest.raises(GradeError):
        Multivector(M13, 1, {(0, 1): 1})
    with pytest.raises(AlgebraError):
        Multivector(M13, 1, {(0,): 0.25})
    with pytest.raises(AlgebraError):
        Multivector(M13, 1, {(0,): True})


def test_zero_annotations_may_leave_range():
    # Stated results of wedge overflow and interior derivative of grade 0.
    z = Multivector.zero(M13, -1)
    assert z.is_zero()
    assert z.grade == -1
    assert Multivector.zero(M13, 9).is_zero()
    with pytest.raises(GradeError):
        Multivector(M13, 9, {(0,): 1})


def test_zero_values_compare_equal_across_annotations():
    assert Multivector.zero(M13, 2) == Multivector.zero(M13, 0)
    assert Multivector.zero(M13, 2) != Multivector.zero(E3, 2)


def test_addition_needs_matching_grades():
    a = Multivector.blade(M13, (0,))
    b = Multivector.blade(M13, (0, 1))
    with pytest.raises(GradeError):
        a + b
    assert a + Multivector.zero(M13, 2) == a
    assert Multivector.zero(M13, 2) + a == a


def test_dot_is_metric_weighted():
    a = Multivector.blade(M13, (0,), 3)
    assert a.dot(a) == Fraction(-9)
    b = Multivector.blade(M13, (1,), 2)
    assert b.dot(b) == Fraction(4)
    assert a.dot(b) == 0
    f = Multivector.blade(M13, (0, 1), 1)
    assert f.dot(f) == Fraction(-1)
    with pytest.raises(GradeError):
        a.dot(f)


def test_dot_returns_plain_scalar():
    x0 = PolyScalar.variable(4, 0)
    a = Multivector.blade(M13, (1,), x0)
    assert a.dot(a) == x0 * x0
    assert isinstance(a.dot(a), PolyScalar)


def test_wedge_on_blades():
    e0 = Multivector.blade(M13, (0,))
    e1 = Multivector.blade(M13, (1,))
    assert e0.wedge(e1) == Multivector.blade(M13, (0, 1))
    assert e1.wedge(e0) == Multivector.blade(M13, (0, 1), -1)
    assert e0.wedge(e0).is_zero()


def test_wedge_overflow_annotation():
    top = Multivector.blade(E3, (0, 1, 2))
    v = Multivector.blade(E3, (0,))
    overflow = top.wedge(v)
    assert overflow.is_zero()
    assert overflow.grade == 4


def test_contractions_on_blades():
    e01 = Multivector.blade(M13, (0, 1))
    e012 = Multivector.blade(M13, (0, 1, 2))
    e0 = Multivector.blade(M13, (0,))
    # left: sign_of((0,1)) * sign of moving (2) past (0,1)
    assert e01.left_contract(e012) == Multivector.blade(M13, (2,), -1)
    assert e0.left_contract(e01) == Multivector.blade(M13, (1,))
    assert e01.left_contract(e0).is_zero()
    # right lowers from the other side
    assert e012.right_contract(e01) == Multivector.blade(M13, (2,), -1)
    assert e01.right_contract(Multivector.blade(M13, (1,))) == Multivector.blade(
        M13, (0,), -1
    )


def test_hodge_examples():
    e0 = Multivector.blade(M13, (0,))
    assert e0.hodge() == Multivector.blade(M13, (1, 2, 3), -1)
    one = Multivector.blade(M13, ())
    assert one.hodge() == Multivector.blade(M13, (0, 1, 2, 3))
    assert one.hodge().hodge() == Multivector.blade(M13, (), -1)


def test_hodge_round_trip_random_fields():
    rng = rng_for(7, "unit/hodge-round-trip")
    for metric in (M13, E3, Metric(2, 2)):
        for grade in range(metric.dim + 1):
            a = random_field(rng, metric, grade)
            assert a.hodge().inv_hodge() == a
            assert a.inv_hodge().hodge() == a


def test_mixed_metric_operations_rejected():
    a = Multivector.blade(M13, (0,))
    b = Multivector.blade(E3, (0,))
    with pytest.raises(AlgebraError):
        a + b
    with pytest.raises(AlgebraError):
        a.wedge(b)


def test_scalar_multiplication():
    a = Multivector.blade(M13, (2,), Fraction(1, 2))
    assert (a * 4).coefficient((2,)) == 2
    assert (Fraction(2, 3) * a).coefficient((2,)) == Fraction(1, 3)
    x = PolyScalar.variable(4, 1)
    assert (a * x).coefficient((2,)) == x * Fraction(1, 2)
    # operator arithmetic declines floats instead of coercing them
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(AlgebraError):
        Multivector.blade(M13, (2,), 0.5)


def test_text_round_trip_symmetry():
    x0 = PolyScalar.variable(4, 0)
    x1 = PolyScalar.variable(4, 1)
    a = Multivector(M13, 1, {(0,): x0 + x1, (2,): Fraction(-3, 2), (3,): x0 * x0})
    assert str(a) == "(x0 + x1) ^ e[0] - 3/2 ^ e[2] + x0^2 ^ e[3]"
    assert str(Multivector.zero(M13, 2)) == "0"
    assert str(Multivector.scalar(M13, Fraction(5))) == "5"


def test_immutability():
    a = Multivector.blade(M13, (0,))
    with pytest.raises(AttributeError):
        a.grade = 2
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: PolyScalar.variable(3, 1.5), id="variable-index-float"),
    pytest.param(lambda: PolyScalar.variable(3, True), id="variable-index-bool"),
    pytest.param(lambda: PolyScalar.variable(1.5, 0), id="variable-nvars-float"),
    pytest.param(lambda: PolyScalar.variable(3, 0, 1.0), id="variable-power-float"),
    pytest.param(lambda: PolyScalar.constant(1.5, 0), id="constant-nvars-float"),
    pytest.param(lambda: PolyScalar.variable(3, 0).partial(True), id="partial-bool"),
    pytest.param(lambda: PolyScalar.variable(3, 0).partial(0.0), id="partial-float"),
    pytest.param(lambda: M13.sign(1.5), id="sign-float"),
    pytest.param(lambda: M13.sign(True), id="sign-bool"),
    pytest.param(lambda: M13.sign_of((0.5,)), id="sign-of-float"),
    pytest.param(lambda: list(M13.blades(1.0)), id="blades-float"),
    pytest.param(lambda: MvMatrix.identity(M13, 1.0), id="identity-float"),
    pytest.param(lambda: random_field(rng_for(1, "grade"), M13, 1.0), id="random-field-float"),
])
def test_integer_arguments_are_not_coerced(call):
    with pytest.raises(AlgebraError, match="integers only"):
        call()


@pytest.mark.parametrize("nvars", [17, 10**6])
@pytest.mark.parametrize("build", [PolyScalar.variable, PolyScalar.constant],
                         ids=["variable", "constant"])
def test_variable_count_past_max_dim_is_refused(build, nvars):
    # no coefficient has more variables than a space-time has axes, so a huge count is refused
    with pytest.raises(AlgebraError, match=rf"^nvars must be in \[0, 16\], got {nvars}$"):
        build(nvars, 0)


def test_terms_is_a_view_that_cannot_change_the_value():
    b = Multivector.blade(M13, (0,))
    view = b.terms
    view[(1,)] = 0.5
    del view[(0,)]
    assert b.terms == {(0,): 1} and b.terms is not b.terms
    assert b == Multivector.blade(M13, (0,)) and str(b) == "e[0]"


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Multivector(M13, 1, {5: 1}), "bad index list", id="multivector-int-key"),
    pytest.param(lambda: PolyScalar(2, {5: 1}), "bad exponent vector", id="poly-int-key"),
    pytest.param(lambda: MvMatrix(M13, 1, 1, {(0,): 1}), "bad matrix key", id="matrix-one-slot"),
    pytest.param(lambda: MvMatrix(M13, 1, 1, {((0,), 1): 1}), "bad column index list",
                 id="matrix-int-slot"),
    pytest.param(lambda: Multivector(M13, 1, [((0,), 1)]), "must be a mapping",
                 id="multivector-pairs"),
    pytest.param(lambda: PolyScalar(2, [((0, 1), 1)]), "must be a mapping", id="poly-pairs"),
    pytest.param(lambda: MvMatrix(M13, 1, 1, [(((0,), (1,)), 1)]), "must be a mapping",
                 id="matrix-pairs"),
    pytest.param(lambda: Multivector.blade(M13, 5), "bad index list", id="blade-int"),
    pytest.param(lambda: PolyScalar.monomial(2, 5, 1), "bad exponent vector", id="monomial-int"),
    pytest.param(lambda: MvMatrix.basis(M13, 0, (1,)), "bad row index list", id="basis-int"),
    pytest.param(lambda: Multivector.blade(M13, (0,)).coefficient(5), "bad index list",
                 id="coefficient-int"),
    pytest.param(lambda: MvMatrix.basis(M13, (0,), (1,)).entry((0,), 1), "bad column index list",
                 id="entry-int"),
])
def test_malformed_term_keys_raise_algebra_error(build, message):
    # each raised a bare TypeError, ValueError or AttributeError before
    with pytest.raises(AlgebraError, match=message):
        build()


@pytest.mark.parametrize("indices, message", [
    ((0.0,), "integers only"), ((True,), "integers only"), ((1, 0), "not strictly increasing"),
    ((0, 0), "not strictly increasing"), ((4,), "out of range"), ((-1,), "out of range"),
    ((0, "a"), "integers only"), (("a", 0), "integers only"), ((1, 0.5), "integers only"),
])
def test_coefficient_and_entry_check_their_index_lists(indices, message):
    # unchecked, (0.0,) found the (0,) coefficient and (1, 0) silently read 0;
    # (0, "a") raised a bare TypeError from the order check
    with pytest.raises(AlgebraError, match=message):
        Multivector.blade(M13, (0,)).coefficient(indices)
    w = MvMatrix.basis(M13, (0,), (0,))
    with pytest.raises(AlgebraError, match=message):
        w.entry(indices, (0,))
    with pytest.raises(AlgebraError, match=message):
        w.entry((0,), indices)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Multivector(M13, 2, {(0, "a"): 1}), id="multivector"),
    pytest.param(lambda: MvMatrix(M13, 2, 1, {((0, "a"), (1,)): 1}), id="matrix-rows"),
    pytest.param(lambda: MvMatrix(M13, 1, 2, {((1,), ("a", 0)): 1}), id="matrix-cols"),
])
def test_mixed_type_term_keys_raise_algebra_error(build):
    with pytest.raises(AlgebraError, match="integers only"):
        build()


# Iterables other than tuple and list were coerced: b"\x01" read as (1,)
NOT_SEQUENCES = [b"\x00", bytearray(b"\x00"), "0", range(0, 1), {0}]
HASHABLE_NOT_SEQUENCES = [b"\x00", "0", range(0, 1), frozenset({0})]


@pytest.mark.parametrize("value", NOT_SEQUENCES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("call, what", [
    pytest.param(lambda v: Multivector.blade(M13, v), "index list", id="blade"),
    pytest.param(lambda v: Multivector.blade(M13, (0,)).coefficient(v), "index list",
                 id="coefficient"),
    pytest.param(lambda v: PolyScalar.monomial(1, v, 1), "exponent vector", id="monomial"),
    pytest.param(lambda v: MvMatrix.basis(M13, v, (0,)), "row index list", id="basis"),
    pytest.param(lambda v: MvMatrix.basis(M13, (0,), (0,)).entry((0,), v),
                 "column index list", id="entry"),
])
def test_index_and_exponent_arguments_must_be_tuples_or_lists(call, what, value):
    with pytest.raises(AlgebraError, match=f"bad {what}: expected a tuple or list"):
        call(value)


@pytest.mark.parametrize("key", HASHABLE_NOT_SEQUENCES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("build, what", [
    pytest.param(lambda key: Multivector(M13, 1, {key: 3}), "index list", id="multivector"),
    pytest.param(lambda key: PolyScalar(1, {key: 1}), "exponent vector", id="poly"),
    pytest.param(lambda key: MvMatrix(M13, 1, 1, {(key, (1,)): 1}), "row index list",
                 id="matrix"),
])
def test_term_keys_must_be_tuples_or_lists(build, what, key):
    with pytest.raises(AlgebraError, match=f"bad {what}: expected a tuple or list"):
        build(key)


def test_list_arguments_still_read_as_index_lists():
    assert Multivector.blade(M13, [0, 2]) == Multivector.blade(M13, (0, 2))
    assert Multivector.blade(M13, [0, 2], 5).coefficient([0, 2]) == 5
    assert PolyScalar.monomial(2, [1, 0], 1) == PolyScalar.variable(2, 0)
    assert MvMatrix.basis(M13, [0], [1]).entry([0], [1]) == 1


def test_equal_but_distinct_metrics_still_match():
    other = Metric(1, 3)
    assert other is not M13 and other == M13
    a, b = Multivector.blade(M13, (0,)), Multivector.blade(other, (0,))
    assert a == b and b == a
    assert a.wedge(Multivector.blade(other, (1,))) == Multivector.blade(M13, (0, 1))
    assert a.dot(b) == -1 and (a + b).coefficient((0,)) == 2
    w, v = MvMatrix.basis(M13, (0,), (1,)), MvMatrix.basis(other, (0,), (1,))
    assert w == v and w.matmul(MvMatrix.identity(other, 1)) == w
    assert mat_vec(w, Multivector.blade(other, (1,))) == a
    assert vec_mat(Multivector.blade(other, (0,)), w) == -Multivector.blade(M13, (1,))
    x0 = PolyScalar.variable(4, 0)
    field = Multivector.blade(M13, (1,), x0)
    assert directional_deriv(Multivector.blade(other, (0,)), field) == Multivector.blade(M13, (1,))
    assert Multivector.blade(M13, (0,)) != Multivector.blade(Metric(0, 4), (0,))


def test_scalar_value_needs_grade_zero():
    for value in (Multivector.blade(M13, (0,), 3), Multivector.zero(M13, 2)):
        with pytest.raises(GradeError, match="^scalar_value needs a grade-0 multivector$"):
            value.scalar_value()
