"""The exact-coefficient protocol: ints for integral values, Fractions otherwise."""

from decimal import Decimal
from fractions import Fraction

import pytest

from mvcalc import poly
from mvcalc.blades import AlgebraError, Metric, Multivector
from mvcalc.calculus import ext_deriv, int_deriv, laplacian
from mvcalc.em import MaxwellConfig, build_lagrangian
from mvcalc.matrices import MvMatrix
from mvcalc.poly import PolyScalar, exact, partial
from mvcalc.randgen import field_cases, random_field, random_matrix_field, rng_for
from mvcalc.verify import BATTERY_METRICS, _scalar_eq


def _canonical(value) -> bool:
    """An int, or a Fraction that is not integral; never a bool or float."""
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def _rationals(value):
    """Every rational stored inside a coefficient, polynomial or not."""
    if isinstance(value, PolyScalar):
        return list(value.terms.values())
    return [value]


def _assert_exact(value):
    if isinstance(value, (Multivector, MvMatrix)):
        coeffs = list(value.terms.values())
    else:
        coeffs = [value]
    for coeff in coeffs:
        for c in _rationals(coeff):
            assert _canonical(c), f"{c!r} ({type(c).__name__}) is not canonical"


def test_exact_normalises_integral_rationals_to_int():
    assert exact(Fraction(4, 2)) == 2 and type(exact(Fraction(4, 2))) is int
    assert type(exact(-7)) is int
    assert exact(Fraction(1, 3)) == Fraction(1, 3)
    assert type(exact(Fraction(-6, 4))) is Fraction


@pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, Decimal("0.5"), "1", None, 1j])
def test_exact_rejects_non_rationals(bad):
    with pytest.raises(AlgebraError):
        exact(bad)


@pytest.mark.parametrize("nvars", [6, 2])
def test_polynomial_coefficients_must_use_the_field_variables(nvars):
    # a field's coordinates are the metric's k+n axes: a polynomial in more
    # variables would have d^ skip them, one in fewer would fail mid-derivative
    bad = PolyScalar.monomial(nvars, [0] * (nvars - 1) + [1], 1)
    metric = Metric(1, 3)
    unit = Multivector.blade(metric, (0,))
    eye = MvMatrix.identity(metric, 1)
    for build in (
        lambda: Multivector(metric, 0, {(): bad}),
        lambda: Multivector.blade(metric, (0, 1), bad),
        lambda: MvMatrix.basis(metric, (0,), (1,), bad),
        lambda: unit * bad,
        lambda: bad * unit,
        lambda: eye * bad,
        lambda: bad * eye,
    ):
        with pytest.raises(AlgebraError, match=f"polynomial in {nvars} variables, expected 4"):
            build()


def test_coefficient_takes_field_polynomials_and_exact_rationals():
    x = PolyScalar.variable(4, 1)
    assert poly.coefficient(x, 4) is x
    two = poly.coefficient(Fraction(6, 3), 4)
    assert two == 2 and type(two) is int
    assert poly.coefficient(Fraction(1, 3), 4) == Fraction(1, 3)
    with pytest.raises(AlgebraError, match="expected 3"):
        poly.coefficient(x, 3)
    for bad in (True, 0.5, "1", None):
        with pytest.raises(AlgebraError, match="exact rational"):
            poly.coefficient(bad, 4)


def test_partial_of_a_constant_is_int_zero():
    assert type(partial(Fraction(3, 2), 0)) is int and partial(Fraction(3, 2), 0) == 0
    x0 = PolyScalar.variable(2, 0)
    assert partial(x0 * x0, 0) == 2 * x0


@pytest.mark.parametrize("coeff", [3, Fraction(3, 2), PolyScalar.variable(2, 0)])
@pytest.mark.parametrize("index", [1.5, True, "0", None])
def test_partial_refuses_a_non_int_index(coeff, index):
    # a rational coefficient used to give 0 whatever the index
    with pytest.raises(AlgebraError, match="bad variable index: integers only"):
        partial(coeff, index)


def test_division_builds_a_fraction():
    half = PolyScalar.constant(2, 1) / 2
    assert half.terms == {(0, 0): Fraction(1, 2)}
    _assert_exact(half)
    x = PolyScalar.variable(2, 0)
    assert ((x + x) / 2).terms == {(1, 0): 1}
    _assert_exact((x + x) / 2)


def test_constructors_store_integral_fractions_as_int():
    metric = Metric(1, 3)
    a = Multivector.blade(metric, (0, 1), Fraction(6, 3))
    _assert_exact(a)
    _assert_exact(MvMatrix.basis(metric, (0,), (1,), Fraction(8, 4)))
    _assert_exact(PolyScalar(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)}))
    _assert_exact(a * Fraction(3, 2))


@pytest.mark.parametrize("metric", BATTERY_METRICS, ids=lambda m: f"{m.k}-{m.n}")
def test_products_and_derivatives_of_random_fields_stay_exact(metric):
    rng = rng_for(11, f"unit/coeff/{metric.k}/{metric.n}")
    for grade in range(metric.dim + 1):
        fields = field_cases(rng, metric, grade, 5)
        for a in fields:
            b = random_field(rng, metric, grade)
            c = random_field(rng, metric, 1)
            for value in (
                a, a + b, a - b, a * Fraction(1, 2) * 2, a.wedge(c), c.left_contract(a),
                a.right_contract(c), a.hodge(), a.inv_hodge(), a.dot(b),
                ext_deriv(a), int_deriv(a), laplacian(a),
            ):
                _assert_exact(value)
    m = random_matrix_field(rng, metric, 1, 1)
    _assert_exact(m.matmul(m))
    _assert_exact(m.dot(m))


def test_maxwell_density_coefficients_are_exact():
    density = build_lagrangian(MaxwellConfig(Metric(1, 3), 2, mass=1, xi=2))
    coeffs = [coeff for coeff, _, _ in density.terms]
    assert coeffs == [Fraction(-1, 2), 1, Fraction(-1, 2), Fraction(-1, 4)]
    assert all(_canonical(c) for c in coeffs)
    assert not any(isinstance(c, float) for c in coeffs)


def test_maxwell_config_rejects_inexact_parameters():
    with pytest.raises(AlgebraError):
        MaxwellConfig(Metric(1, 3), 2, mass=0.5)
    with pytest.raises(AlgebraError):
        MaxwellConfig(Metric(1, 3), 2, xi=True)
    cfg = MaxwellConfig(Metric(1, 3), 2, mass=Fraction(4, 2), xi=Fraction(2, 2))
    assert type(cfg.mass) is int and type(cfg.xi) is int


def test_scalar_comparison_refuses_floats():
    assert _scalar_eq(Fraction(1, 2), Fraction(2, 4))
    assert not _scalar_eq(1, Fraction(1, 2))
    with pytest.raises(AlgebraError):
        _scalar_eq(0.5, Fraction(1, 2))
    with pytest.raises(AlgebraError):
        _scalar_eq(PolyScalar.constant(2, 1), 1.0)
