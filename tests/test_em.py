from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.calculus import ext_deriv, int_deriv
from mvcalc.em import (
    MaxwellConfig,
    build_dual_lagrangian,
    build_lagrangian,
    derive_equations,
    dual_field,
    dual_gauge_check,
    dual_theory,
    field_from_potential,
    gauge_transform,
    homogeneous_check,
    polarization_count,
    wave_form,
)
from mvcalc.randgen import random_constant_field, random_field, rng_for
from mvcalc.variational import DerivOp, FieldSymbol, LagrangianDensity, euler_lagrange_exterior

M13 = Metric(1, 3)
M03 = Metric(0, 3)


def test_config_validation():
    with pytest.raises(GradeError):
        MaxwellConfig(M13, 0)
    with pytest.raises(GradeError):
        MaxwellConfig(M13, 5)
    with pytest.raises(AlgebraError):
        MaxwellConfig(M13, 2, mass=Fraction(-1))
    with pytest.raises(AlgebraError):
        MaxwellConfig(M13, 2, xi=Fraction(0))
    with pytest.raises(GradeError):
        MaxwellConfig(M13, 1, xi=Fraction(1))
    MaxwellConfig(M13, 4)  # top-grade field strength is fine


@pytest.mark.parametrize("r", [2.0, True, "2"])
def test_config_field_grade_must_be_an_int(r):
    with pytest.raises(AlgebraError, match="field grade r"):
        MaxwellConfig(M13, r)


def test_lagrangian_coefficients_alternate_with_grade():
    # front sign (-1)^(r-1): positive for odd r, negative for even r
    L2 = build_lagrangian(MaxwellConfig(M13, 2))
    assert L2.terms[0][0] == Fraction(-1, 2)
    L1 = build_lagrangian(MaxwellConfig(M13, 1))
    assert L1.terms[0][0] == Fraction(1, 2)
    L3 = build_lagrangian(MaxwellConfig(M13, 3, mass=2, xi=Fraction(1, 3)))
    coeffs = [t[0] for t in L3.terms]
    assert coeffs == [Fraction(1, 2), 1, Fraction(-2), Fraction(3, 2)]


def test_lagrangian_slot_layout():
    L = build_lagrangian(MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 2)))
    ops = [(left[0], right[0]) for _, left, right in L.terms]
    assert ops == [
        (DerivOp.EXT, DerivOp.EXT),
        (DerivOp.ID, DerivOp.ID),
        (DerivOp.ID, DerivOp.ID),
        (DerivOp.INT, DerivOp.INT),
    ]
    assert L.dynamical.name == "A" and L.dynamical.grade == 1


def test_vacuum_equation_render():
    eq = derive_equations(MaxwellConfig(M13, 2))
    assert eq.render() == "d_| ( d^ A ) = J"
    assert eq.grade == 1


def test_scalar_potential_equation_render():
    eq = derive_equations(MaxwellConfig(M03, 1), field_name="phi", source_name="rho")
    assert eq.render() == "d_| ( d^ phi ) = rho"
    assert eq.grade == 0


def test_massive_gauge_fixed_equation_render():
    cfg = MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 2))
    eq = derive_equations(cfg)
    assert eq.render() == "d_| ( d^ A ) + A = J + 2 * d^ ( d_| A )"


def test_display_is_sign_flip_of_raw_equation():
    rng = rng_for(67, "unit/display-vs-raw")
    for r in (2, 3, 4):
        cfg = MaxwellConfig(M13, r, mass=1, xi=Fraction(1, 2))
        disp = derive_equations(cfg)
        raw = euler_lagrange_exterior(build_lagrangian(cfg))
        fields = {
            "A": random_field(rng, M13, r - 1),
            "J": random_field(rng, M13, r - 1),
        }
        assert disp.residual(fields, M13) == -raw.residual(fields, M13)


def test_equation_solved_by_constructed_source():
    rng = rng_for(71, "unit/solved-source")
    for r in (1, 2, 3, 4):
        cfg = MaxwellConfig(M13, r)
        eq = derive_equations(cfg)
        a = random_field(rng, M13, r - 1)
        j = int_deriv(ext_deriv(a))
        assert eq.residual({"A": a, "J": j}, M13).is_zero()


def test_wave_form_needs_gauge_fixing():
    with pytest.raises(AlgebraError, match="set xi"):
        wave_form(MaxwellConfig(M13, 2))


def test_wave_form_refuses_when_the_splitting_check_fails(monkeypatch):
    monkeypatch.setattr("mvcalc.em.check_laplacian_splitting", lambda *args: False)
    message = r"metric \(1,3\) grade 1; wave rewrite would be unsound"
    with pytest.raises(AlgebraError, match=message):
        wave_form(MaxwellConfig(Metric(1, 3), 2, xi=1))


def test_wave_form_matches_displayed_equation():
    rng = rng_for(73, "unit/wave-residual")
    for r in (2, 3, 4):
        cfg = MaxwellConfig(M13, r, mass=2, xi=Fraction(1, 3))
        disp = derive_equations(cfg)
        wave = wave_form(cfg)
        assert wave.grade == disp.grade
        for _ in range(4):
            fields = {
                "A": random_field(rng, M13, r - 1),
                "J": random_field(rng, M13, r - 1),
            }
            assert wave.residual(fields, M13) == disp.residual(fields, M13)


def test_feynman_gauge_collapses_to_wave_operator():
    assert wave_form(MaxwellConfig(M13, 2, xi=Fraction(1))).render() == "-lap A = J"
    assert wave_form(MaxwellConfig(M13, 3, xi=Fraction(1))).render() == "lap A = J"


def test_gauge_transform_leaves_field_strength_alone():
    rng = rng_for(79, "unit/gauge-strength")
    for r in (2, 3):
        a = random_field(rng, M13, r - 1)
        abar = random_constant_field(rng, M13, r - 1)
        g = random_field(rng, M13, r - 2)
        shifted = gauge_transform(a, abar, g)
        assert field_from_potential(shifted) == field_from_potential(a)


def test_gauge_transform_validation():
    rng = rng_for(83, "unit/gauge-validation")
    a = random_field(rng, M13, 1)
    # offsets must be constant
    from mvcalc.poly import PolyScalar

    drift = Multivector.blade(M13, (1,), PolyScalar.variable(4, 0))
    with pytest.raises(AlgebraError, match="constant"):
        gauge_transform(a, drift)
    # grade mismatches
    with pytest.raises(GradeError):
        gauge_transform(a, Multivector.blade(M13, (0, 1)))
    with pytest.raises(GradeError):
        gauge_transform(a, Multivector.zero(M13, 1), G=random_field(rng, M13, 1))
    # scalar potentials admit the constant offset but no gauge function
    phi = random_field(rng, M13, 0)
    with pytest.raises(GradeError):
        gauge_transform(phi, Multivector.scalar(M13, 1), G=Multivector.zero(M13, 0))
    # metrics must agree
    with pytest.raises(AlgebraError):
        gauge_transform(a, Multivector.zero(Metric(2, 2), 1))


def test_homogeneous_check():
    rng = rng_for(89, "unit/homogeneous")
    a = random_field(rng, M13, 1)
    assert homogeneous_check(field_from_potential(a))
    from mvcalc.poly import PolyScalar

    crooked = Multivector.blade(M13, (0, 1), PolyScalar.variable(4, 2))
    assert not homogeneous_check(crooked)


def test_dual_lagrangian_layout():
    L = build_dual_lagrangian(2)
    assert [t[0] for t in L.terms] == [Fraction(-1, 2), 1]
    assert L.terms[0][1][0] is DerivOp.INT
    with pytest.raises(GradeError):
        build_dual_lagrangian(0)


def test_dual_theory_renders_and_grades():
    nonhomog, homog = dual_theory(M13, 2)
    assert nonhomog.render() == "Jbar = d^ ( d_| Abar )"
    assert nonhomog.grade == 2
    assert homog.render() == "d_| Fbar = 0"
    assert homog.grade == 0
    # a grade-1 dual potential pushes the homogeneous side below grade 0
    _, low = dual_theory(M13, 1)
    assert low.grade == -1
    with pytest.raises(GradeError):
        dual_theory(M13, 5)


def test_dual_source_is_reproduced_from_potential():
    rng = rng_for(97, "unit/dual-source")
    for s in (1, 2, 3):
        nonhomog, homog = dual_theory(M13, s)
        abar = random_field(rng, M13, s)
        jbar = ext_deriv(int_deriv(abar))
        assert nonhomog.residual({"Abar": abar, "Jbar": jbar}, M13).is_zero()
        fbar = dual_field(abar)
        assert fbar.grade == s - 1 or fbar.is_zero()
        assert homog.residual({"Fbar": fbar}, M13).is_zero()


def test_dual_field_and_gauge_condition():
    rng = rng_for(101, "unit/dual-gauge")
    abar = random_field(rng, M13, 2)
    assert dual_field(abar) == int_deriv(abar)
    # int_deriv output always satisfies the homogeneous equation
    assert int_deriv(dual_field(abar)).is_zero()
    constant = random_constant_field(rng, M13, 2)
    assert dual_gauge_check(constant) or not ext_deriv(constant).terms
    from mvcalc.poly import PolyScalar

    assert not dual_gauge_check(Multivector.blade(M13, (0,), PolyScalar.variable(4, 1)))


def test_polarization_counts():
    assert polarization_count(1, 3, 1) == 1
    assert polarization_count(1, 3, 2) == 2
    assert polarization_count(1, 3, 3) == 1
    assert polarization_count(1, 3, 4) == 0
    assert polarization_count(2, 2, 2) == 2
    assert polarization_count(1, 1, 1) == 1
    with pytest.raises(AlgebraError):
        polarization_count(0, 3, 1)
    with pytest.raises(AlgebraError):
        polarization_count(1, 0, 1)
    with pytest.raises(GradeError):
        polarization_count(1, 3, 0)
    with pytest.raises(GradeError):
        polarization_count(1, 3, 5)


@pytest.mark.parametrize("k, n, r", [(True, 3, 1), (1, 3.0, 1), (1, 3, True), (1, 3, "2")])
def test_polarization_count_takes_only_ints(k, n, r):
    with pytest.raises(AlgebraError, match="integers only"):
        polarization_count(k, n, r)


def _same_terms(built, expected):
    # the validating constructor's keys, in its order, with its coefficient types
    assert list(built._terms.items()) == list(expected._terms.items())
    assert [type(c) for c in built._terms.values()] == [type(c) for c in expected._terms.values()]


@pytest.mark.parametrize("metric", [Metric(1, 3), Metric(0, 3), Metric(2, 2), Metric(1, 1)])
def test_preset_densities_match_the_validating_constructor(metric):
    ID, EXT, INT = DerivOp.ID, DerivOp.EXT, DerivOp.INT
    for r in range(1, metric.dim + 1):
        sign = -1 if (r - 1) & 1 else 1
        for mass in (0, 1, 2, Fraction(1, 2)):
            for xi in (None, 1, 3, Fraction(1, 2), Fraction(2, 3)) if r >= 2 else (None,):
                cfg = MaxwellConfig(metric, r, mass, xi)
                for name, source in (("A", "J"), ("phi", "rho"), ("b", "a")):
                    a, j = FieldSymbol(name, r - 1), FieldSymbol(source, r - 1, "source")
                    terms = [(Fraction(sign, 2), (EXT, a), (EXT, a)), (1, (ID, j), (ID, a))]
                    if mass:
                        terms.append((-Fraction(mass) ** 2 / 2, (ID, a), (ID, a)))
                    if xi is not None:
                        terms.append((Fraction(sign, 2) / xi, (INT, a), (INT, a)))
                    _same_terms(build_lagrangian(cfg, name, source), LagrangianDensity(terms))
                with pytest.raises(AlgebraError, match="bound to two fields"):
                    build_lagrangian(cfg, "A", "A")
    for s in range(1, metric.dim + 1):
        for name, source in (("Abar", "Jbar"), ("b", "a")):
            a, j = FieldSymbol(name, s), FieldSymbol(source, s, "source")
            sign = -1 if (s - 1) & 1 else 1
            expected = LagrangianDensity([(Fraction(sign, 2), (INT, a), (INT, a)),
                                          (1, (ID, j), (ID, a))])
            _same_terms(build_dual_lagrangian(s, name, source), expected)
        with pytest.raises(AlgebraError, match="bound to two fields"):
            build_dual_lagrangian(s, "Abar", "Abar")
