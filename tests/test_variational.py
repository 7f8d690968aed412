import contextlib
import io
from fractions import Fraction

import pytest

import mvcalc
from mvcalc import eqdoc
from mvcalc.blades import AlgebraError, GradeError, Metric, Multivector
from mvcalc.calculus import divergence_scalar, ext_deriv, int_deriv, laplacian, tensor_deriv
from mvcalc.randgen import random_field, rng_for
from mvcalc.variational import (
    CHAIN_OPS,
    DerivOp,
    FieldEquation,
    FieldSymbol,
    FormalExpr,
    LagrangianDensity,
    euler_lagrange,
    euler_lagrange_exterior,
    euler_lagrange_tensor,
    first_variation,
    tensor_slot_matrix,
    vderiv,
    verify_tensor_exterior_identity,
)

M13 = Metric(1, 3)

A = FieldSymbol("A", 1, "dynamical")
J = FieldSymbol("J", 1, "source")


def maxwell_density(mass=0, xi=None):
    # grade-2 field strength in any metric: front sign (-1)^(r-1) = -1
    terms = [
        (Fraction(-1, 2), (DerivOp.EXT, A), (DerivOp.EXT, A)),
        (Fraction(1), (DerivOp.ID, J), (DerivOp.ID, A)),
    ]
    if mass:
        terms.append((-Fraction(mass) ** 2 / 2, (DerivOp.ID, A), (DerivOp.ID, A)))
    if xi is not None:
        terms.append((Fraction(-1, 2) / xi, (DerivOp.INT, A), (DerivOp.INT, A)))
    return LagrangianDensity(terms)


def test_field_symbol_validation():
    with pytest.raises(AlgebraError):
        FieldSymbol("2bad", 1, "source")
    with pytest.raises(AlgebraError):
        FieldSymbol("ok", -1, "source")
    with pytest.raises(AlgebraError):
        FieldSymbol("ok", 1, "background")


@pytest.mark.parametrize("name", [5, None, b"A", ("A",)])
def test_field_symbol_name_must_be_a_string(name):
    with pytest.raises(AlgebraError, match="bad field symbol name"):
        FieldSymbol(name, 1)


@pytest.mark.parametrize("grade", [1.5, True, "1"])
def test_field_symbol_grade_must_be_an_int(grade):
    with pytest.raises(AlgebraError, match="bad grade for symbol 'a'"):
        FieldSymbol("a", grade)


def test_unknown_slot_operator_raises_algebra_error():
    a = FieldSymbol("a", 1)
    with pytest.raises(AlgebraError, match="unknown slot operator 'bogus'"):
        LagrangianDensity([(1, ("bogus", a), (DerivOp.ID, a))])
    L = LagrangianDensity([(1, ("ext", a), (DerivOp.EXT, a))])  # tokens name ops too
    assert L.terms[0][1] == (DerivOp.EXT, a)
    with pytest.raises(AlgebraError, match="unknown slot operator 'bogus'"):
        vderiv(L, ("bogus", a))
    with pytest.raises(AlgebraError, match="unknown slot operator 'lap'"):
        vderiv(L, ("lap", a))


@pytest.mark.parametrize("terms, message", [
    ([(1, 2, 3)], "a slot is an (operator, FieldSymbol) pair, got 2"),
    ([1], "a density term is (coeff, slot, slot), got 1"),
    ([(1,)], "a density term is (coeff, slot, slot), got (1,)"),
    ([(1, (DerivOp.ID, "a"), (DerivOp.ID, "a"))], "a slot is an (operator, FieldSymbol) pair"),
    ([(1, (DerivOp.ID,), (DerivOp.ID,))], "a slot is an (operator, FieldSymbol) pair"),
    (None, "density terms must be iterable, got NoneType"),
    (5, "density terms must be iterable, got int"),
], ids=["int-slots", "bare-int", "one-tuple", "str-symbol", "short-slot", "none", "int"])
def test_density_refuses_a_malformed_term(terms, message):
    with pytest.raises(AlgebraError) as caught:
        LagrangianDensity(terms)
    assert str(caught.value).startswith(message)


def test_density_requires_matching_slot_grades():
    with pytest.raises(GradeError):
        LagrangianDensity([(1, (DerivOp.EXT, A), (DerivOp.ID, A))])
    with pytest.raises(GradeError):
        LagrangianDensity([(1, (DerivOp.ID, J), (DerivOp.INT, A))])


def test_density_allows_single_dynamical_symbol():
    other = FieldSymbol("B", 1, "dynamical")
    with pytest.raises(AlgebraError):
        LagrangianDensity(
            [
                (1, (DerivOp.ID, A), (DerivOp.ID, A)),
                (1, (DerivOp.ID, other), (DerivOp.ID, other)),
            ]
        )


def test_density_value_on_fields():
    rng = rng_for(41, "unit/density-value")
    L = maxwell_density(mass=1)
    a = random_field(rng, M13, 1)
    j = random_field(rng, M13, 1)
    from mvcalc.calculus import ext_deriv

    F = ext_deriv(a)
    expected = -Fraction(1, 2) * F.dot(F) + j.dot(a) - Fraction(1, 2) * a.dot(a)
    assert not (L.value({"A": a, "J": j}) - expected)


def test_vderiv_quadratic_rule():
    L = LagrangianDensity([(1, (DerivOp.ID, A), (DerivOp.ID, A))])
    assert vderiv(L, (DerivOp.ID, A)) == FormalExpr.single((), A, 2)
    assert vderiv(L, (DerivOp.EXT, A)).is_zero()


def test_vderiv_mixed_rule():
    L = LagrangianDensity([(Fraction(3), (DerivOp.ID, J), (DerivOp.ID, A))])
    assert vderiv(L, (DerivOp.ID, A)) == FormalExpr.single((), J, 3)


def test_vderiv_rejects_source_slot():
    L = maxwell_density()
    with pytest.raises(AlgebraError):
        vderiv(L, (DerivOp.ID, J))


def test_formal_expr_algebra():
    one = FormalExpr.single(("ext",), A, Fraction(1, 2))
    two = FormalExpr.single(("ext",), A, Fraction(3, 2))
    assert one + two == FormalExpr.single(("ext",), A, 2)
    assert (one - one).is_zero()
    assert one.apply("int") == FormalExpr.single(("int", "ext"), A, Fraction(1, 2))
    with pytest.raises(AlgebraError):
        one.apply("curl")


def test_formal_expr_grade_mixing_detected():
    mixed = FormalExpr([(("ext",), A, 1), ((), A, 1)])
    with pytest.raises(GradeError):
        mixed.grade


def test_formal_expr_render():
    expr = FormalExpr(
        [(("int", "ext"), A, Fraction(1)), ((), A, Fraction(4))]
    )
    assert expr.render() == "d_| ( d^ A ) + 4 * A"
    assert FormalExpr.single(("lap",), A, -1).render() == "-lap A"
    assert FormalExpr.zero().render() == "0"
    assert FormalExpr.single((), A, Fraction(-3, 2)).render() == "-3/2 * A"


def test_exterior_equation_of_maxwell_density():
    eq = euler_lagrange_exterior(maxwell_density())
    assert eq.lhs == FormalExpr.single((), J)
    assert eq.rhs == FormalExpr.single(("int", "ext"), A)
    assert eq.grade == 1


def test_exterior_equation_with_mass_and_gauge_fixing():
    eq = euler_lagrange_exterior(maxwell_density(mass=2, xi=Fraction(1, 2)))
    assert eq.lhs == FormalExpr([((), J, 1), ((), A, -4)])
    assert eq.rhs == FormalExpr(
        [(("int", "ext"), A, 1), (("ext", "int"), A, -2)]
    )


def test_tensor_route_rejects_exterior_slots():
    with pytest.raises(AlgebraError):
        euler_lagrange_tensor(maxwell_density())


def test_exterior_route_rejects_tensor_slots():
    L = LagrangianDensity([(1, (DerivOp.TENSOR, A), (DerivOp.TENSOR, A))])
    with pytest.raises(AlgebraError):
        euler_lagrange_exterior(L)


def test_tensor_slot_matrix_refuses_mixed_metrics():
    L = LagrangianDensity([(1, (DerivOp.EXT, A), (DerivOp.EXT, J))])
    fields = {"A": random_field(rng_for(5, "unit/slot-metrics"), M13, 1),
              "J": Multivector.blade(Metric(0, 4), (0,))}
    with pytest.raises(AlgebraError, match="mixed metrics"):
        tensor_slot_matrix(L, fields)


def test_two_routes_agree_on_concrete_fields():
    rng = rng_for(43, "unit/two-routes")
    L = maxwell_density(mass=1, xi=Fraction(1, 3))
    fields = [
        {"A": random_field(rng, M13, 1), "J": random_field(rng, M13, 1)}
        for _ in range(5)
    ]
    report = verify_tensor_exterior_identity(L, M13, fields)
    assert report.ok
    assert report.trials == 5


def test_tensor_slot_matrix_of_quadratic_tensor_density():
    a = FieldSymbol("a", 0, "dynamical")
    L = LagrangianDensity([(Fraction(1, 2), (DerivOp.TENSOR, a), (DerivOp.TENSOR, a))])
    rng = rng_for(47, "unit/slot-matrix")
    value = random_field(rng, M13, 0)
    from mvcalc.calculus import tensor_deriv

    assert tensor_slot_matrix(L, {"a": value}) == tensor_deriv(value)


def test_tensor_slot_matrix_is_linear_in_the_density():
    # each slot gives its own matrix and + sums them, so densities add slot by slot;
    # the dX . dX terms cancel in the sum
    ext, inner, tensor = DerivOp.EXT, DerivOp.INT, DerivOp.TENSOR
    L1 = LagrangianDensity([(Fraction(1, 2), (ext, A), (ext, A)), (3, (tensor, A), (tensor, J)),
                            (Fraction(1, 2), (tensor, A), (tensor, A))])
    L2 = LagrangianDensity([(Fraction(-2, 3), (inner, A), (inner, J)), (1, (ext, A), (ext, J)),
                            (Fraction(-1, 2), (tensor, A), (tensor, A))])
    rng = rng_for(59, "unit/slot-linearity")
    for metric in (M13, Metric(0, 3), Metric(2, 2)):
        fields = {"A": random_field(rng, metric, 1), "J": random_field(rng, metric, 1)}
        total = tensor_slot_matrix(L1 + L2, fields)
        assert total == tensor_slot_matrix(L1, fields) + tensor_slot_matrix(L2, fields)
        assert not total.is_zero()


def test_first_variation_splits_exactly():
    rng = rng_for(53, "unit/first-variation")
    L = maxwell_density(mass=2, xi=Fraction(2, 3))
    for _ in range(6):
        a = random_field(rng, M13, 1)
        eps = random_field(rng, M13, 1)
        j = random_field(rng, M13, 1)
        bulk, boundary = first_variation(L, a, eps, {"J": j})
        target = (
            L.value({"A": a + eps, "J": j}) - L.value({"A": a - eps, "J": j})
        ) / 2
        assert not (bulk + divergence_scalar(boundary) - target)


def test_first_variation_zero_for_solutions_of_free_equation():
    # For eps supported anywhere and a satisfying the source-free
    # equation, the bulk term vanishes identically.
    from mvcalc.calculus import ext_deriv

    L = LagrangianDensity(
        [(Fraction(-1, 2), (DerivOp.EXT, A), (DerivOp.EXT, A))]
    )
    rng = rng_for(59, "unit/on-shell")
    G = random_field(rng, M13, 0, max_degree=1)
    a = ext_deriv(G)  # pure gauge: d^ a = 0, so on shell
    eps = random_field(rng, M13, 1)
    bulk, _ = first_variation(L, a, eps)
    assert not bulk


def test_field_equation_residual():
    eq = euler_lagrange_exterior(maxwell_density())
    rng = rng_for(61, "unit/residual")
    from mvcalc.calculus import ext_deriv, int_deriv

    a = random_field(rng, M13, 1)
    j = int_deriv(ext_deriv(a))
    assert eq.residual({"A": a, "J": j}, M13).is_zero()
    assert not eq.residual(
        {"A": a, "J": j + Multivector.blade(M13, (0,))}, M13
    ).is_zero()


def test_identity_report_counterexamples():
    L = maxwell_density()
    report = verify_tensor_exterior_identity(L, M13, [])
    assert report.ok and report.trials == 0


# the operator table spelled out independently of CHAIN_OPS:
# token -> (text, grade of the chain on A, calculus function)
EXPECTED_OPS = {
    "ext": ("d^", 2, ext_deriv),
    "int": ("d_|", 0, int_deriv),
    "lap": ("lap", 1, laplacian),
    "tensor": ("dX", ("matrix", 1, 1), tensor_deriv),
}


def test_chain_op_table_matches_calculus():
    assert set(CHAIN_OPS) == set(EXPECTED_OPS)
    rng = rng_for(67, "unit/chain-table")
    a = random_field(rng, M13, 1)
    for token, (text, grade, function) in EXPECTED_OPS.items():
        expr = FormalExpr.single((token,), A, 3)
        assert expr.render() == f"3 * {text} A"
        assert expr.grade == grade
        if grade == ("matrix", 1, 1):
            assert expr.is_matrix
            with pytest.raises(AlgebraError):
                expr.evaluate({"A": a})
            with pytest.raises(AlgebraError, match="serialized"):
                eqdoc.dumps(FieldEquation(expr, FormalExpr.zero(), grade), M13)
            L = LagrangianDensity([(1, (DerivOp(token), A), (DerivOp(token), A))])
            assert L.value({"A": a}) == function(a).dot(function(a))
            continue
        assert expr.evaluate({"A": a}) == function(a) * 3
        # nested under d^, the chain still runs innermost first
        assert expr.apply("ext").evaluate({"A": a}) == ext_deriv(function(a)) * 3
        eq = FieldEquation(expr, FormalExpr.zero(), grade)
        assert eqdoc.loads(eqdoc.dumps(eq, M13)) == (eq, M13)


def test_matrix_op_only_stands_alone():
    with pytest.raises(AlgebraError, match="dX may only appear as a standalone chain"):
        FormalExpr.single(("ext", "tensor"), A)
    with pytest.raises(AlgebraError, match="cannot apply operator 'tensor'"):
        FormalExpr.single((), A).apply("tensor")


def test_euler_lagrange_route_follows_the_dynamical_slots():
    # a dX slot on a source does not select the tensor route
    with_source_dx = LagrangianDensity([
        (1, (DerivOp.TENSOR, J), (DerivOp.TENSOR, J)),
        (Fraction(1, 2), (DerivOp.EXT, A), (DerivOp.EXT, A)),
        (1, (DerivOp.ID, J), (DerivOp.ID, A)),
    ])
    eq = euler_lagrange(with_source_dx)
    assert eq == euler_lagrange_exterior(with_source_dx)
    assert eq.render() == "J = -d_| ( d^ A )"
    tensor_L = LagrangianDensity([
        (Fraction(1, 2), (DerivOp.TENSOR, A), (DerivOp.TENSOR, A)),
        (1, (DerivOp.ID, J), (DerivOp.ID, A)),
    ])
    assert euler_lagrange(tensor_L) == euler_lagrange_tensor(tensor_L)
    assert euler_lagrange(maxwell_density()) == euler_lagrange_exterior(maxwell_density())
    mixed = tensor_L + LagrangianDensity([(1, (DerivOp.INT, A), (DerivOp.INT, A))])
    with pytest.raises(AlgebraError, match="the density mixes the dX slots"):
        euler_lagrange(mixed)
    with pytest.raises(AlgebraError, match="no dynamical symbol"):
        euler_lagrange(LagrangianDensity([(1, (DerivOp.ID, J), (DerivOp.ID, J))]))
    assert "euler_lagrange" not in mvcalc.__all__


# -- the linear rules of the formal values ------------------------------------------------

ID_A, ID_J, EXT_A = (DerivOp.ID, A), (DerivOp.ID, J), (DerivOp.EXT, A)


def test_density_equality_merges_like_terms_and_ignores_order():
    L1 = LagrangianDensity([(Fraction(-1, 2), EXT_A, EXT_A), (1, ID_J, ID_A)])
    L2 = LagrangianDensity([(3, ID_A, ID_A)])
    assert L1 + L1 == 2 * L1 and len((L1 + L1).terms) == 2
    assert L1 + L2 == L2 + L1
    assert LagrangianDensity([(1, ID_J, ID_A)]) == LagrangianDensity([(1, ID_A, ID_J)])
    merged = LagrangianDensity([(1, ID_J, ID_A), (2, EXT_A, EXT_A), (Fraction(1, 2), ID_A, ID_J)])
    # one term per slot pair, in first-written order, slots in symbol-name order
    assert merged.terms == ((Fraction(3, 2), ID_A, ID_J), (2, EXT_A, EXT_A))
    assert L1 - L1 == 0 * L1 == -L1 + L1


def test_cancelled_density_has_no_dynamical_symbol():
    for L in (LagrangianDensity([(1, ID_A, ID_A), (-1, ID_A, ID_A)]),
              LagrangianDensity([(1, ID_J, ID_A)]) - LagrangianDensity([(1, ID_A, ID_J)])):
        assert L.is_zero() and L.terms == () and L.dynamical is None
        with pytest.raises(AlgebraError, match="the density has no dynamical symbol to vary"):
            euler_lagrange(L)
    # the one-dynamical-symbol rule holds after merging: a cancelled B is no second symbol
    B = FieldSymbol("B", 1, "dynamical")
    L = LagrangianDensity([(1, ID_A, ID_A), (1, (DerivOp.ID, B), ID_A), (-1, ID_A, (DerivOp.ID, B))])
    assert L == LagrangianDensity([(1, ID_A, ID_A)])
    with pytest.raises(AlgebraError, match=r"more than one dynamical symbol: \['A', 'B'\]"):
        L + LagrangianDensity([(1, (DerivOp.ID, B), (DerivOp.ID, B))])


def test_one_name_bound_to_two_fields_is_refused():
    A_src, A2 = FieldSymbol("A", 1, "source"), FieldSymbol("A", 2, "dynamical")
    for left, right in [(ID_A, (DerivOp.ID, A_src)), (EXT_A, (DerivOp.ID, A2))]:
        with pytest.raises(AlgebraError, match="symbol name 'A' bound to two fields"):
            LagrangianDensity([(1, left, right)])
    # each density is valid alone; their sum binds A twice
    L1 = LagrangianDensity([(1, ID_A, ID_J)])
    L2 = LagrangianDensity([(1, (DerivOp.ID, A_src), ID_J)])
    for combine in (lambda: L1 + L2, lambda: L2 + L1, lambda: L1 - L2):
        with pytest.raises(AlgebraError, match="symbol name 'A' bound to two fields"):
            combine()


def test_formal_terms_view_cannot_change_the_expression_or_its_equation():
    eq = euler_lagrange(maxwell_density(mass=2))
    before = eq.render()
    view = eq.lhs.terms
    view[((), A)] = 1.5
    del view[((), J)]
    assert eq.lhs.terms is not eq.lhs.terms and ((), J) in eq.lhs.terms
    assert eq.render() == before == "J - 4 * A = d_| ( d^ A )"
    assert eq == euler_lagrange(maxwell_density(mass=2))


def test_routes_build_no_formal_value_through_a_validating_constructor(monkeypatch):
    from mvcalc.em import MaxwellConfig, derive_equations, dual_theory, wave_form
    from mvcalc.parser import parse_lagrangian

    a, rho = FieldSymbol("a", 0, "dynamical"), FieldSymbol("rho", 0, "source")
    exterior = parse_lagrangian("-1/2*(d^A . d^A) + (J . A) - 2*(A . A) - 1*(d_|A . d_|A)", [A, J])
    tensor = parse_lagrangian("1/2*(dX a . dX a) + (rho . a) - (a . a)", [a, rho])
    cfg = MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 2))
    built = []
    for cls in (FormalExpr, LagrangianDensity):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(type(self)) or init(self, *args))
    results = [euler_lagrange_exterior(exterior), euler_lagrange_tensor(tensor), wave_form(cfg),
               derive_equations(cfg), *dual_theory(M13, 2)]
    assert built == []  # the presets build their densities through the trusted _make too
    assert [str(eq) for eq in results] == [
        "J - 4 * A = d_| ( d^ A ) - 2 * d^ ( d_| A )", "rho - 2 * a = lap a",
        "-lap A + A = J + d^ ( d_| A )", "d_| ( d^ A ) + A = J + 2 * d^ ( d_| A )",
        "Jbar = d^ ( d_| Abar )", "d_| Fbar = 0"]


def test_vderiv_of_the_right_slot_of_a_pair():
    # a pair keeps its slots in symbol-name order, so the source a comes before the dynamical b
    from mvcalc.cli import run
    from mvcalc.parser import parse_lagrangian

    b, a = FieldSymbol("b", 1, "dynamical"), FieldSymbol("a", 1, "source")
    L = parse_lagrangian("1/2*(d^b . d^b) + (a . b)", [b, a])
    assert (1, (DerivOp.ID, a), (DerivOp.ID, b)) in L.terms
    assert vderiv(L, (DerivOp.ID, b)) == FormalExpr.single((), a)
    assert vderiv(L, (DerivOp.EXT, b)) == FormalExpr.single(DerivOp.EXT.chain, b)
    assert str(euler_lagrange(L)) == "a = -d_| ( d^ b )"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["derive", "--k", "1", "--n", "3", "--lagrangian", "1/2*(d^b . d^b) + (a . b)",
                    "--symbols", "b:1:dynamical,a:1:source"]) == 0
    assert out.getvalue() == "a = -d_| ( d^ b )\n"


def test_evaluation_needs_every_symbol_bound():
    a = random_field(rng_for(3, "unbound"), M13, 1)
    L = maxwell_density()
    with pytest.raises(AlgebraError, match="^no field value bound to symbol 'J'$"):
        L.value({"A": a})
    with pytest.raises(AlgebraError, match="^no field value bound to symbol 'A'$"):
        FormalExpr.single(DerivOp.EXT.chain, A).evaluate({"J": a})
    with pytest.raises(AlgebraError, match="^no field value bound to symbol 'J'$"):
        first_variation(L, a, a)
