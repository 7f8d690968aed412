"""Results built by the trusted internal builders are canonical.

Every arithmetic result of ``PolyScalar``, ``Multivector`` and
``MvMatrix`` skips the public constructor's checks, and so does every
value ``randgen`` generates.  The oracle here is that public
constructor: on ``randgen`` fields over every (k, n) with k+n <= 5, with
rational and polynomial coefficients, each result (and each generated
input) must equal its own terms passed back through it, hold no zero
coefficient and no integral Fraction, and key every term by index lists
of its grade.
Every ``terms`` is a view built on each access, a new dict each time, and
the constructor must rebuild the same view.  A multivector's keys must
be canonical index tuples of the result's grade, and ``items()`` must
give them in sorted order.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import mvcalc
from mvcalc import blades
from mvcalc.blades import Metric, Multivector
from mvcalc.calculus import (directional_deriv, ext_deriv, int_deriv, laplacian,
                             matrix_divergence, tensor_deriv)
from mvcalc.indexes import check_canonical
from mvcalc.matrices import MvMatrix, mat_vec, vec_mat
from mvcalc.poly import PolyScalar
from mvcalc.randgen import (field_cases, random_constant_field, random_field,
                            random_matrix_field, random_poly, rng_for)
from mvcalc.variational import DerivOp, FieldSymbol, LagrangianDensity, tensor_slot_matrix
from mvcalc.verify import run_suites

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"

METRICS = [Metric(k, dim - k) for dim in range(1, 6) for k in range(dim + 1)]


def check(value):
    """Assert that ``value`` is what the validating constructor makes of its terms."""
    view = value.terms
    if isinstance(value, PolyScalar):
        rebuilt = PolyScalar(value.nvars, view)
        assert all(len(exps) == value.nvars for exps in view)
    elif isinstance(value, Multivector):
        rebuilt = Multivector(value.metric, value.grade, view)
        for indices in view:
            assert type(indices) is tuple and len(indices) == value.grade
            check_canonical(indices, value.metric.dim)
        assert value.items() == sorted(view.items(), key=lambda item: item[0])
    else:
        assert isinstance(value, MvMatrix)
        rebuilt = MvMatrix(value.metric, value.row_grade, value.col_grade, view)
        assert all(len(rows) == value.row_grade and len(cols) == value.col_grade
                   for rows, cols in view)
    assert rebuilt.terms == view and value.terms is not view
    # dict equality takes 2 == Fraction(2), so compare the coefficient types too
    assert rebuilt == value
    assert {k: type(c) for k, c in rebuilt.terms.items()} == {
        k: type(c) for k, c in value.terms.items()}
    for coeff in value.terms.values():
        assert coeff and type(coeff) in (int, Fraction, PolyScalar)
        assert type(coeff) is not Fraction or coeff.denominator != 1
        if isinstance(coeff, PolyScalar):
            check(coeff)
    return value


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_multivector_and_matrix_results_are_canonical(metric, coefficient_fields):
    rng = rng_for(6, f"unit/trusted/{metric.k},{metric.n}")
    by_grade = {g: coefficient_fields(rng, metric, g) for g in range(metric.dim + 1)}
    half = Fraction(1, 2)
    poly = random_poly(rng, metric.dim) or PolyScalar.constant(metric.dim, 3)
    for g, cases in by_grade.items():
        vectors = by_grade[1]
        for pos, a in enumerate(cases):
            b = cases[(pos + 1) % len(cases)]
            for value in (a + b, a - a, a + a * -half, -a, a * half, a * 2, a * poly,
                          a.hodge(), a.inv_hodge(), ext_deriv(a), int_deriv(a),
                          laplacian(a), directional_deriv(vectors[pos], a)):
                check(value)
            for h, others in by_grade.items():
                c = others[(pos + h) % len(others)]
                check(a.wedge(c))
                check(a.left_contract(c))
                check(a.right_contract(c))
            m = check(tensor_deriv(a))
            n = random_matrix_field(rng, metric, 1, g) * half
            for value in (m + n, m - m, -m, m * half, m * poly, m.transpose(),
                          m.matmul(n.transpose()), m.transpose().matmul(n),
                          matrix_divergence(m), matrix_divergence(n),
                          mat_vec(m, b), vec_mat(vectors[pos], m)):
                check(value)


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_tensor_slot_matrix_is_canonical(metric, coefficient_fields):
    rng = rng_for(6, f"unit/trusted-slots/{metric.k},{metric.n}")
    for grade in range(metric.dim + 1):
        a, j = FieldSymbol("A", grade), FieldSymbol("J", grade, "source")
        terms = [(Fraction(1, 2), (DerivOp.EXT, a), (DerivOp.EXT, a)),
                 (Fraction(3, 2), (DerivOp.TENSOR, a), (DerivOp.TENSOR, j)),
                 (1, (DerivOp.ID, j), (DerivOp.ID, a))]
        if grade:
            terms.append((Fraction(-1, 3), (DerivOp.INT, a), (DerivOp.INT, j)))
        L = LagrangianDensity(terms)
        for a_value, j_value in zip(coefficient_fields(rng, metric, grade),
                                    coefficient_fields(rng, metric, grade)):
            check(tensor_slot_matrix(L, {"A": a_value, "J": j_value}))


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: f"{m.k},{m.n}")
def test_generated_inputs_are_canonical(metric):
    rng = rng_for(6, f"unit/trusted-randgen/{metric.k},{metric.n}")
    for grade in range(-1, metric.dim + 2):  # the grades past each end give zeros
        for value in (random_poly(rng, metric.dim), random_field(rng, metric, grade),
                      random_constant_field(rng, metric, grade),
                      *field_cases(rng, metric, grade, 5)):
            check(value)
        for rows in range(metric.dim + 1):
            check(random_matrix_field(rng, metric, rows, grade))


def test_generators_build_through_no_validating_constructor(monkeypatch):
    built = []
    for cls in (PolyScalar, Multivector, MvMatrix):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(type(self)) or init(self, *args))
    PolyScalar(1), Multivector(Metric(1, 3), 1), MvMatrix(Metric(1, 3), 1, 1)
    assert built == [PolyScalar, Multivector, MvMatrix]  # the wrappers do count
    built.clear()
    rng = rng_for(6, "unit/trusted-counts")
    for metric in (Metric(1, 3), Metric(2, 3)):
        for grade in range(metric.dim + 1):
            assert len(field_cases(rng, metric, grade, 20)) == 20
            random_matrix_field(rng, metric, 1, grade)
            random_matrix_field(rng, metric, grade, grade)
    assert built == []


def test_adopted_terms_are_canonical_as_built(monkeypatch):
    # blades._adopt writes every trusted Multivector and scans no coefficient, so every
    # dict it is handed must already hold only nonzero ints and Fractions with a
    # denominator above 1, keyed by blades of the stated grade
    real, adopted = blades._adopt, []

    def guard(metric, grade, terms, poly):
        full = (1 << metric.dim) - 1
        for key, c in terms.items():
            assert (type(c) is int and c) or (type(c) is Fraction and c.denominator > 1), c
            assert (key & full).bit_count() == grade, (key, grade)
        adopted.append(len(terms))
        return real(metric, grade, terms, poly)

    monkeypatch.setattr(blades, "_adopt", guard)
    outcomes = run_suites("algebra", seed=42, trials=2)
    assert outcomes and all(item.ok for item in outcomes)
    assert 0 in adopted and 1 in adopted and max(adopted) > 1  # empty, 1x1 and dual results


def test_only_the_product_step_and_the_duals_adopt():
    # _adopt is sound only where the result is canonical by construction; _make
    # hands it only what _exact_terms returns
    callers = set()
    for module in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.FunctionDef):
                callers |= {(module.name, node.name) for call in ast.walk(node)
                            if isinstance(call, ast.Call) and "_adopt" in ast.unparse(call.func)}
    assert callers == {("blades.py", "_product"), ("blades.py", "_dual"), ("blades.py", "_make")}


def test_poly_results_are_canonical():
    rng = rng_for(6, "unit/trusted-poly")
    for nvars in range(1, 6):
        for _ in range(20):
            p = random_poly(rng, nvars) * Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
            q = random_poly(rng, nvars) * Fraction(1, rng.choice((1, 2, 3)))
            results = [p + q, p - q, p - p, -p, p * q, p * Fraction(2, 3), p * 0, p / 3,
                       p + Fraction(1, 2), Fraction(1, 2) - p, p * p * Fraction(3, 2)]
            results += [p.partial(i) for i in range(nvars)]
            for value in results:
                check(value)


def test_public_api_is_pinned():
    # the trusted builders are private; the public names stay exactly these 53
    assert sorted(mvcalc.__all__) == [
        "AlgebraError", "DerivOp", "ExprError", "FieldEquation", "FieldSymbol",
        "FormalExpr", "GradeError", "LagrangianDensity", "MaxwellConfig", "Metric",
        "Multivector", "MvMatrix", "PolyScalar", "__version__", "build_dual_lagrangian",
        "build_lagrangian", "check_laplacian_splitting", "complement", "derive_equations",
        "directional_deriv", "divergence_scalar", "doc_to_equation", "dual_field",
        "dual_gauge_check", "dual_theory", "equation_to_doc", "euler_lagrange_exterior",
        "euler_lagrange_tensor", "ext_deriv", "field_from_potential", "first_variation",
        "format_report", "gauge_transform", "homogeneous_check", "int_deriv", "laplacian",
        "mat_vec", "matrix_divergence", "merge_signature", "parse_expr", "parse_lagrangian",
        "polarization_count", "random_field", "right_int_deriv", "rng_for", "run_suites",
        "sort_signature", "tensor_deriv", "tensor_slot_matrix", "vderiv", "vec_mat",
        "verify_tensor_exterior_identity", "wave_form",
    ]
    assert len(set(mvcalc.__all__)) == 53
    assert all(hasattr(mvcalc, name) for name in mvcalc.__all__)
