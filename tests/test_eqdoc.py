import json
from fractions import Fraction

import pytest

from mvcalc.blades import AlgebraError, Metric
from mvcalc.em import MaxwellConfig, derive_equations, dual_theory, wave_form
from mvcalc.eqdoc import doc_to_equation, dumps, equation_to_doc, loads
from mvcalc.variational import FieldEquation, FieldSymbol, FormalExpr

M13 = Metric(1, 3)


def round_trip(eq, metric):
    text = dumps(eq, metric)
    back, back_metric = loads(text)
    return back, back_metric, text


def test_vacuum_equation_round_trip():
    eq = derive_equations(MaxwellConfig(M13, 2))
    back, metric, text = round_trip(eq, M13)
    assert metric == M13
    assert back == eq
    assert "\n" not in text
    # stable bytes: serializing the rebuilt equation reproduces the text
    assert dumps(back, metric) == text


def test_massive_gauge_fixed_round_trip():
    eq = derive_equations(MaxwellConfig(M13, 3, mass=2, xi=Fraction(1, 2)))
    back, metric, _ = round_trip(eq, M13)
    assert back == eq and metric == M13


def test_wave_form_round_trip():
    eq = wave_form(MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 3)))
    back, _, _ = round_trip(eq, M13)
    assert back == eq


def test_dual_round_trip():
    nonhomog, homog = dual_theory(M13, 2)
    for eq in (nonhomog, homog):
        back, _, _ = round_trip(eq, M13)
        assert back == eq


def test_document_shape():
    eq = derive_equations(MaxwellConfig(M13, 2))
    doc = equation_to_doc(eq, M13)
    assert doc == {
        "metric": {"k": 1, "n": 3},
        "grade": 1,
        "lhs": [{"coeff": "1", "ops": ["int", "ext"], "symbol": "A"}],
        "rhs": [{"coeff": "1", "ops": [], "symbol": "J"}],
        "symbols": {
            "A": {"grade": 1, "role": "dynamical"},
            "J": {"grade": 1, "role": "source"},
        },
    }
    assert dumps(eq, M13) == json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_equality_ignores_term_order():
    A = FieldSymbol("A", 1, "dynamical")
    lhs = FormalExpr([((), A, 1), (("lap",), A, 2)])
    swapped = FormalExpr([(("lap",), A, 2), ((), A, 1)])
    eq = FieldEquation(lhs, FormalExpr.zero(), 1)
    other = FieldEquation(swapped, FormalExpr.zero(), 1)
    assert eq == other
    doc = equation_to_doc(other, M13)
    rebuilt, _ = doc_to_equation(doc)
    assert rebuilt == eq


def test_tensor_chain_is_not_serializable():
    a = FieldSymbol("a", 0, "dynamical")
    eq = FieldEquation(
        FormalExpr.single((), a), FormalExpr.single(("lap",), a), 0
    )
    equation_to_doc(eq, M13)  # fine
    bad = FieldEquation(
        FormalExpr.single(("tensor",), a),
        FormalExpr.single(("tensor",), a, 2),
        ("matrix", 1, 0),
    )
    with pytest.raises(AlgebraError, match="serialized"):
        equation_to_doc(bad, M13)


def test_validation_catches_malformed_documents():
    good = equation_to_doc(derive_equations(MaxwellConfig(M13, 2)), M13)

    def broken(**changes):
        doc = json.loads(json.dumps(good))
        doc.update(changes)
        return doc

    with pytest.raises(AlgebraError, match="missing 'grade'"):
        doc = broken()
        del doc["grade"]
        doc_to_equation(doc)
    with pytest.raises(AlgebraError, match="bad metric"):
        doc_to_equation(broken(metric={"k": 1}))
    with pytest.raises(AlgebraError, match="bad role"):
        doc = broken()
        doc["symbols"]["J"]["role"] = "driver"
        doc_to_equation(doc)
    with pytest.raises(AlgebraError, match="bad ops"):
        doc = broken()
        doc["lhs"][0]["ops"] = ["curl"]
        doc_to_equation(doc)
    with pytest.raises(AlgebraError, match="bad coefficient"):
        doc = broken()
        doc["rhs"][0]["coeff"] = "0.5x"
        doc_to_equation(doc)
    with pytest.raises(AlgebraError, match="undeclared symbol"):
        doc = broken()
        doc["rhs"][0]["symbol"] = "K"
        doc_to_equation(doc)
    with pytest.raises(AlgebraError, match="bad grade"):
        doc_to_equation(broken(grade="one"))
    with pytest.raises(AlgebraError, match="not valid JSON"):
        loads("{not json")


def test_rebuilt_equation_evaluates_like_original():
    from mvcalc.calculus import ext_deriv, int_deriv
    from mvcalc.randgen import random_field, rng_for

    eq = derive_equations(MaxwellConfig(M13, 2, mass=1, xi=Fraction(1, 2)))
    back, metric, _ = round_trip(eq, M13)
    rng = rng_for(107, "unit/eqdoc-eval")
    fields = {"A": random_field(rng, M13, 1), "J": random_field(rng, M13, 1)}
    assert back.residual(fields, metric) == eq.residual(fields, M13)


def _good_doc():
    return equation_to_doc(derive_equations(MaxwellConfig(M13, 2)), M13)


@pytest.mark.parametrize("coeff", [0.1, 0.5, True, False, None, [1], "0.1", "1e3", "1/0", " 1"])
def test_loads_rejects_inexact_or_malformed_coefficients(coeff):
    doc = _good_doc()
    doc["rhs"][0]["coeff"] = coeff
    with pytest.raises(AlgebraError, match="bad coefficient"):
        loads(json.dumps(doc))


def test_loads_takes_coefficient_strings_and_integers():
    doc = _good_doc()
    doc["lhs"][0]["coeff"] = 2
    doc["rhs"][0]["coeff"] = "-6/4"
    eq, _ = loads(json.dumps(doc))
    assert [type(c) for c in eq.lhs.terms.values()] == [int]
    assert list(eq.rhs.terms.values()) == [Fraction(-3, 2)]
    doc["rhs"][0]["coeff"] = "4/2"
    eq, _ = loads(json.dumps(doc))
    assert [type(c) for c in eq.rhs.terms.values()] == [int]


@pytest.mark.parametrize("metric", [{"k": 1.9, "n": 3}, {"k": 1, "n": 3.0}, {"k": True, "n": 3},
                                    {"k": "1", "n": 3}, [1, 3]])
def test_loads_rejects_non_integer_metric(metric):
    doc = _good_doc()
    doc["metric"] = metric
    with pytest.raises(AlgebraError, match="bad metric|missing"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("grade", [True, 1.0, "1", None])
def test_loads_rejects_non_integer_symbol_grade(grade):
    doc = _good_doc()
    doc["symbols"]["A"]["grade"] = grade
    with pytest.raises(AlgebraError, match="bad grade"):
        loads(json.dumps(doc))


def test_loads_rejects_bool_equation_grade():
    doc = _good_doc()
    doc["grade"] = True
    with pytest.raises(AlgebraError, match="bad grade"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("symbols", [[], ["A"], "A", 3, None])
def test_loads_rejects_symbols_that_are_not_an_object(symbols):
    doc = _good_doc()
    doc["symbols"] = symbols
    with pytest.raises(AlgebraError, match="symbols"):
        loads(json.dumps(doc))


def test_loads_rejects_a_term_symbol_that_is_not_a_name():
    doc = _good_doc()
    doc["lhs"][0]["symbol"] = ["A"]
    with pytest.raises(AlgebraError, match="undeclared symbol"):
        loads(json.dumps(doc))


def test_loads_rejects_pathological_json():
    with pytest.raises(AlgebraError, match="not valid JSON"):
        loads("[" * 100000 + "]" * 100000)
    with pytest.raises(AlgebraError, match="not valid JSON"):
        loads('{"grade": ' + "9" * 5000 + "}")
