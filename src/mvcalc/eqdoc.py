"""JSON documents for derived field equations.

A document is a plain dict that survives a round trip losslessly:

    {
      "metric": {"k": 1, "n": 3},
      "grade": 1,
      "lhs": [{"coeff": "1", "ops": ["int", "ext"], "symbol": "A"}],
      "rhs": [{"coeff": "1", "ops": [], "symbol": "J"}],
      "symbols": {"A": {"grade": 1, "role": "dynamical"},
                  "J": {"grade": 1, "role": "source"}}
    }

Coefficients are exact rationals serialized as strings such as
``"-3/2"``; reading takes that form or a JSON integer, never a float or
a bool.  Metric sizes and grades are JSON integers, not bools.  The ops
list is outermost first, matching the rendered text.  The symbols table
carries each field's grade and role so the equation can be rebuilt
without any out-of-band context.  ``dumps`` emits a single line with
sorted keys, so equal documents serialize to identical bytes.

``dumps_value`` writes an evaluated multivector (``mvcalc eval``) in
the same single-line form, with the metric, the grade and one
indices/coeff entry per term:

    {"grade":2,"metric":{"k":1,"n":3},"terms":[{"coeff":"-1","indices":[0,1]}]}

A coefficient there may also be a polynomial in its canonical text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .blades import AlgebraError, Metric, Multivector
from .indexes import _shown, integer
from .poly import exact, number_text
from .variational import ROLES, VECTOR_OPS, FieldEquation, FieldSymbol, FormalExpr, _symbol_table

_COEFF_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _expr_to_terms(expr: FormalExpr) -> list[dict]:
    out = []
    for (chain, symbol), coeff in expr._terms.items():
        if any(op not in VECTOR_OPS for op in chain):
            raise AlgebraError(f"only {'/'.join(VECTOR_OPS)} chains can be serialized")
        out.append({"coeff": number_text(coeff), "ops": list(chain), "symbol": symbol.name})
    return out


def equation_to_doc(eq: FieldEquation, metric: Metric) -> dict:
    symbols = _symbol_table(sym for expr in (eq.lhs, eq.rhs) for _, sym in expr._terms)
    return {
        "metric": {"k": metric.k, "n": metric.n},
        "grade": eq.grade,
        "lhs": _expr_to_terms(eq.lhs),
        "rhs": _expr_to_terms(eq.rhs),
        "symbols": {
            name: {"grade": sym.grade, "role": sym.role}
            for name, sym in sorted(symbols.items())
        },
    }


def _need(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise AlgebraError(f"equation document is missing {key!r}")
    return doc[key]


def _coeff(value):
    """A coefficient as ``dumps`` writes it (a string) or a JSON integer."""
    try:
        if isinstance(value, str) and _COEFF_RE.fullmatch(value):
            value = Fraction(value)
        return exact(value)  # any other string, float or bool is refused here
    except (ValueError, ZeroDivisionError) as exc:  # AlgebraError is a ValueError
        raise AlgebraError(f"bad coefficient {_shown(value)}") from exc


def _terms_from_doc(entries, symbols: dict) -> FormalExpr:
    if not isinstance(entries, list):
        raise AlgebraError("term list must be a list")
    terms = []
    for entry in entries:
        name = _need(entry, "symbol")
        if not isinstance(name, str) or name not in symbols:
            raise AlgebraError(f"term references undeclared symbol {_shown(name)}")
        ops = _need(entry, "ops")
        if not isinstance(ops, list) or any(op not in VECTOR_OPS for op in ops):
            raise AlgebraError(f"bad ops list {_shown(ops)}")
        terms.append((tuple(ops), symbols[name], _coeff(_need(entry, "coeff"))))
    return FormalExpr(terms)


def doc_to_equation(doc: dict) -> tuple[FieldEquation, Metric]:
    metric_doc = _need(doc, "metric")
    try:
        metric = Metric(_need(metric_doc, "k"), _need(metric_doc, "n"))
    except AlgebraError as exc:
        raise AlgebraError(f"bad metric entry {_shown(metric_doc)}: {exc}") from exc
    symbol_doc = _need(doc, "symbols")
    if not isinstance(symbol_doc, dict):
        raise AlgebraError(f"symbols must be an object, got {_shown(symbol_doc)}")
    symbols = {}
    for name, entry in symbol_doc.items():
        role = _need(entry, "role")
        if role not in ROLES:
            raise AlgebraError(f"bad role {_shown(role)} for symbol {_shown(name)}")
        symbols[name] = FieldSymbol(name, _need(entry, "grade"), role)
    grade = integer(_need(doc, "grade"), "grade")
    eq = FieldEquation(
        _terms_from_doc(_need(doc, "lhs"), symbols),
        _terms_from_doc(_need(doc, "rhs"), symbols),
        grade,
    )
    return eq, metric


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dumps(eq: FieldEquation, metric: Metric) -> str:
    """Single-line canonical JSON for an equation."""
    return _canonical(equation_to_doc(eq, metric))


def dumps_value(value: Multivector) -> str:
    """Single-line canonical JSON for an evaluated multivector."""
    return _canonical({
        "metric": {"k": value.metric.k, "n": value.metric.n},
        "grade": value.grade,
        "terms": [{"indices": list(indices), "coeff": text} for indices, text in value._texts()],
    })


def loads(text: str) -> tuple[FieldEquation, Metric]:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals
        raise AlgebraError(f"not valid JSON: {exc}") from exc
    return doc_to_equation(doc)
