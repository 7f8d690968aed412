"""Reference results for the benchmark's output checks.

Nothing here imports mvcalc.  Products follow the table in the
``mvcalc.blades`` docstring and derivatives the formulas in the
``mvcalc.calculus`` docstring, with every permutation sign recomputed by
explicit bubble-sort swap counting and every metric sign as a product
over axes.  Field equations come from the closed forms documented in the
README and the ``mvcalc.em`` / ``mvcalc.variational`` docstrings, built
by string formatting.  Text follows the documented canonical forms.
"""

from __future__ import annotations

import json
from fractions import Fraction

# -- signs -------------------------------------------------------------------


def swap_sign(seq) -> tuple[int, tuple]:
    """(sign, sorted tuple) by counting adjacent swaps; (0, ()) on a repeat."""
    items = list(seq)
    if len(set(items)) != len(items):
        return 0, ()
    swaps = 0
    for end in range(len(items) - 1, 0, -1):
        for j in range(end):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                swaps += 1
    return (-1 if swaps & 1 else 1), tuple(items)


def metric_sign(k: int, indices) -> int:
    """D_II: -1 for each time-like axis (index < k) in the list."""
    sign = 1
    for i in indices:
        if i < k:
            sign = -sign
    return sign


# -- polynomials ---------------------------------------------------------------


class Poly:
    """Polynomial as {exponent tuple: nonzero Fraction}; supports + - * and partial."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def var(cls, nvars: int, index: int, power: int = 1) -> "Poly":
        exps = tuple(power if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    def _lift(self, other) -> "Poly":
        return other if isinstance(other, Poly) else Poly.const(self.nvars, other)

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._lift(other)
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def partial(self, index: int) -> "Poly":
        out: dict = {}
        for e, c in self.terms.items():
            if e[index]:
                lowered = e[:index] + (e[index] - 1,) + e[index + 1:]
                out[lowered] = out.get(lowered, 0) + c * e[index]
        return Poly(self.nvars, out)


def partial(coeff, index: int):
    return coeff.partial(index) if isinstance(coeff, Poly) else 0


# -- products on {blade: coeff} dicts ---------------------------------------------


def _acc(out: dict, key, value) -> None:
    total = out.get(key, 0) + value
    if total:
        out[key] = total
    else:
        out.pop(key, None)


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for I, ca in a.items():
        for J, cb in b.items():
            sign, K = swap_sign(I + J)
            if sign:
                _acc(out, K, sign * ca * cb)
    return out


def left_contract(k: int, a: dict, b: dict) -> dict:
    """e_I _| e_J = D_II s(J\\I, I) e_{J\\I} when I <= J."""
    out: dict = {}
    for I, ca in a.items():
        for J, cb in b.items():
            if set(I) <= set(J):
                rest = tuple(j for j in J if j not in I)
                sign, _ = swap_sign(rest + I)
                _acc(out, rest, metric_sign(k, I) * sign * ca * cb)
    return out


def right_contract(k: int, a: dict, b: dict) -> dict:
    """e_J |_ e_I = D_II s(I, J\\I) e_{J\\I} when I <= J."""
    out: dict = {}
    for J, ca in a.items():
        for I, cb in b.items():
            if set(I) <= set(J):
                rest = tuple(j for j in J if j not in I)
                sign, _ = swap_sign(I + rest)
                _acc(out, rest, metric_sign(k, I) * sign * ca * cb)
    return out


def _complement(I: tuple, dim: int) -> tuple:
    return tuple(i for i in range(dim) if i not in I)


def hodge(k: int, dim: int, a: dict) -> dict:
    out: dict = {}
    for I, c in a.items():
        Ic = _complement(I, dim)
        sign, _ = swap_sign(I + Ic)
        _acc(out, Ic, metric_sign(k, I) * sign * c)
    return out


def inv_hodge(k: int, dim: int, a: dict) -> dict:
    out: dict = {}
    for I, c in a.items():
        Ic = _complement(I, dim)
        sign, _ = swap_sign(Ic + I)
        _acc(out, Ic, metric_sign(k, Ic) * sign * c)
    return out


def dot(k: int, a: dict, b: dict):
    total = 0
    for I, c in a.items():
        if I in b:
            total = total + metric_sign(k, I) * c * b[I]
    return total


def ext_deriv(k: int, dim: int, a: dict) -> dict:
    """sum over i not in I of D_ii s(i, I) d_i a_I e_{i+I}."""
    out: dict = {}
    for I, c in a.items():
        for i in range(dim):
            if i in I:
                continue
            d = partial(c, i)
            if d:
                sign, K = swap_sign((i,) + I)
                _acc(out, K, metric_sign(k, (i,)) * sign * d)
    return out


def int_deriv(a: dict) -> dict:
    """sum over i in I of s(I\\i, i) d_i a_I e_{I\\i}."""
    out: dict = {}
    for I, c in a.items():
        for i in I:
            d = partial(c, i)
            if d:
                rest = tuple(j for j in I if j != i)
                sign, _ = swap_sign(rest + (i,))
                _acc(out, rest, sign * d)
    return out


# -- canonical text ------------------------------------------------------------


def _monomial_text(exps: tuple, mag: Fraction) -> str:
    factors = []
    if mag != 1 or not any(exps):
        factors.append(str(mag))
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{e}")
    return " ^ ".join(factors)


def _poly_items(c) -> list:
    """Terms of a coefficient, leading (graded-lex highest) monomial first."""
    if isinstance(c, Poly):
        return sorted(c.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    return [((), Fraction(c))]


def coeff_text(c) -> str:
    """A coefficient as documented: ``3/2 ^ x0^2 ^ x1 + x2``."""
    items = _poly_items(c)
    if not items:
        return "0"
    pieces = []
    for pos, (exps, value) in enumerate(items):
        body = _monomial_text(exps, abs(value))
        if pos == 0:
            pieces.append(body if value > 0 else "-" + body)
        else:
            pieces.append(f" {'+' if value > 0 else '-'} {body}")
    return "".join(pieces)


def multivector_text(terms: dict) -> str:
    """``-e[2]``, ``3/2 ^ x0 ^ e[0,1] + (x1 - 1) ^ e[2,3]``, ``0``."""
    if not terms:
        return "0"
    if list(terms) == [()]:
        return coeff_text(terms[()])
    pieces = []
    for pos, (I, c) in enumerate(sorted(terms.items())):
        items = _poly_items(c)
        if len(items) > 1:
            sign, factors = 1, [f"({coeff_text(c)})"]
        else:
            exps, value = items[0]
            text = _monomial_text(exps, abs(value))
            sign, factors = (1 if value > 0 else -1), ([] if text == "1" else text.split(" ^ "))
        body = " ^ ".join(factors + ["e[" + ",".join(map(str, I)) + "]"])
        if pos == 0:
            pieces.append(body if sign > 0 else "-" + body)
        else:
            pieces.append(f" {'+' if sign > 0 else '-'} {body}")
    return "".join(pieces)


def _compact_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- expression trees for ``mvcalc eval`` ----------------------------------------
#
# Nodes are tuples: ("num", Fraction), ("x", index, power), ("blade", indices),
# ("neg", a), (binary op, a, b) for "+", "-", "^", "_|", "|_", ".", and
# (unary op, a) for "hodge", "invhodge", "d^", "d_|".


def expr_text(node) -> str:
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "x":
        return f"x{node[1]}" + (f"^{node[2]}" if node[2] != 1 else "")
    if kind == "blade":
        return "e[" + ",".join(map(str, node[1])) + "]"
    if kind == "neg":
        return f"-({expr_text(node[1])})"
    if kind in ("hodge", "invhodge"):
        return f"{kind}({expr_text(node[1])})"
    if kind in ("d^", "d_|"):
        return f"{kind} ({expr_text(node[1])})"
    return f"({expr_text(node[1])} {kind} {expr_text(node[2])})"


def evaluate(node, k: int, dim: int) -> tuple[int, dict]:
    """(grade, {blade: Poly}) of an expression tree over metric (k, dim - k)."""
    kind = node[0]
    if kind == "num":
        return 0, {(): Poly.const(dim, node[1])}
    if kind == "x":
        return 0, {(): Poly.var(dim, node[1], node[2])}
    if kind == "blade":
        return len(node[1]), {node[1]: Poly.const(dim, 1)}
    if kind == "neg":
        g, a = evaluate(node[1], k, dim)
        return g, {I: -c for I, c in a.items()}
    if kind in ("hodge", "invhodge"):
        g, a = evaluate(node[1], k, dim)
        return dim - g, (hodge if kind == "hodge" else inv_hodge)(k, dim, a)
    if kind == "d^":
        g, a = evaluate(node[1], k, dim)
        return g + 1, ext_deriv(k, dim, a)
    if kind == "d_|":
        g, a = evaluate(node[1], k, dim)
        return g - 1, int_deriv(a)
    ga, a = evaluate(node[1], k, dim)
    gb, b = evaluate(node[2], k, dim)
    if kind in ("+", "-"):
        out = dict(a)
        for I, c in b.items():
            _acc(out, I, c if kind == "+" else -c)
        return ga, out
    if kind == "^":
        return ga + gb, wedge(a, b)
    if kind == "_|":
        return gb - ga, left_contract(k, a, b)
    if kind == "|_":
        return ga - gb, right_contract(k, a, b)
    if kind == ".":
        value = dot(k, a, b)
        return 0, ({(): value} if value else {})
    raise ValueError(f"unknown node {kind!r}")


def eval_output(node, k: int, n: int, fmt: str) -> str:
    """Expected stdout of ``mvcalc eval`` on an expression tree."""
    grade, terms = evaluate(node, k, k + n)
    if fmt == "text":
        return multivector_text(terms) + "\n"
    doc = {
        "metric": {"k": k, "n": n},
        "grade": grade,
        "terms": [{"indices": list(I), "coeff": coeff_text(c)} for I, c in sorted(terms.items())],
    }
    return _compact_json(doc) + "\n"


# -- field equations for ``mvcalc derive`` ------------------------------------------


def _term_text(chain: tuple, symbol: str, coeff: Fraction, first: bool) -> str:
    ops = {"ext": "d^", "int": "d_|", "lap": "lap"}
    body = symbol
    for op in reversed(chain):
        if " " in body:
            body = f"( {body} )"
        body = f"{ops[op]} {body}"
    mag = abs(coeff)
    text = body if mag == 1 else f"{mag} * {body}"
    if first:
        return f"-{text}" if coeff < 0 else text
    return f" - {text}" if coeff < 0 else f" + {text}"


def side_text(terms: list) -> str:
    """Render [(chain, symbol, coeff), ...] the way equations print."""
    if not terms:
        return "0"
    return "".join(_term_text(ch, sym, c, pos == 0) for pos, (ch, sym, c) in enumerate(terms))


class Equation:
    """Closed form of a derived equation: both sides, grade and symbol table."""

    def __init__(self, lhs: list, rhs: list, grade: int, symbols: dict):
        self.lhs, self.rhs, self.grade, self.symbols = lhs, rhs, grade, symbols

    def text(self) -> str:
        return f"{side_text(self.lhs)} = {side_text(self.rhs)}"

    def doc(self, k: int, n: int) -> dict:
        def terms(side):
            return [{"coeff": str(c), "ops": list(ch), "symbol": s} for ch, s, c in side]

        return {
            "metric": {"k": k, "n": n},
            "grade": self.grade,
            "lhs": terms(self.lhs),
            "rhs": terms(self.rhs),
            "symbols": {name: {"grade": g, "role": role}
                        for name, (g, role) in sorted(self.symbols.items())},
        }


def preset_equation(preset: str, r: int, mass: Fraction, xi) -> Equation:
    """``d_| ( d^ A ) [+ m^2 * A] = J [+ 1/xi * d^ ( d_| A )]``, or the dual form."""
    if preset == "dual":
        s = r + 1
        return Equation([((), "Jbar", Fraction(1))], [(("ext", "int"), "Abar", Fraction(1))],
                        s, {"Abar": (s, "dynamical"), "Jbar": (s, "source")})
    field, source = ("A", "J") if preset == "maxwell" else ("phi", "rho")
    lhs = [(("int", "ext"), field, Fraction(1))]
    if mass:
        lhs.append(((), field, mass * mass))
    rhs = [((), source, Fraction(1))]
    if xi is not None:
        rhs.append((("ext", "int"), field, 1 / xi))
    return Equation(lhs, rhs, r - 1, {field: (r - 1, "dynamical"), source: (r - 1, "source")})


def density_equation(route: str, field: str, source: str, s: int, terms: list) -> Equation:
    """Equation of a custom density in the raw variational orientation.

    ``terms`` lists (slot kind, coeff) in density order, slot kind one of
    "ext" (d^a . d^a), "int" (d_|a . d_|a), "tensor" (dX a . dX a), "mass"
    (a . a) and "source" (source . a).  By the two product rules, each
    square contributes twice its coefficient; the exterior route sends
    d^ slots to (-1)^s d_| and d_| slots to -(-1)^s d^, the tensor route
    sends dX slots to lap.
    """
    sign = -1 if s & 1 else 1
    lhs, rhs_first, rhs_second = [], [], []
    for kind, c in terms:
        if kind == "mass":
            lhs.append(((), field, 2 * c))
        elif kind == "source":
            lhs.append(((), source, c))
        elif kind == "ext":
            rhs_first.append((("int", "ext"), field, sign * 2 * c))
        elif kind == "int":
            rhs_second.append((("ext", "int"), field, -sign * 2 * c))
        else:
            rhs_first.append((("lap",), field, 2 * c))
    rhs = _merge(rhs_first + rhs_second)
    return Equation(_merge(lhs), rhs, s, {field: (s, "dynamical"), source: (s, "source")})


def _merge(terms: list) -> list:
    """Combine equal (chain, symbol) keys, first occurrence first, dropping zeros."""
    out: dict = {}
    for ch, sym, c in terms:
        out[(ch, sym)] = out.get((ch, sym), 0) + c
    return [(ch, sym, c) for (ch, sym), c in out.items() if c]


def derive_output(eq: Equation, k: int, n: int, fmt: str) -> str:
    """Expected stdout of ``mvcalc derive``."""
    if fmt == "text":
        return eq.text() + "\n"
    return _compact_json(eq.doc(k, n)) + "\n"


def doc_text(doc: dict) -> str:
    """Equation text rebuilt from a JSON document's coefficient/ops/symbol triples."""
    def side(entries):
        return side_text([(tuple(e["ops"]), e["symbol"], Fraction(e["coeff"])) for e in entries])

    return f"{side(doc['lhs'])} = {side(doc['rhs'])}"
