"""Expression parsing for the command line.

Two small grammars share one tokenizer.  Algebra expressions evaluate
directly to multivector fields over a given metric:

    expr   := term (('+'|'-') term)*
    term   := factor (op factor)*        op := '^' | '.' | '_|' | '|_'
    factor := rational | blade | poly | '-' factor
            | 'hodge' '(' expr ')' | 'invhodge' '(' expr ')'
            | 'd^' factor | 'd_|' factor | '(' expr ')'
    blade  := 'e[' indices ']'           indices checked by indexes._mask
    poly   := 'x' digits ('^' digits)?   a power of at most poly.MAX_EXPONENT

and Lagrangian densities are sums of bilinear slot terms over declared
field symbols:

    lagr   := ['-'] lterm (('+'|'-') lterm)*
    lterm  := [rational '*'] '(' slot '.' slot ')'
    slot   := ['d^' | 'd_|' | 'dX'] name

Algebra expressions nest at most MAX_NESTING (100) deep, counting
every unary '-', 'd^', 'd_|', parenthesis and hodge/invhodge call that
encloses a factor; a deeper one raises ExprError at the offset of the
first token past the cap.

Tokens are plain ``(kind, text, offset)`` tuples.  Each binary operator
and each dual maps to the *name* of the Multivector method it calls, and
the method is looked up on the value at each call, so a wrapper set on
the class after import (as the benchmark's tracer sets one) sees every
product the parser makes; ``d^`` and ``d_|`` are called through this
module's own names for the same reason.

Every error carries the character offset it was raised at; a value that
is not a str fails at offset 0.  The canonical text printed for a
multivector parses back to an equal value, which the round-trip property
relies on.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .blades import AlgebraError, Metric, Multivector, require
from .calculus import ext_deriv, int_deriv
from .indexes import _mask
from .poly import PolyScalar, _place, digit_limit, pack
from .variational import DerivOp, FieldSymbol, LagrangianDensity


MAX_NESTING = 100  # each level costs at most 3 frames, far below the recursion limit


class ExprError(AlgebraError):
    """Parse or evaluation error with a source offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<BLADE>e\[[^\]]*\])
    | (?P<POLY>x[0-9]+(?:\^[0-9]+)?)
    | (?P<NUMBER>[0-9]+(?:/[0-9]+)?)
    | (?P<DEXT>d\^)
    | (?P<DINT>d_\|)
    | (?P<DTENS>dX)
    | (?P<LINT>_\|)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<RINT>\|_)
    | (?P<OP>[-+*^.()])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The ``(kind, text, offset)`` tokens of ``text``, whitespace dropped, ending with
    ``("EOF", "", len(text))``.

    One ``finditer`` scan: each match must start where the last one ended,
    since a gap is text no token matches; the first such character raises
    ExprError("unknown token ...") at its offset.  Digits are ASCII only.
    An operator's kind is its own text; every other kind is its group name.
    """
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((m.group() if kind == "OP" else kind, m.group(), start))
        pos = m.end()
    if pos != len(text):
        raise ExprError(f"unknown token {text[pos]!r}", pos)
    tokens.append(("EOF", "", pos))
    return tokens


def _int(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # a digit run longer than Python's int-from-text limit
        raise ExprError(f"number longer than {digit_limit()} digits", offset) from None


def _rational(text: str, offset: int) -> Fraction:
    num, _, den = text.partition("/")
    den = _int(den or "1", offset)
    if den == 0:
        raise ExprError("zero denominator", offset)
    return Fraction(_int(num, offset), den)


class _Parser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ExprError(f"expected text, got {type(text).__name__}", 0)
        self.tokens = tokenize(text)
        self.index = 0

    def kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.index][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        found, text, offset = self.tokens[self.index]
        if found != kind:
            raise ExprError(f"expected {kind!r}, found {text or 'end of input'!r}", offset)
        return self.advance()

    def expect_eof(self):
        kind, text, offset = self.tokens[self.index]
        if kind != "EOF":
            raise ExprError(f"unexpected trailing input {text!r}", offset)


# operator kind or dual name -> Multivector method name, looked up on the value per call
_SUMS = {"+": "__add__", "-": "__sub__"}
_PRODUCTS = {"^": "wedge", ".": "dot", "LINT": "left_contract", "RINT": "right_contract"}
_DUALS = {"hodge": "hodge", "invhodge": "inv_hodge"}


class _ExprParser(_Parser):
    """Evaluating parser; every node is a Multivector over the metric."""

    def __init__(self, text: str, metric: Metric):
        super().__init__(text)
        self.metric = metric
        self.depth = 0

    def expr(self) -> Multivector:
        return self._chain(self.term, _SUMS)

    def term(self) -> Multivector:
        return self._chain(self.factor, _PRODUCTS)

    def _chain(self, operand, methods: dict[str, str]) -> Multivector:
        """``operand (op operand)*`` for the operators of ``methods``, left to right; an
        AlgebraError of an operator is an ExprError at its offset."""
        value = operand()
        while (kind := self.kind()) in methods:
            offset = self.advance()[2]
            rhs = operand()
            try:
                value = getattr(value, methods[kind])(rhs)
                if kind == ".":
                    value = self._scalar(value)
            except AlgebraError as exc:
                raise ExprError(str(exc), offset) from None
        return value

    def factor(self) -> Multivector:
        kind, text, offset = self.tokens[self.index]
        # literals are checked here, so they are built by the trusted ``_make``
        if kind == "NUMBER":
            self.index += 1
            return self._scalar(_rational(text, offset))
        if kind == "POLY":
            self.index += 1
            return self._scalar(self._poly(text, offset))
        if kind == "BLADE":
            self.index += 1
            return self._blade(text, offset)
        if kind == "NAME" and text not in _DUALS:
            raise ExprError(f"unknown name {text!r}", offset)
        if kind not in ("DEXT", "DINT", "-", "(", "NAME"):
            raise ExprError(f"expected a value, found {text or 'end of input'!r}", offset)
        # every remaining form encloses another factor or expression
        if self.depth == MAX_NESTING:
            raise ExprError(f"expression nested deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        self.index += 1
        if kind == "DEXT":
            value = ext_deriv(self.factor())
        elif kind == "DINT":
            value = int_deriv(self.factor())
        elif kind == "-":
            value = -self.factor()
        elif kind == "(":
            value = self.expr()
            self.expect(")")
        else:
            self.expect("(")
            value = self.expr()
            self.expect(")")
            value = getattr(value, _DUALS[text])()
        self.depth -= 1
        return value

    def _scalar(self, coeff) -> Multivector:
        """A checked coefficient as a grade-0 value."""
        terms = {}
        poly = _place(terms, 0, coeff, self.metric.dim)
        return Multivector._make(self.metric, 0, terms, poly)

    def _poly(self, text: str, offset: int) -> PolyScalar:
        body = text[1:]
        if "^" in body:
            index_text, power_text = body.split("^")
            power = _int(power_text, offset)
        else:
            index_text, power = body, 1
        index = _int(index_text, offset)
        dim = self.metric.dim
        if index >= dim:
            raise ExprError(f"coordinate x{index} out of range for dimension {dim}", offset)
        try:
            mono = pack((0,) * index + (power,))
        except AlgebraError as exc:
            raise ExprError(str(exc), offset) from None
        return PolyScalar._make(dim, {mono: 1})

    def _blade(self, text: str, offset: int) -> Multivector:
        inner = text[2:-1]
        try:
            if not inner.isascii():  # int() reads every Unicode digit
                raise ValueError
            inner = inner.strip()
            indices = tuple(int(part) for part in inner.split(",")) if inner else ()
        except ValueError:
            raise ExprError(f"bad blade literal {text!r}", offset) from None
        try:
            mask = _mask(indices, self.metric.dim)
        except AlgebraError as exc:
            raise ExprError(f"blade {exc}", offset) from None
        return Multivector._make(self.metric, len(indices), {mask: 1})


def parse_expr(text: str, metric: Metric) -> Multivector:
    """Parse and evaluate an algebra expression over the metric."""
    parser = _ExprParser(text, require(metric, Metric))
    value = parser.expr()
    parser.expect_eof()
    return value


_SLOT_OPS = {"DEXT": DerivOp.EXT, "DINT": DerivOp.INT, "DTENS": DerivOp.TENSOR}
_SIGNS = {"+": Fraction(1), "-": Fraction(-1)}


class _LagrangianParser(_Parser):
    def __init__(self, text: str, symbols: Mapping[str, FieldSymbol]):
        super().__init__(text)
        self.symbols = symbols

    def lagrangian(self) -> LagrangianDensity:
        sign = _SIGNS[self.advance()[0]] if self.kind() == "-" else _SIGNS["+"]
        terms = [self.lterm(sign)]
        while self.kind() in _SIGNS:
            terms.append(self.lterm(_SIGNS[self.advance()[0]]))
        try:
            return LagrangianDensity(terms)
        except AlgebraError as exc:
            raise ExprError(str(exc), 0) from None

    def lterm(self, sign: Fraction) -> tuple:
        coeff = sign
        if self.kind() == "NUMBER":
            _, text, offset = self.advance()
            coeff = sign * _rational(text, offset)
            self.expect("*")
        self.expect("(")
        left = self.slot()
        self.expect(".")
        right = self.slot()
        self.expect(")")
        return (coeff, left, right)

    def slot(self) -> tuple:
        op = DerivOp.ID
        if self.kind() in _SLOT_OPS:
            op = _SLOT_OPS[self.advance()[0]]
        _, name, offset = self.expect("NAME")
        symbol = self.symbols.get(name)
        if symbol is None:
            known = ", ".join(sorted(self.symbols)) or "none"
            raise ExprError(f"unknown field symbol {name!r} (declared: {known})", offset)
        return (op, symbol)


def parse_lagrangian(text: str, symbols: Mapping[str, FieldSymbol] | Sequence[FieldSymbol]) -> LagrangianDensity:
    """Parse a Lagrangian density over declared field symbols."""
    if not isinstance(symbols, Mapping):
        symbols = {require(sym, FieldSymbol).name: sym for sym in require(symbols, Iterable)}
    parser = _LagrangianParser(text, symbols)
    density = parser.lagrangian()
    parser.expect_eof()
    return density
