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


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, whitespace dropped, ending with an EOF token.

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
            tokens.append(Token(m.group() if kind == "OP" else kind, m.group(), start))
        pos = m.end()
    if pos != len(text):
        raise ExprError(f"unknown token {text[pos]!r}", pos)
    tokens.append(Token("EOF", "", pos))
    return tokens


def _int(text: str, tok: Token) -> int:
    try:
        return int(text)
    except ValueError:  # a digit run longer than Python's int-from-text limit
        raise ExprError(f"number longer than {digit_limit()} digits", tok.pos) from None


def _rational(tok: Token) -> Fraction:
    num, _, den = tok.text.partition("/")
    den = _int(den or "1", tok)
    if den == 0:
        raise ExprError("zero denominator", tok.pos)
    return Fraction(_int(num, tok), den)


class _Parser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise ExprError(f"expected text, got {type(text).__name__}", 0)
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ExprError(f"expected {kind!r}, found {found!r}", tok.pos)
        return self.advance()

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprError(f"unexpected trailing input {tok.text!r}", tok.pos)


class _ExprParser(_Parser):
    """Evaluating parser; every node is a Multivector over the metric."""

    def __init__(self, text: str, metric: Metric):
        super().__init__(text)
        self.metric = metric
        self.depth = 0

    def expr(self) -> Multivector:
        value = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            try:
                value = value + rhs if op.kind == "+" else value - rhs
            except AlgebraError as exc:
                raise ExprError(str(exc), op.pos) from None
        return value

    def term(self) -> Multivector:
        value = self.factor()
        while self.peek().kind in ("^", ".", "LINT", "RINT"):
            op = self.advance()
            rhs = self.factor()
            try:
                if op.kind == "^":
                    value = value.wedge(rhs)
                elif op.kind == ".":
                    value = self._scalar(value.dot(rhs))
                elif op.kind == "LINT":
                    value = value.left_contract(rhs)
                else:
                    value = value.right_contract(rhs)
            except AlgebraError as exc:
                raise ExprError(str(exc), op.pos) from None
        return value

    def factor(self) -> Multivector:
        tok = self.peek()
        # literals are checked here, so they are built by the trusted ``_make``
        if tok.kind == "NUMBER":
            self.advance()
            return self._scalar(_rational(tok))
        if tok.kind == "POLY":
            self.advance()
            return self._scalar(self._poly(tok))
        if tok.kind == "BLADE":
            self.advance()
            return self._blade(tok)
        if tok.kind == "NAME" and tok.text not in ("hodge", "invhodge"):
            raise ExprError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind not in ("DEXT", "DINT", "-", "(", "NAME"):
            found = tok.text or "end of input"
            raise ExprError(f"expected a value, found {found!r}", tok.pos)
        # every remaining form encloses another factor or expression
        if self.depth == MAX_NESTING:
            raise ExprError(f"expression nested deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1
        self.advance()
        if tok.kind == "DEXT":
            value = ext_deriv(self.factor())
        elif tok.kind == "DINT":
            value = int_deriv(self.factor())
        elif tok.kind == "-":
            value = -self.factor()
        elif tok.kind == "(":
            value = self.expr()
            self.expect(")")
        else:
            self.expect("(")
            value = self.expr()
            self.expect(")")
            value = value.hodge() if tok.text == "hodge" else value.inv_hodge()
        self.depth -= 1
        return value

    def _scalar(self, coeff) -> Multivector:
        """A checked coefficient as a grade-0 value."""
        terms = {}
        poly = _place(terms, 0, coeff, self.metric.dim)
        return Multivector._make(self.metric, 0, terms, poly)

    def _poly(self, tok: Token) -> PolyScalar:
        body = tok.text[1:]
        if "^" in body:
            index_text, power_text = body.split("^")
            power = _int(power_text, tok)
        else:
            index_text, power = body, 1
        index = _int(index_text, tok)
        dim = self.metric.dim
        if index >= dim:
            raise ExprError(f"coordinate x{index} out of range for dimension {dim}", tok.pos)
        try:
            mono = pack((0,) * index + (power,))
        except AlgebraError as exc:
            raise ExprError(str(exc), tok.pos) from None
        return PolyScalar._make(dim, {mono: 1})

    def _blade(self, tok: Token) -> Multivector:
        inner = tok.text[2:-1]
        try:
            if not inner.isascii():  # int() reads every Unicode digit
                raise ValueError
            inner = inner.strip()
            indices = tuple(int(part) for part in inner.split(",")) if inner else ()
        except ValueError:
            raise ExprError(f"bad blade literal {tok.text!r}", tok.pos) from None
        try:
            mask = _mask(indices, self.metric.dim)
        except AlgebraError as exc:
            raise ExprError(f"blade {exc}", tok.pos) from None
        return Multivector._make(self.metric, len(indices), {mask: 1})


def parse_expr(text: str, metric: Metric) -> Multivector:
    """Parse and evaluate an algebra expression over the metric."""
    parser = _ExprParser(text, require(metric, Metric))
    value = parser.expr()
    parser.expect_eof()
    return value


_SLOT_OPS = {"DEXT": DerivOp.EXT, "DINT": DerivOp.INT, "DTENS": DerivOp.TENSOR}


class _LagrangianParser(_Parser):
    def __init__(self, text: str, symbols: Mapping[str, FieldSymbol]):
        super().__init__(text)
        self.symbols = symbols

    def lagrangian(self) -> LagrangianDensity:
        terms = [self.lterm(self._leading_sign())]
        while self.peek().kind in ("+", "-"):
            sign = Fraction(1) if self.advance().kind == "+" else Fraction(-1)
            terms.append(self.lterm(sign))
        try:
            return LagrangianDensity(terms)
        except AlgebraError as exc:
            raise ExprError(str(exc), 0) from None

    def _leading_sign(self) -> Fraction:
        if self.peek().kind == "-":
            self.advance()
            return Fraction(-1)
        return Fraction(1)

    def lterm(self, sign: Fraction) -> tuple:
        coeff = sign
        if self.peek().kind == "NUMBER":
            coeff = sign * _rational(self.advance())
            self.expect("*")
        self.expect("(")
        left = self.slot()
        self.expect(".")
        right = self.slot()
        self.expect(")")
        return (coeff, left, right)

    def slot(self) -> tuple:
        op = DerivOp.ID
        if self.peek().kind in _SLOT_OPS:
            op = _SLOT_OPS[self.advance().kind]
        tok = self.expect("NAME")
        symbol = self.symbols.get(tok.text)
        if symbol is None:
            known = ", ".join(sorted(self.symbols)) or "none"
            raise ExprError(
                f"unknown field symbol {tok.text!r} (declared: {known})", tok.pos
            )
        return (op, symbol)


def parse_lagrangian(text: str, symbols: Mapping[str, FieldSymbol] | Sequence[FieldSymbol]) -> LagrangianDensity:
    """Parse a Lagrangian density over declared field symbols."""
    if not isinstance(symbols, Mapping):
        symbols = {require(sym, FieldSymbol).name: sym for sym in require(symbols, Iterable)}
    parser = _LagrangianParser(text, symbols)
    density = parser.lagrangian()
    parser.expect_eof()
    return density
