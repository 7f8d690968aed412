"""Sparse multivariate polynomials over exact rationals.

Coefficient ring for multivector fields: polynomials in the coordinates
x0..x(d-1), stored as a map from exponent tuples to coefficients.  No
floats anywhere; arithmetic is exact.  Every rational coefficient passes
``exact``, which stores an integral value as an ``int`` and only a
non-integral one as a ``Fraction``, so small integers never pay for
Fraction arithmetic.

Public constructors validate; results of valid operands go through the
trusted builder ``PolyScalar._make``, with the same canonical form.
``terms`` is a view: a new copy of the private dict on each access.

Canonical text form (used by the CLI and the parser round-trip) orders
monomials by graded lexicographic order, highest first, and spells
products with the wedge token, e.g. ``3/2 ^ x0^2 ^ x1 + x2``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .indexes import AlgebraError, as_tuple, integer, term_items


def exact(value) -> int | Fraction:
    """The canonical exact form of a rational: an int when integral, else a Fraction.

    Rejects bool (which registers as Rational), float, Decimal and every
    other non-rational with AlgebraError.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        # bool subclasses int and therefore registers as Rational; reject it
        # before the Rational branch can quietly coerce True to 1
        if kind is bool or not isinstance(value, Rational):
            raise AlgebraError(f"exact rational coefficient required, got {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def coefficient(value, nvars: int):
    """``value`` as a coefficient of fields in ``nvars`` coordinates.

    A PolyScalar must have exactly ``nvars`` variables; a rational goes
    through ``exact``; anything else raises AlgebraError.
    """
    if isinstance(value, PolyScalar):
        if value.nvars != nvars:
            raise AlgebraError(f"polynomial in {value.nvars} variables, expected {nvars}")
        return value
    return exact(value)


def _exact_terms(items) -> dict:
    """Trusted (key, coeff) pairs as terms: zeros dropped, integral Fractions made ints."""
    return {key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for key, c in items if c}


def _lower_into(out: dict, terms: dict, index: int, negate: bool = False) -> dict:
    """Add (or with ``negate`` subtract) d/dx(index) of ``terms`` into the exponent dict ``out``."""
    for exps, c in terms.items():
        if e := exps[index]:
            lowered, d = exps[:index] + (e - 1,) + exps[index + 1:], c * (-e if negate else e)
            acc = out.get(lowered)
            out[lowered] = d if acc is None else acc + d
    return out


class PolyScalar:
    """A polynomial in x0..x(nvars-1) with exact rational coefficients; ``terms`` is a view."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        if type(nvars) is not int:
            integer(nvars, "nvars")
        if nvars < 0:
            raise AlgebraError("nvars must be nonnegative")
        clean: dict[tuple, int | Fraction] = {}
        for exps, coeff in term_items(terms):
            exps = exps if type(exps) is tuple else as_tuple(exps, "exponent vector")
            # exponents are plain nonnegative ints: no bool, no float
            if len(exps) != nvars or not all(type(e) is int and e >= 0 for e in exps):
                raise AlgebraError(f"bad exponent vector {exps!r} for {nvars} variables")
            c = exact(coeff)
            if c:
                clean[exps] = c
        self.nvars = nvars
        self._terms = clean

    @classmethod
    def _make(cls, nvars: int, items) -> "PolyScalar":
        """Trusted builder from (exponents, coeff) pairs computed from valid operands."""
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly._terms = _exact_terms(items)
        return poly

    @classmethod
    def constant(cls, nvars: int, value) -> "PolyScalar":
        return cls(nvars, {(0,) * integer(nvars, "nvars"): value})

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> "PolyScalar":
        integer(nvars, "nvars")
        if not 0 <= integer(index, "variable index") < nvars:
            raise AlgebraError(f"variable index {index} out of range for {nvars} variables")
        if integer(power, "power") < 0:
            raise AlgebraError("negative powers are not polynomials")
        exps = tuple(power if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff) -> "PolyScalar":
        return cls(nvars, {as_tuple(exps, "exponent vector"): coeff})

    @property
    def terms(self) -> dict[tuple, int | Fraction]:
        """A new dict of exponent tuples to nonzero coefficients."""
        return dict(self._terms)

    # -- ring structure -------------------------------------------------

    def _operand(self, other):
        """A PolyScalar of the same variables or an exact rational; None otherwise."""
        if isinstance(other, PolyScalar):
            if other.nvars != self.nvars:
                raise AlgebraError("mixed variable counts")
            return other
        try:
            return exact(other)
        except AlgebraError:
            return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        # a rational adds into the constant term; no constant polynomial is built
        terms = other._terms if isinstance(other, PolyScalar) else {(0,) * self.nvars: other}
        out = dict(self._terms)
        for exps, c in terms.items():
            out[exps] = out.get(exps, 0) + c
        return PolyScalar._make(self.nvars, out.items())

    __radd__ = __add__

    def __neg__(self):
        return PolyScalar._make(self.nvars, ((e, -c) for e, c in self._terms.items()))

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not isinstance(other, PolyScalar):
            # scaling by a rational needs no constant polynomial
            return PolyScalar._make(self.nvars, ((e, c * other) for e, c in self._terms.items()))
        out: dict[tuple, int | Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                out[exps] = out.get(exps, 0) + ca * cb
        return PolyScalar._make(self.nvars, out.items())

    __rmul__ = __mul__

    def __truediv__(self, other):
        # exact division by a nonzero rational only; polynomial division
        # is out of scope
        try:
            other = exact(other)
        except AlgebraError:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        return self * Fraction(1, other)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyScalar):
            return self.nvars == other.nvars and self._terms == other._terms
        try:
            value = exact(other)
        except AlgebraError:
            return NotImplemented
        return self._terms == ({(0,) * self.nvars: value} if value else {})

    def __hash__(self):
        # a constant compares equal to its rational value, so it must hash
        # like that value too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus and queries -------------------------------------------

    def partial(self, index: int) -> "PolyScalar":
        """Exact partial derivative with respect to x(index)."""
        if type(index) is not int:
            integer(index, "variable index")
        if not 0 <= index < self.nvars:
            raise AlgebraError(f"variable index {index} out of range")
        return PolyScalar._make(self.nvars, _lower_into({}, self._terms, index).items())

    def evaluate(self, point: Sequence) -> int | Fraction:
        if len(point) != self.nvars:
            raise AlgebraError("point has wrong length")
        values = [exact(v) for v in point]
        total = 0
        for exps, c in self._terms.items():
            term = c
            for v, e in zip(values, exps):
                term *= v ** e
            total += term
        return exact(total)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return self._terms.get((0,) * self.nvars, 0)

    # -- canonical text --------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int | Fraction]]:
        # graded lex, leading (highest) monomial first
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for pos, (exps, coeff) in enumerate(self.sorted_terms()):
            sign = "-" if coeff < 0 else "+"
            body = monomial_text(exps, abs(coeff))
            if pos == 0:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append(f" {sign} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"PolyScalar({self.nvars}, {self})"


def digit_limit() -> int:
    """Python's int/text digit limit, or its default 4,300 where it is off.

    ``sys.get_int_max_str_digits`` exists from Python 3.10.7 on; before
    that, and when the limit is set to 0, there is none, but the CLI
    still bounds its inputs by the default.
    """
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def number_text(value) -> str:
    """``str`` of an exact value, with AlgebraError past Python's int-to-text limit.

    Exact arithmetic can outgrow that limit from small inputs (``--m
    1e3000`` squares to 6,001 digits), and ``str`` then raises a plain
    ValueError.
    """
    try:
        return str(value)
    except ValueError:
        raise AlgebraError(f"exact value too long to print (over {digit_limit()} digits)") from None


def partial(coeff, index: int):
    """Partial derivative of any coefficient; a rational constant gives 0."""
    if isinstance(coeff, PolyScalar):
        return coeff.partial(index)
    if type(index) is not int:
        integer(index, "variable index")
    return 0


def monomial_text(exps: tuple, coeff: int | Fraction) -> str:
    """Grammar-compatible text of one monomial with nonnegative coefficient."""
    factors = []
    if coeff != 1 or not any(exps):
        factors.append(number_text(coeff))
    for i, e in enumerate(exps):
        if e == 1:
            factors.append(f"x{i}")
        elif e > 1:
            factors.append(f"x{i}^{number_text(e)}")
    return " ^ ".join(factors)
