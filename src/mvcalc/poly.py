"""Sparse multivariate polynomials over exact rationals, and the one flat term layout.

Coefficient ring for multivector fields: polynomials in the coordinates
x0..x(d-1).  No floats anywhere; arithmetic is exact.  Every rational
coefficient passes ``exact``, which stores an integral value as an ``int``
and only a non-integral one as a ``Fraction``, so small integers never pay
for Fraction arithmetic.

This module alone defines the stored term layout.  A monomial is one int,
``mono``, with a WIDTH-bit field per coordinate (``pack``, ``unpack``,
``_AXES``) whose top bit is a guard bit: exponents run to MAX_EXPONENT,
two of them add with no carry, and a sum that sets a guard bit
(``_GUARD``) raises AlgebraError (``_guarded``).  ``PolyScalar`` keys its
terms by mono; a multivector or matrix keys each rational by its blade
part (a mask, or ``rows | cols << dim``) plus ``mono << shift``, shift
dim or 2*dim (packed monomials: S. C. Johnson, SIGSAM Bull. 1974; Monagan
& Pearce, CASC 2007).  ``_place``, ``_times`` and ``_split`` store,
multiply and group back such flat terms.

``_Linear``, defined here, is the one base of every value (polynomials,
multivectors, matrices, formal expressions and densities): it holds
their linear rules once, and each class differs only through its hooks.
Public constructors validate; results of valid operands go through the
trusted builder ``_make``, which adopts the dict its caller has just built:
its ``_exact_terms`` keeps that dict when it is canonical and builds a
cleaned copy only otherwise.  ``terms`` is a view: a new copy on each access.
A ``PolyScalar`` is immutable, so it is safe as a dict key and as a
shared coefficient.

Canonical text form (used by the CLI and the parser round-trip) orders
monomials by graded lexicographic order, highest first, and spells
products with the wedge token, e.g. ``3/2 ^ x0^2 ^ x1 + x2``.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Mapping, Sequence
from fractions import Fraction
from numbers import Rational

from .indexes import MAX_DIM, AlgebraError, _Memo, _shown, as_tuple, integer, term_items

WIDTH = 16  # bits per exponent field, its guard bit included: a little-endian "H"
MAX_EXPONENT = (1 << WIDTH - 1) - 1
_FIELD = (1 << WIDTH) - 1
# nvars -> the guard bits of that many fields, and the struct of their bytes;
# (shift, nvars) -> each field's bit offset
_GUARD = _Memo(lambda nvars: sum(1 << WIDTH * i + WIDTH - 1 for i in range(nvars)))
_FIELDS = _Memo(lambda nvars: struct.Struct(f"<{nvars}H"))
_AXES = _Memo(lambda key: tuple(key[0] + WIDTH * i for i in range(key[1])))


def _too_high():
    raise AlgebraError(f"exponent above {MAX_EXPONENT}, the largest a term can hold")


def _guarded(terms: dict, guard: int) -> dict:
    """``terms``, unless a key sets a ``guard`` bit: then AlgebraError, never a carry."""
    if any(key & guard for key in terms):
        _too_high()
    return terms


def pack(exps: tuple) -> int:
    """The mono of a tuple of nonnegative exponents; AlgebraError past MAX_EXPONENT."""
    if max(exps, default=0) > MAX_EXPONENT:
        _too_high()
    return int.from_bytes(_FIELDS[len(exps)].pack(*exps), "little")


def unpack(mono: int, nvars: int) -> tuple:
    """The exponent tuple of a mono in ``nvars`` variables."""
    fields = _FIELDS[nvars]
    return fields.unpack(mono.to_bytes(fields.size, "little"))


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
            raise AlgebraError(f"exact rational coefficient required, got {_shown(value)}")
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


def _factor(value, nvars: int | None = None):
    """``value`` as a factor: a rational, or given ``nvars`` a PolyScalar; else NotImplemented."""
    if nvars is not None and isinstance(value, PolyScalar):
        return coefficient(value, nvars)
    try:
        return exact(value)
    except AlgebraError:
        return NotImplemented


def _exact_terms(terms: dict) -> dict:
    """The caller's new dict itself when canonical (nonzero ints, Fractions with a
    denominator above 1), else a copy with zeros dropped and integral Fractions made ints."""
    for c in terms.values():
        if not (c if type(c) is int else c.denominator != 1):
            return {key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                    for key, c in terms.items() if c}
    return terms


def _place(out: dict, base: int, coeff, shift: int) -> bool:
    """Store ``coeff`` at blade part ``base``, monomials above ``shift``; True for a PolyScalar."""
    if type(coeff) is PolyScalar:
        for mono, c in coeff._terms.items():
            out[base | mono << shift] = c
        return True
    if coeff:
        out[base] = coeff
    return False


def _times(left: dict, right: dict, guard: int) -> dict:
    """The sums of ca cb at ka + kb over all pairs of flat terms, under ``_guarded``."""
    out = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            term, acc = ca * cb, out.get(key := ka + kb)
            out[key] = term if acc is None else acc + term
    return _guarded(out, guard)


def _split(terms: dict, shift: int) -> dict:
    """Flat terms grouped by blade part: {base: {mono: coeff}}."""
    full, out = (1 << shift) - 1, {}
    for key, c in terms.items():
        out.setdefault(key & full, {})[key >> shift] = c
    return out


class _Linear:
    """The linear rules of every value: an exact combination of keys, shared once.

    ``_terms`` maps each key to a nonzero exact rational.  The base owns
    immutability, copy and pickle, the ``terms`` copy, ``is_zero``, ``+`` and ``-``
    (one merge loop), negation, scaling and ``==``, as SymPy's ``PolyElement``
    (``sympy/polys/rings.py``) shares its ring operations over one dict.
    Each class says how it differs through hooks:

    * ``_make(*shape, terms, poly)``, the trusted builder, which adopts the new
      ``terms`` dict; ``_shape()``, the arguments it takes before the terms,
      the space (a metric or a variable count) first; ``_like(terms, other)``,
      ``_make`` of this shape, polynomial (``_poly``, outside ``_shape()`` and ``==``)
      if this value or the operand ``other`` is (``PolyScalar`` alone overrides
      it, as its operand may be a bare rational);
    * ``_operand(other)``, the term dict ``+`` merges, or NotImplemented;
    * ``_scalar(value)``, the coefficient protocol: ``value`` as a
      coefficient, or NotImplemented (AlgebraError for a polynomial in
      other variables); a sparse value's PolyScalar factor multiplies each
      term by each monomial above its ``_shift()``.

    The defaults serve the formal values, which have no shape.  ``==`` reads
    ``metric`` (identity first, no call; ``_Sparse``'s slot shadows this None),
    and keys fix the rest of the shape.  Assignment and deletion raise.
    """

    __slots__ = ("_terms",)
    metric = None
    _poly = False

    def __setattr__(self, name, value=None):  # value defaults, so it serves as __delattr__
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
    __hash__ = None

    @classmethod
    def _make(cls, terms: dict, poly: bool = False):
        """Trusted builder adopting a new key -> coeff dict built from valid operands."""
        value = object.__new__(cls)
        _put_terms(value, _exact_terms(terms))
        return value

    def _shape(self) -> tuple:
        return ()

    def _like(self, terms: dict, other):
        return self._make(*self._shape(), terms, self._poly or other._poly)

    def __reduce__(self):  # copy and pickle rebuild through the trusted builder
        return self._make, (*self._shape(), dict(self._terms), self._poly)

    def _operand(self, other):
        return other._terms if isinstance(other, type(self)) else NotImplemented

    def _scalar(self, value):
        return _factor(value)

    @property
    def terms(self) -> dict:
        """A new dict of keys to nonzero coefficients."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other, negate=False):  # self - other with negate, in the same one pass
        terms = self._operand(other)
        if terms is NotImplemented:
            return NotImplemented
        if terms and not self._terms and type(other) is type(self):  # a zero takes other's shape
            return other._like({key: -c for key, c in terms.items()} if negate else dict(terms),
                               self)
        out = dict(self._terms)
        for key, coeff in terms.items():
            acc = out.get(key)
            if negate:
                out[key] = -coeff if acc is None else acc - coeff
            else:
                out[key] = coeff if acc is None else acc + coeff
        return self._like(out, other)

    def __sub__(self, other):  # through __add__, so an override of it sees a difference too
        return self.__add__(other, True)

    def __neg__(self):
        return self._like({key: -c for key, c in self._terms.items()}, self)

    def __mul__(self, scalar):
        scalar = self._scalar(scalar)
        if scalar is NotImplemented:
            return NotImplemented
        if type(scalar) is PolyScalar:
            shift = self._shift()
            monos = {mono << shift: c for mono, c in scalar._terms.items()}
            return self._like(_times(self._terms, monos, _GUARD[scalar.nvars] << shift), scalar)
        return self._like({key: scalar * c for key, c in self._terms.items()}, self)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return ((self.metric is other.metric or self.metric == other.metric)
                and self._terms == other._terms)


_put_terms = _Linear._terms.__set__


class PolyScalar(_Linear):
    """A polynomial in x0..x(nvars-1) with exact rational coefficients, keyed by mono;
    ``terms``, a view, by exponent tuple."""

    __slots__ = ("nvars",)
    _poly = True

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | None = None):
        if type(nvars) is not int or not 0 <= nvars <= MAX_DIM:
            integer(nvars, "nvars", 0, MAX_DIM)
        clean: dict[int, int | Fraction] = {}
        for exps, coeff in term_items(terms):
            exps = exps if type(exps) is tuple else as_tuple(exps, "exponent vector")
            # exponents are plain nonnegative ints: no bool, no float
            if len(exps) != nvars or not all(type(e) is int and e >= 0 for e in exps):
                raise AlgebraError(f"bad exponent vector {_shown(exps)} for {_shown(nvars)} "
                                   "variables")
            c = exact(coeff)
            if c:
                clean[pack(exps)] = c
        _put_nvars(self, nvars)
        _put_terms(self, clean)

    @classmethod
    def _make(cls, nvars: int, terms: dict, poly: bool = True) -> "PolyScalar":
        """Trusted builder adopting a new mono -> coeff dict computed from valid operands."""
        value = object.__new__(cls)
        _put_nvars(value, nvars)
        _put_terms(value, _exact_terms(terms))
        return value

    def _shape(self) -> tuple:
        return (self.nvars,)

    def _like(self, terms: dict, other) -> "PolyScalar":
        return PolyScalar._make(self.nvars, terms)

    @property
    def terms(self) -> dict:
        """A new dict of exponent tuples to nonzero coefficients."""
        return {unpack(mono, self.nvars): c for mono, c in self._terms.items()}

    @classmethod
    def constant(cls, nvars: int, value) -> "PolyScalar":
        return cls(nvars, {(0,) * integer(nvars, "nvars", 0, MAX_DIM): value})

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> "PolyScalar":
        integer(nvars, "nvars", 0, MAX_DIM)
        integer(index, "variable index", 0, nvars - 1)
        integer(power, "power", 0)
        exps = tuple(power if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff) -> "PolyScalar":
        return cls(nvars, {as_tuple(exps, "exponent vector"): coeff})

    # -- ring structure -------------------------------------------------

    def _operand(self, other):
        """The terms of a PolyScalar in the same variables; a rational is the constant term."""
        if isinstance(other, PolyScalar):
            if other.nvars != self.nvars:
                raise AlgebraError("mixed variable counts")
            return other._terms
        value = self._scalar(other)  # no constant polynomial is built
        return value if value is NotImplemented else {0: value}

    # bound by name, since bench/tracing.py wraps them in this class's own __dict__
    __add__ = __radd__ = _Linear.__add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, PolyScalar):
            return _Linear.__mul__(self, other)  # scaling by a rational, or NotImplemented
        if other.nvars != self.nvars:
            raise AlgebraError("mixed variable counts")
        return PolyScalar._make(self.nvars, _times(self._terms, other._terms, _GUARD[self.nvars]))

    __rmul__ = __mul__

    def __truediv__(self, other):  # by a nonzero rational only: no polynomial division
        other = self._scalar(other)
        if other is NotImplemented:
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
        return self._terms == ({0: value} if value else {})

    def __hash__(self):
        # a constant compares equal to its rational value, so it must hash
        # like that value too
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- calculus and queries -------------------------------------------

    def partial(self, index: int) -> "PolyScalar":
        """Exact partial derivative with respect to x(index)."""
        if type(index) is not int or not 0 <= index < self.nvars:
            integer(index, "variable index", 0, self.nvars - 1)
        off = WIDTH * index
        return PolyScalar._make(self.nvars, {mono - (1 << off): c * e for mono, c
                                             in self._terms.items() if (e := mono >> off & _FIELD)})

    def evaluate(self, point: Sequence) -> int | Fraction:
        if len(point) != self.nvars:
            raise AlgebraError("point has wrong length")
        values = [exact(v) for v in point]
        total = 0
        for mono, c in self._terms.items():
            term = c
            for v, e in zip(values, unpack(mono, self.nvars)):
                term *= v ** e
            total += term
        return exact(total)

    def is_constant(self) -> bool:
        return not any(self._terms)  # the constant term's mono is 0

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise AlgebraError("polynomial is not constant")
        return self._terms.get(0, 0)

    # -- canonical text --------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, int | Fraction]]:
        return _graded(self._terms, self.nvars)

    def __str__(self) -> str:
        return poly_text(self._terms, self.nvars)

    def __repr__(self) -> str:
        return f"PolyScalar({self.nvars}, {self})"


_put_nvars = PolyScalar.nvars.__set__


def signed_sum(pairs) -> str:
    """Canonical text of a sum of (negative, magnitude text) pairs: ``-a + b - c``; "0" for none."""
    pieces = []
    for negative, text in pairs:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(text)
    return "".join(pieces) or "0"


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


def _graded(terms: dict, nvars: int) -> list[tuple[tuple, int | Fraction]]:
    """The (exponents, coeff) pairs of {mono: coeff}, graded lex, leading (highest) first."""
    pairs = [(unpack(mono, nvars), c) for mono, c in terms.items()]
    return sorted(pairs, key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def poly_text(terms: dict, nvars: int) -> str:
    """Canonical text of the polynomial {mono: coeff}; a constant's is its rational's."""
    if not any(terms):  # the constant term's mono is 0
        return number_text(terms.get(0, 0))
    return signed_sum((c < 0, monomial_text(e, abs(c))) for e, c in _graded(terms, nvars))


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
