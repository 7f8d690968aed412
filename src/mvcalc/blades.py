"""Metric signatures, basis blades, and grade-homogeneous multivectors.

The ambient space is flat with k time-like axes (square -1, indices
0..k-1) and n space-like axes (square +1, indices k..k+n-1).  A
multivector of grade m is a finite sum of coefficients times basis
blades e_I with |I| = m; mixed grades are rejected at construction.

Product table on basis blades, with D_II the metric sign product of a
list and s(.,.) the merge signature:

    dot           e_I . e_J   = D_II            when I == J, else 0
    wedge         e_I ^ e_J   = s(I,J) e_{I+J}
    left int.     e_I _| e_J  = D_II s(J\\I, I) e_{J\\I}   when I <= J, else 0
    right int.    e_J |_ e_I  = D_II s(I, J\\I) e_{J\\I}   when I <= J, else 0
    hodge         e_I^H       = D_II s(I, Ic) e_{Ic}
    inv. hodge    e_I^(H-1)   = D_IcIc s(Ic, I) e_{Ic}

Terms are stored by blade bitmask (bit i set for each i in I).  Each
row of the table is one of the three rules (mask, mask) -> (sign, mask)
that ``mvcalc.indexes`` defines with its mask tables, with signs from
popcounts; the one sparse kernel here, ``_accumulate``, runs them over
two term dicts.  Index tuples appear only at the API; ``terms`` is a
tuple-keyed view of the masks built on each access.

When both operands of wedge, a contraction or dot have at least two
terms, all of them ints or Fractions with some denominator above 1, the
kernel runs on integers: each operand is scaled to integer numerators
over the lcm of its denominators (D_l and D_r), and each output sum
becomes one Fraction over D_l D_r.  Any other operands (a single term,
a PolyScalar coefficient, all ints) are multiplied as they are; the
Hodge duals map terms one to one and never lift.

Coefficients are exact: an integral rational is stored as an int, any
other rational as a Fraction (see ``poly.exact``), and a polynomial as a
PolyScalar in the metric's k+n coordinates (see ``poly.coefficient``).
Floats, bools and polynomials in other variables are rejected.

``Multivector`` and ``matrices.MvMatrix`` share ``_Sparse``: one copy of
immutability, copy and pickle, the same-space check, the linear structure
and equality (every zero is equal).  ``require_same_metric`` is the one
"mixed metrics" check.  Public constructors validate; results of valid
operands, and copies, go through the trusted builder ``_make``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping

from .indexes import (_BLADE, _MASK, MAX_DIM, AlgebraError, Frozen, Record, _left_rule,
                      _right_rule, _wedge_rule, as_tuple, check_canonical, integer, term_items)
from .poly import PolyScalar, _exact_terms, coefficient, monomial_text, number_text


class GradeError(AlgebraError):
    """Grades incompatible with the requested operation."""


class Metric(Record):
    """Flat metric signature with k time-like and n space-like axes."""

    k: int
    n: int

    def __post_init__(self):
        if integer(self.k, "k") < 0 or integer(self.n, "n") < 0:
            raise AlgebraError("k and n must be nonnegative")
        if not 1 <= self.k + self.n <= MAX_DIM:
            raise AlgebraError(f"dimension k+n must lie in [1, {MAX_DIM}]")

    @property
    def dim(self) -> int:
        return self.k + self.n

    def sign(self, index: int) -> int:
        """Metric sign of one axis: -1 time-like, +1 space-like."""
        if type(index) is not int:
            integer(index, "index")
        if not 0 <= index < self.dim:
            raise AlgebraError(f"index {index} out of range for dimension {self.dim}")
        return -1 if index < self.k else 1

    def sign_of(self, indices: tuple) -> int:
        """Product of axis signs over an index list (1 for the empty list)."""
        s = 1
        for i in indices:
            s *= self.sign(i)
        return s

    def blades(self, grade: int) -> Iterator[tuple]:
        """All canonical index lists of one grade, in lexicographic order."""
        if not 0 <= integer(grade, "grade") <= self.dim:
            return iter(())
        return itertools.combinations(range(self.dim), grade)


def require_same_metric(left: Metric, right: Metric) -> None:
    """AlgebraError unless two values live on the same metric (identity tested first)."""
    if left is not right and left != right:
        raise AlgebraError("mixed metrics")


class _Sparse(Frozen):
    """The value rules shared by ``Multivector`` and ``MvMatrix``.

    A value is a metric, a grade shape (``_shape()``) and ``_masks``, mask keys
    to nonzero exact coefficients; each subclass adds its constructor, its
    trusted ``_make(metric, *shape, items)`` and its products.
    """

    __slots__ = ("metric", "_masks")

    def __reduce__(self):  # copy and pickle rebuild through the trusted builder
        return self._make, (self.metric, *self._shape(), list(self._masks.items()))

    def is_zero(self) -> bool:
        return not self._masks

    def _require_same_space(self, other) -> None:
        if not isinstance(other, type(self)):
            raise AlgebraError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.metric is not self.metric:  # the common case skips a call on the hot path
            require_same_metric(self.metric, other.metric)

    def __add__(self, other):
        self._require_same_space(other)
        shape, other_shape = self._shape(), other._shape()
        if shape != other_shape and self._masks and other._masks:
            raise GradeError("cannot add grades " + " and ".join(
                ",".join(map(str, s)) for s in (shape, other_shape)))
        if other._masks and not self._masks:
            shape = other_shape
        out = dict(self._masks)
        for key, coeff in other._masks.items():
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
        return self._make(self.metric, *shape, out.items())

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._make(self.metric, *self._shape(), ((k, -c) for k, c in self._masks.items()))

    def __mul__(self, scalar):
        try:
            scalar = coefficient(scalar, self.metric.dim)
        except AlgebraError:
            if isinstance(scalar, PolyScalar):
                raise
            return NotImplemented
        return self._make(self.metric, *self._shape(),
                          ((k, scalar * c) for k, c in self._masks.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.metric is not other.metric and self.metric != other.metric:
            return False
        if not self._masks and not other._masks:
            return True
        return self._shape() == other._shape() and self._masks == other._masks

    __hash__ = None


class Multivector(_Sparse):
    """Grade-homogeneous multivector with sparse exact coefficients.

    Stored by blade mask; ``terms`` is a new dict of index lists on each
    access.  The grade annotation survives on the zero multivector, and
    only the zero multivector may carry a grade outside [0, k+n] (such
    grades arise as stated results of wedge overflow and of interior
    derivatives of grade 0).
    """

    __slots__ = ("grade",)
    # bound by name, since bench/tracing.py wraps them in this class's own __dict__
    __add__, __mul__, __rmul__ = _Sparse.__add__, _Sparse.__mul__, _Sparse.__mul__

    def __init__(self, metric: Metric, grade: int, terms: Mapping[tuple, object] | None = None):
        if type(grade) is not int:
            integer(grade, "grade")
        clean: dict[int, object] = {}
        for indices, coeff in term_items(terms):
            indices = indices if type(indices) is tuple else as_tuple(indices, "index list")
            check_canonical(indices, metric.dim)
            coeff = coefficient(coeff, metric.dim)
            if coeff:
                clean[_MASK[indices]] = coeff
        if clean:
            if not 0 <= grade <= metric.dim:
                raise GradeError(f"grade {grade} out of range for dimension {metric.dim}")
            for mask in clean:
                if mask.bit_count() != grade:
                    raise GradeError(f"index list {_BLADE[mask]!r} has grade "
                                     f"{mask.bit_count()}, expected {grade}")
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "_masks", clean)

    @classmethod
    def _make(cls, metric: Metric, grade: int, items) -> "Multivector":
        """Trusted builder from (blade mask of ``grade``, coeff) pairs built here."""
        mv = object.__new__(cls)
        object.__setattr__(mv, "metric", metric)
        object.__setattr__(mv, "grade", grade)
        object.__setattr__(mv, "_masks", _exact_terms(items))
        return mv

    def _shape(self) -> tuple:
        return (self.grade,)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, metric: Metric, grade: int) -> "Multivector":
        return cls(metric, grade)

    @classmethod
    def blade(cls, metric: Metric, indices, coeff=1) -> "Multivector":
        indices = as_tuple(indices, "index list")
        return cls(metric, len(indices), {indices: coeff})

    @classmethod
    def scalar(cls, metric: Metric, value) -> "Multivector":
        return cls(metric, 0, {(): value})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple, object]:
        """A new dict of canonical index lists to nonzero coefficients."""
        return {_BLADE[mask]: c for mask, c in self._masks.items()}

    def coefficient(self, indices):
        """Coefficient of one blade (0 when absent)."""
        indices = as_tuple(indices, "index list")
        check_canonical(indices, self.metric.dim)
        return self._masks.get(_MASK[indices], 0)

    def scalar_value(self):
        if self.grade != 0:
            raise GradeError("scalar_value needs a grade-0 multivector")
        return self._masks.get(0, 0)

    def items(self) -> list[tuple[tuple, object]]:
        """Terms sorted by index list; the iteration order for printing."""
        return sorted((_BLADE[mask], c) for mask, c in self._masks.items())

    # -- products ----------------------------------------------------------

    def dot(self, other: "Multivector"):
        """Scalar product; requires equal grades.

        Equal basis blades contract to their metric sign product, so the
        result is sum(D_II a_I b_I) over shared index lists.
        """
        self._require_same_space(other)
        if self.grade != other.grade:
            raise GradeError(f"dot needs equal grades, got {self.grade} and {other.grade}")
        return _exact_terms(self._sums(_left_rule, self._masks, other._masks)).get(0, 0)

    def _product(self, rule, left: dict, right: dict, grade, flip=0) -> "Multivector":
        return Multivector._make(self.metric, grade, self._sums(rule, left, right, flip))

    def _sums(self, rule, left: dict, right: dict, flip=0):
        """(mask, sum) pairs of the rule's products of two term dicts, zeros included.

        Operands that ``_lift`` accepts are summed on integer numerators,
        each sum becoming one Fraction over D_l D_r; all others on their
        own coefficients.
        """
        t = (1 << self.metric.k) - 1
        lifted = _lift(left, right)
        if lifted is None:
            return _accumulate({}, rule, t, left.items(), right.items(), flip).items()
        left, right, den = lifted
        return [(mask, Fraction(acc, den))
                for mask, acc in _accumulate({}, rule, t, left, right, flip).items()]

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product; grade adds (zero past the top grade)."""
        self._require_same_space(other)
        return self._product(_wedge_rule, self._masks, other._masks, self.grade + other.grade)

    def left_contract(self, other: "Multivector") -> "Multivector":
        """Left interior product self _| other; lowers other's grade by self's."""
        self._require_same_space(other)
        return self._product(_left_rule, self._masks, other._masks, other.grade - self.grade)

    def right_contract(self, other: "Multivector") -> "Multivector":
        """Right interior product self |_ other; lowers self's grade by other's."""
        self._require_same_space(other)
        return self._product(_right_rule, self._masks, other._masks, self.grade - other.grade)

    def hodge(self) -> "Multivector":
        """Hodge complement, blade by blade: the pseudoscalar |_ self."""
        dim = self.metric.dim
        return self._product(_right_rule, {(1 << dim) - 1: None}, self._masks,
                             dim - self.grade)

    def inv_hodge(self) -> "Multivector":
        """Inverse Hodge complement: inv_hodge(hodge(a)) == a."""
        # self _| pseudoscalar, flipped by D of the pseudoscalar: D_II -> D_IcIc
        dim = self.metric.dim
        return self._product(_left_rule, self._masks, {(1 << dim) - 1: None},
                             dim - self.grade, flip=self.metric.k & 1)

    # -- canonical text -----------------------------------------------------

    def __str__(self) -> str:
        if not self._masks:
            return "0"
        if self.grade == 0:
            return number_text(self._masks[0])
        pieces = []
        for pos, (indices, coeff) in enumerate(self.items()):
            sign, body = _blade_term_text(indices, coeff)
            if pos == 0:
                pieces.append(body if sign >= 0 else "-" + body)
            else:
                pieces.append(f" {'+' if sign >= 0 else '-'} {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"<Multivector ({self.metric.k},{self.metric.n}) grade {self.grade}: {self}>"


def _split_sign(coeff):
    """(sign, magnitude-pieces) of a coefficient for blade-term printing.

    Multi-term polynomials keep their internal signs and get parentheses;
    a single monomial or plain rational folds its sign into the term join.
    """
    if isinstance(coeff, PolyScalar):
        terms = coeff.sorted_terms()
        if len(terms) > 1:
            return 1, [f"({coeff})"]
        exps, value = terms[0]
        text = monomial_text(exps, abs(value))
        return (1 if value > 0 else -1), ([] if text == "1" else text.split(" ^ "))
    value = coeff
    return (1 if value > 0 else -1), ([] if abs(value) == 1 else [number_text(abs(value))])


def _blade_term_text(indices: tuple, coeff) -> tuple[int, str]:
    blade = "e[" + ",".join(str(i) for i in indices) + "]"
    sign, pieces = _split_sign(coeff)
    return sign, " ^ ".join(pieces + [blade])


# -- bitmask kernel -------------------------------------------------------------


def _accumulate(out: dict, rule, t: int, left, right, flip: int = 0) -> dict:
    """Add the rule's product of every (left, right) pair of (mask, coeff) into out.

    A coeff of None is the unit and is not multiplied; ``flip=1`` negates
    every product.  A negative product is subtracted, not multiplied by -1.
    Cancelled sums stay as zeros for ``Multivector._make`` to drop.
    """
    for a, ca in left:
        for b, cb in right:
            hit = rule(a, b, t)
            if hit is None:
                continue
            odd, mask = hit
            term = cb if ca is None else ca if cb is None else ca * cb
            acc = out.get(mask)
            if acc is None:
                out[mask] = -term if odd ^ flip else term
            elif odd ^ flip:
                out[mask] = acc - term
            else:
                out[mask] = acc + term
    return out


_RATIONAL = frozenset((int, Fraction))


def _lift(left: dict, right: dict):
    """(left, right, D_l D_r) as integer (mask, numerator) pairs, or None to stay as given.

    Taken when both operands have at least two terms, every coefficient
    is an int or a Fraction and some denominator exceeds 1; each operand
    is scaled by the lcm of its own denominators.
    """
    if len(left) < 2 or len(right) < 2:
        return None
    if not (_RATIONAL.issuperset(map(type, left.values()))
            and _RATIONAL.issuperset(map(type, right.values()))):
        return None
    den_l = lcm(*{c.denominator for c in left.values()})
    den_r = lcm(*{c.denominator for c in right.values()})
    if den_l == den_r == 1:
        return None
    return ([(m, c.numerator * (den_l // c.denominator)) for m, c in left.items()],
            [(m, c.numerator * (den_r // c.denominator)) for m, c in right.items()],
            den_l * den_r)
