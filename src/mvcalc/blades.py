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

Terms are stored by blade bitmask (bit i set for each i in I).  The
wedge and the left contraction are the two rules (mask, mask) -> (sign,
mask) of ``mvcalc.indexes``, with signs from popcounts.  The other rows
follow from the left rule by a grade sign: e_J |_ e_I is e_I _| e_J,
negated when |I| |J\\I| is odd, and a Hodge dual relabels e_I as e_Ic with
the sign of e_I _| e_full, D_II s(Ic, I), negated when g (dim - g) is odd
for hodge at grade g, or when k is odd for its inverse (D_II D_IcIc =
(-1)^k).  Index tuples appear only at the API; ``terms`` is a tuple-keyed
view of the masks.

``Multivector._product`` runs every binary product on one of two loops.
An empty operand gives the zero of the stated grade at once.  A
single-term operand (most products of a verify run) runs
``_accumulate``, one rule call per pair: there the pairs are few, and
preparing each term first cost more than the calls it saved.  Two
multi-term operands run ``_accumulate_forms`` on the rule's per-mask form
(``indexes._FORMS``): each term is looked up once, and each pair costs
inline integer operations and no call.  When all their coefficients are
ints or Fractions with some denominator above 1, that loop runs on
integers: each operand is scaled to integer numerators over the lcm of
its denominators (D_l and D_r), and each output sum becomes one Fraction
over D_l D_r.  PolyScalar and all-int operands are multiplied as they are.

Coefficients are exact: an integral rational is stored as an int, any
other rational as a Fraction (see ``poly.exact``), and a polynomial as a
PolyScalar in the metric's k+n coordinates (see ``poly.coefficient``).
Floats, bools and polynomials in other variables are rejected.

``Multivector`` and ``matrices.MvMatrix`` take their linear rules, copy,
pickle and equality (every zero of a metric is equal) from ``poly._Linear``,
and the same-space check and the coefficient rule from ``_Sparse``.
``require_same_metric`` is the one "mixed metrics" check.  Public
constructors validate; results of valid operands, and copies, go through
the trusted builder ``_make``, which fills the slots through their
descriptors' ``__set__`` (``_put_*``, bound once).  A product runs one
chain: the method, ``_product`` with the kernel, ``_make``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping

from .indexes import (_BLADE, _FORMS, _MASK, MAX_DIM, AlgebraError, Record, _left_rule, _mask,
                      _wedge_rule, as_tuple, check_canonical, integer, term_items)
from .poly import (PolyScalar, _exact_terms, _Linear, _put_terms, coefficient, number_text,
                   signed_sum)


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
        dim = self.dim
        if not 0 <= integer(grade, "grade") <= dim:
            return iter(())
        return itertools.combinations(range(dim), grade)


def require_same_metric(left: Metric, right: Metric) -> None:
    """AlgebraError unless two values live on the same metric (identity tested first)."""
    if left is not right and left != right:
        raise AlgebraError("mixed metrics")


class _Sparse(_Linear):
    """The operand and coefficient rules shared by ``Multivector`` and ``MvMatrix``.

    A value is a metric, grades and ``_terms``, mask keys to nonzero exact
    coefficients; ``_shape()`` is (metric, *grades).  ``+`` refuses a value of
    another class, metric or (both nonzero) shape with AlgebraError/GradeError,
    and a coefficient may be a PolyScalar in the metric's coordinates.  Each
    subclass adds its constructor, ``_make``, ``_like`` and its products.
    """

    __slots__ = ("metric",)

    def _require_same_space(self, other) -> None:
        if not isinstance(other, type(self)):
            raise AlgebraError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.metric is not self.metric:  # the common case skips a call on the hot path
            require_same_metric(self.metric, other.metric)

    def _operand(self, other):
        self._require_same_space(other)
        if other._terms and self._terms and self._shape() != other._shape():
            raise GradeError("cannot add grades " + " and ".join(
                ",".join(map(str, s._shape()[1:])) for s in (self, other)))
        return other._terms

    def _scalar(self, value):
        if isinstance(value, PolyScalar):
            return coefficient(value, self.metric.dim)  # AlgebraError in other variables
        return _Linear._scalar(self, value)


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
    __add__, __mul__, __rmul__ = _Linear.__add__, _Linear.__mul__, _Linear.__mul__

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
        _put_metric(self, metric)
        _put_grade(self, grade)
        _put_terms(self, clean)

    @classmethod
    def _make(cls, metric: Metric, grade: int, terms: dict) -> "Multivector":
        """Trusted builder adopting a new dict of blade masks of ``grade`` built here."""
        mv = object.__new__(cls)
        _put_metric(mv, metric)
        _put_grade(mv, grade)
        _put_terms(mv, _exact_terms(terms))
        return mv

    def _like(self, terms: dict) -> "Multivector":
        return Multivector._make(self.metric, self.grade, terms)

    def _shape(self) -> tuple:
        return (self.metric, self.grade)

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
        return {_BLADE[mask]: c for mask, c in self._terms.items()}

    def coefficient(self, indices):
        """Coefficient of one blade (0 when absent)."""
        return self._terms.get(_mask(indices, self.metric.dim), 0)

    def scalar_value(self):
        if self.grade != 0:
            raise GradeError("scalar_value needs a grade-0 multivector")
        return self._terms.get(0, 0)

    def items(self) -> list[tuple[tuple, object]]:
        """Terms sorted by index list; the iteration order for printing."""
        return sorted((_BLADE[mask], c) for mask, c in self._terms.items())

    # -- products ----------------------------------------------------------

    def dot(self, other: "Multivector"):
        """Scalar product; requires equal grades.

        Equal basis blades contract to their metric sign product, so the
        result is sum(D_II a_I b_I) over shared index lists.
        """
        self._require_same_space(other)
        if self.grade != other.grade:
            raise GradeError(f"dot needs equal grades, got {self.grade} and {other.grade}")
        return self._product(_left_rule, self._terms, other._terms, 0)._terms.get(0, 0)

    def _product(self, rule, left: dict, right: dict, grade, flip=0) -> "Multivector":
        """The rule's products of two term dicts, summed into a Multivector of ``grade``.

        The route each operand pair takes is set out in the module docstring.
        """
        if not left or not right:
            return Multivector._make(self.metric, grade, {})
        t = (1 << self.metric.k) - 1
        if len(left) == 1 or len(right) == 1:
            sums = _accumulate({}, rule, t, left.items(), right.items(), flip)
        elif (lifted := _lift(left, right)) is None:
            sums = _accumulate_forms({}, _FORMS[rule], t, left.items(), right.items(), flip)
        else:
            left, right, den = lifted
            sums = {mask: Fraction(acc, den) for mask, acc
                    in _accumulate_forms({}, _FORMS[rule], t, left, right, flip).items()}
        return Multivector._make(self.metric, grade, sums)

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product; grade adds (zero past the top grade)."""
        self._require_same_space(other)
        return self._product(_wedge_rule, self._terms, other._terms, self.grade + other.grade)

    def left_contract(self, other: "Multivector") -> "Multivector":
        """Left interior product self _| other; lowers other's grade by self's."""
        self._require_same_space(other)
        return self._product(_left_rule, self._terms, other._terms, other.grade - self.grade)

    def right_contract(self, other: "Multivector") -> "Multivector":
        """Right interior product self |_ other; lowers self's grade by other's."""
        self._require_same_space(other)
        grade = self.grade - other.grade
        return self._product(_left_rule, other._terms, self._terms, grade,
                             other.grade * grade & 1)

    def hodge(self) -> "Multivector":
        """Hodge complement, blade by blade: e_I -> D_II s(I, Ic) e_Ic."""
        grade = self.grade
        return self._dual(grade * (self.metric.dim - grade) & 1)

    def inv_hodge(self) -> "Multivector":
        """Inverse Hodge complement: inv_hodge(hodge(a)) == a."""
        return self._dual(self.metric.k & 1)

    def _dual(self, flip: int) -> "Multivector":
        """Each term e_I moved to its complement with the sign of e_I _| e_full, flipped."""
        metric = self.metric
        full, t = (1 << metric.dim) - 1, (1 << metric.k) - 1
        out = {}
        for mask, c in self._terms.items():
            odd, rest = _left_rule(mask, full, t)
            out[rest] = -c if odd ^ flip else c
        return Multivector._make(metric, metric.dim - self.grade, out)

    # -- canonical text -----------------------------------------------------

    def __str__(self) -> str:
        if self.grade == 0 and self._terms:
            return number_text(self._terms[0])
        return signed_sum(_blade_term_text(indices, coeff) for indices, coeff in self.items())

    def __repr__(self) -> str:
        return f"<Multivector ({self.metric.k},{self.metric.n}) grade {self.grade}: {self}>"


_put_metric, _put_grade = _Sparse.metric.__set__, Multivector.grade.__set__


def _blade_term_text(indices: tuple, coeff) -> tuple[bool, str]:
    """(negative, magnitude text) of one blade term for ``signed_sum``.

    A polynomial of several terms keeps its own signs inside parentheses;
    a single monomial or a rational gives its sign to the term join.
    """
    blade = "e[" + ",".join(str(i) for i in indices) + "]"
    if isinstance(coeff, PolyScalar) and len(coeff._terms) > 1:
        return False, f"({coeff}) ^ {blade}"
    text = number_text(coeff)  # a single term's canonical text: "-" first when negative
    magnitude = text.removeprefix("-")
    return magnitude != text, blade if magnitude == "1" else f"{magnitude} ^ {blade}"


# -- bitmask kernel -------------------------------------------------------------


def _accumulate(out: dict, rule, t: int, left, right, flip: int = 0) -> dict:
    """Add the rule's product of every (left, right) pair of (mask, coeff) into out.

    ``flip=1`` negates every product; a negative product is subtracted, not
    multiplied by -1.  Cancelled sums stay as zeros for ``_make`` to drop.
    """
    for a, ca in left:
        for b, cb in right:
            hit = rule(a, b, t)
            if hit is None:
                continue
            odd, mask = hit
            term = ca * cb
            acc = out.get(mask)
            if acc is None:
                out[mask] = -term if odd ^ flip else term
            elif odd ^ flip:
                out[mask] = acc - term
            else:
                out[mask] = acc + term
    return out


def _accumulate_forms(out: dict, form, t: int, left, right, flip: int = 0) -> dict:
    """``_accumulate`` on a rule's per-mask form (``indexes._FORMS``), with no call per pair.

    Each left term is looked up once, its time-like parity (and ``flip``) added
    to eA; then a pair (A, B) gives a term iff A & hB == 0, with mask A ^ B and
    parity popcount(pA & B) + eA.
    """
    part, x, time = form
    t &= time
    lhs = []
    for a, ca in left:
        pa, ea = part[a]
        lhs.append((a, pa, ea + (a & t).bit_count() + flip, ca))
    rhs = [(b, b ^ x, cb) for b, cb in right]
    for a, pa, ea, ca in lhs:
        for b, hb, cb in rhs:
            if a & hb:
                continue
            mask = a ^ b
            term = ca * cb
            acc = out.get(mask)
            if (pa & b).bit_count() + ea & 1:
                out[mask] = -term if acc is None else acc - term
            else:
                out[mask] = term if acc is None else acc + term
    return out


_RATIONAL = frozenset((int, Fraction))


def _lift(left: dict, right: dict):
    """(left, right, D_l D_r) as integer (mask, numerator) pairs, or None to stay as given.

    Taken when every coefficient is an int or a Fraction and some
    denominator exceeds 1; each operand is scaled by the lcm of its own
    denominators.  ``Multivector._product`` asks only for two multi-term
    operands.
    """
    if not (_RATIONAL.issuperset(map(type, left.values()))
            and _RATIONAL.issuperset(map(type, right.values()))):
        return None
    # one call per term: Fraction's numerator and denominator are each a call
    ratios_l = [c.as_integer_ratio() for c in left.values()]
    ratios_r = [c.as_integer_ratio() for c in right.values()]
    den_l = lcm(*{d for _, d in ratios_l})
    den_r = lcm(*{d for _, d in ratios_r})
    if den_l == den_r == 1:
        return None
    return ([(m, n * (den_l // d)) for m, (n, d) in zip(left, ratios_l)],
            [(m, n * (den_r // d)) for m, (n, d) in zip(right, ratios_r)],
            den_l * den_r)
