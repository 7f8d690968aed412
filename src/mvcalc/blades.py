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

A term is stored by its flat key (``poly``): the blade bitmask (bit i set
for each i in I) plus, for a polynomial value, its packed monomial shifted
past the dim mask bits, so a rational value's keys are its masks.  The
wedge and the left contraction are the two rules (mask, mask) -> (sign,
mask) of ``mvcalc.indexes``, with signs from popcounts.  The other rows
follow from the left rule by a grade sign: e_J |_ e_I is e_I _| e_J,
negated when |I| |J\\I| is odd, and a Hodge dual relabels e_I as e_Ic with
the sign of e_I _| e_full, D_II s(Ic, I), negated when g (dim - g) is odd
for hodge at grade g, or when k is odd for its inverse (D_II D_IcIc =
(-1)^k).  Index tuples appear only at the API.  Stored coefficients are
exact rationals (``poly.exact``); a value records whether they are
polynomials in the metric's k+n coordinates (``_poly``), and its views
(``terms``, ``coefficient``, ``items``, ``scalar_value``, ``dot``, the
text) then show a PolyScalar per blade.

``Multivector._product`` runs every binary product.  An empty operand gives
the zero of the stated grade at once.  Two single-term rational operands
(most products of a verify run) take one inline step: one rule call and one
product ca cb, an int when integral.  Others run ``_accumulate_forms`` on
the rule's per-mask form (``indexes._FORMS``): each term is looked up once,
and a pair costs no call.  A left term of grade g_l meets only C(dim - g_l, m)
right masks (``indexes._SUBSETS``; m = g_r, less g_l for a contraction), and a
product with none is the stated zero at once.  Rational operands probe the
right dict for them when they are fewer than its terms; others (polynomial
ones always) test every pair.  Rational operands with some denominator above
1 (in ``dot`` too) run on integers (``_lift``): numerators over the lcm of
each one's denominators, D_l and D_r, and each sum one Fraction over D_l D_r.

``Multivector`` and ``matrices.MvMatrix`` take their linear rules, copy,
pickle and equality (every zero of a metric is equal) from ``poly._Linear``,
and the operand and coefficient rules from ``_Sparse``.  ``require`` is the
one operand check of every module: the type, the metric (through
``require_same_metric``, the one "mixed metrics" check) and, for a nonzero
value, the grade.  Public constructors validate; results of valid
operands, and copies, go through the trusted builder ``_make``, which
cleans the new dict (``poly._exact_terms``) and hands it to ``_adopt``, the
one writer of a trusted Multivector's slots (through their descriptors'
``__set__``, ``_put_*``, bound once).  Results canonical as built (the
inline step, empty results, Hodge duals) go to ``_adopt`` with no
coefficient scan.  A product runs one chain: the method, ``_product``, then
``_adopt`` or the kernel and ``_make``.  ``dot`` runs no kernel, only ``_Sparse._dot``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from fractions import Fraction
from math import comb, lcm

from .indexes import (_BLADE, _FORMS, _SUBSETS, MAX_DIM, AlgebraError, Record, _check_ints,
                      _left_rule, _mask, _shown, _wedge_rule, as_tuple, integer, term_items)
from .poly import (_GUARD, PolyScalar, _exact_terms, _factor, _guarded, _Linear, _place,
                   _put_terms, _split, coefficient, exact, poly_text, signed_sum)


class GradeError(AlgebraError):
    """Grades incompatible with the requested operation."""


class Metric(Record):
    """Flat metric signature with k time-like and n space-like axes."""

    k: int
    n: int

    def __post_init__(self):
        dim = integer(self.k, "k", 0) + integer(self.n, "n", 0)
        self.__dict__["dim"] = integer(dim, "dimension k+n", 1, MAX_DIM)  # not a field of ==/hash

    def sign(self, index: int) -> int:
        """Metric sign of one axis: -1 time-like, +1 space-like."""
        if type(index) is not int or not 0 <= index < self.dim:
            _mask((index,), self.dim)  # raises the index-list check's messages
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

    A value is a metric, grades, ``_poly`` and ``_terms``, flat keys to nonzero
    exact rationals; ``_shape()`` is (metric, *grades).  ``+`` refuses a value of
    another class, metric or (both nonzero) shape with AlgebraError/GradeError,
    and a factor may be a PolyScalar in the metric's coordinates.  A key's
    monomial starts past one dim-bit mask per grade (``_shift``), and the
    views regroup the terms by blade part through ``poly._split``.  Each
    subclass adds its constructor, ``_make``, ``_shape`` and its products.
    """

    __slots__ = ("metric", "_poly")

    def _operand(self, other):
        require(other, type(self), self.metric)
        if other._terms and self._terms and self._shape() != other._shape():
            raise GradeError("cannot add grades " + " and ".join(
                ",".join(map(str, s._shape()[1:])) for s in (self, other)))
        return other._terms

    def _scalar(self, value):
        return _factor(value, self.metric.dim)  # AlgebraError in other variables

    def _shift(self) -> int:
        return (len(self._shape()) - 1) * self.metric.dim

    def _view(self) -> dict:
        """{blade part: coefficient} as the views show it, a new dict."""
        if not self._poly:
            return dict(self._terms)
        dim = self.metric.dim
        return {base: PolyScalar._make(dim, monos)
                for base, monos in _split(self._terms, self._shift()).items()}

    def _at(self, base: int):
        """The coefficient at one blade part as the views show it, 0 when absent."""
        if not self._poly:
            return self._terms.get(base, 0)
        full = (1 << (shift := self._shift())) - 1  # that blade's keys alone, not a regroup
        monos = {key >> shift: c for key, c in self._terms.items() if key & full == base}
        return PolyScalar._make(self.metric.dim, monos) if monos else 0

    def _dot(self, other, t):
        """sum(D a b) over the blade parts both values hold: the one ``dot`` loop.

        D = -1 when popcount(part & t) is odd, t the time-like mask; a matrix entry
        (I, J) passes the time-like axes of both masks, as D_II D_JJ adds their parities.
        Rational values walk the smaller dict (two multi-term ones lifted as ``_product``
        lifts them); polynomial ones multiply the monomials of each shared part.
        """
        left, right = self._terms, other._terms
        if self._poly or other._poly:
            dim, shift, out = self.metric.dim, self._shift(), {}
            full, right = (1 << shift) - 1, _split(right, shift)
            for key, a in left.items():
                if (monos := right.get(part := key & full)) is not None:
                    ma, odd = key >> shift, (part & t).bit_count() & 1
                    for mb, b in monos.items():
                        term, acc = -a * b if odd else a * b, out.get(mono := ma + mb)
                        out[mono] = term if acc is None else acc + term
            return PolyScalar._make(dim, _guarded(out, _GUARD[dim])) or 0  # a zero is falsy
        left, right, den = len(left) > 1 < len(right) and _lift(left, right) or (left, right, 1)
        if len(right) < len(left):
            left, right = right, left
        total = None
        for key, a in left.items():
            if (b := right.get(key)) is not None:
                term = a * b
                if (key & t).bit_count() & 1:
                    total = -term if total is None else total - term
                else:
                    total = term if total is None else total + term
        return 0 if total is None else exact(Fraction(total, den) if den != 1 else total)


class Multivector(_Sparse):
    """Grade-homogeneous multivector with sparse exact coefficients.

    Stored by flat key (blade mask and monomial); ``terms`` is a new dict
    of index lists on each access.  The grade annotation survives on the
    zero multivector, and only the zero multivector may carry a grade
    outside [0, k+n] (such grades arise as stated results of wedge
    overflow and of interior derivatives of grade 0).
    """

    __slots__ = ("grade",)
    # bound by name, since bench/tracing.py wraps them in this class's own __dict__
    __add__, __mul__, __rmul__ = _Linear.__add__, _Linear.__mul__, _Linear.__mul__

    def __init__(self, metric: Metric, grade: int, terms: Mapping[tuple, object] | None = None):
        require(metric, Metric)
        if type(grade) is not int:
            integer(grade, "grade")
        dim, clean, poly = metric.dim, {}, False
        for indices, coeff in term_items(terms):
            poly |= _place(clean, _mask(indices, dim), coefficient(coeff, dim), dim)
        if clean:
            integer(grade, "grade", 0, dim, GradeError)
            for key in clean:
                if (mask := key & (1 << dim) - 1).bit_count() != grade:
                    raise GradeError(f"index list {_BLADE[mask]!r} has grade "
                                     f"{mask.bit_count()}, expected {grade}")
        _put_metric(self, metric)
        _put_grade(self, grade)
        _put_poly(self, poly)
        _put_terms(self, clean)

    @classmethod
    def _make(cls, metric: Metric, grade: int, terms: dict, poly: bool = False) -> "Multivector":
        """Trusted builder adopting a new dict of flat keys of ``grade`` built here."""
        return _adopt(metric, grade, _exact_terms(terms), poly)

    def _shape(self) -> tuple:
        return (self.metric, self.grade)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, metric: Metric, grade: int) -> "Multivector":
        return cls(metric, grade)

    @classmethod
    def blade(cls, metric: Metric, indices, coeff=1) -> "Multivector":
        indices = as_tuple(indices, "index list")
        _check_ints(indices)  # before the key is hashed: a list inside is unhashable
        return cls(metric, len(indices), {indices: coeff})

    @classmethod
    def scalar(cls, metric: Metric, value) -> "Multivector":
        return cls(metric, 0, {(): value})

    # -- basic queries ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple, object]:
        """A new dict of canonical index lists to nonzero coefficients."""
        return {_BLADE[mask]: c for mask, c in self._view().items()}

    def coefficient(self, indices):
        """Coefficient of one blade (0 when absent)."""
        return self._at(_mask(indices, self.metric.dim))

    def scalar_value(self):
        if self.grade != 0:
            raise GradeError("scalar_value needs a grade-0 multivector")
        return self._at(0)

    def items(self) -> list[tuple[tuple, object]]:
        """Terms sorted by index list, the order the text form lists them in."""
        return sorted((_BLADE[mask], c) for mask, c in self._view().items())

    # -- products ----------------------------------------------------------

    def dot(self, other: "Multivector"):
        """Scalar product sum(D_II a_I b_I) over shared index lists; requires equal grades."""
        require(other, Multivector, self.metric)
        if self.grade != other.grade:
            raise GradeError(f"dot needs equal grades, got {_shown(self.grade)} and "
                             f"{_shown(other.grade)}")
        return self._dot(other, (1 << self.metric.k) - 1)

    def _product(self, rule, lhs: "Multivector", rhs: "Multivector", grade, flip=0):
        """The rule's products of two values' terms, summed into a Multivector of ``grade``.

        The route each operand pair takes is set out in the module docstring.
        """
        left, right, poly = lhs._terms, rhs._terms, lhs._poly or rhs._poly
        if not left or not right:
            return _adopt(self.metric, grade, {}, poly)
        t = (1 << self.metric.k) - 1
        if not poly and len(left) == 1 == len(right):
            (a, ca), = left.items()
            (b, cb), = right.items()
            if (hit := rule(a, b, t)) is None:
                return _adopt(self.metric, grade, {}, False)
            term = ca * cb  # nonzero, as both factors are
            if type(term) is Fraction and term.denominator == 1:
                term = term.numerator
            return _adopt(self.metric, grade, {hit[1]: -term if hit[0] ^ flip else term}, False)
        dim, form = self.metric.dim, _FORMS[rule]
        m = rhs.grade - (lhs.grade & form[1])  # |S| of each B = (A & x) | S a term can meet
        if not 0 <= m <= dim - lhs.grade:
            return _adopt(self.metric, grade, {}, poly)
        left, right, den = not poly and _lift(left, right) or (left, right, 1)
        probe = None if poly or comb(dim - lhs.grade, m) >= len(right) else m
        sums = _accumulate_forms(form, t, left, right, flip, (1 << dim) - 1, probe)
        if poly:
            _guarded(sums, _GUARD[dim] << dim)
        elif den != 1:
            sums = {mask: Fraction(acc, den) for mask, acc in sums.items()}
        return Multivector._make(self.metric, grade, sums, poly)

    def wedge(self, other: "Multivector") -> "Multivector":
        """Exterior product; grade adds (zero past the top grade)."""
        require(other, Multivector, self.metric)
        return self._product(_wedge_rule, self, other, self.grade + other.grade)

    def left_contract(self, other: "Multivector") -> "Multivector":
        """Left interior product self _| other; lowers other's grade by self's."""
        require(other, Multivector, self.metric)
        return self._product(_left_rule, self, other, other.grade - self.grade)

    def right_contract(self, other: "Multivector") -> "Multivector":
        """Right interior product self |_ other; lowers self's grade by other's."""
        require(other, Multivector, self.metric)
        grade = self.grade - other.grade
        return self._product(_left_rule, other, self, grade, other.grade * grade & 1)

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
        for key, c in self._terms.items():
            odd, rest = _left_rule(mask := key & full, full, t)
            out[key - mask + rest] = -c if odd ^ flip else c
        return _adopt(metric, metric.dim - self.grade, out, self._poly)

    # -- canonical text -----------------------------------------------------

    def _texts(self) -> list[tuple[tuple, str]]:
        """(index list, coefficient text) per term, sorted by index list: the text and JSON."""
        dim = self.metric.dim  # a rational value's coefficients are its constant terms
        return sorted((_BLADE[mask], poly_text(monos, dim))
                      for mask, monos in _split(self._terms, dim).items())

    def __str__(self) -> str:
        return signed_sum(_blade_term_text(indices, text) for indices, text in self._texts())

    def __repr__(self) -> str:
        return f"<Multivector ({self.metric.k},{self.metric.n}) grade {_shown(self.grade)}: {self}>"


_put_metric, _put_poly, _put_grade = (_Sparse.metric.__set__, _Sparse._poly.__set__,
                                     Multivector.grade.__set__)


def _adopt(metric: Metric, grade: int, terms: dict, poly: bool) -> Multivector:
    """The one writer of a trusted Multivector's slots: ``Multivector._make`` with no
    coefficient scan, for a new dict canonical as built."""
    mv = object.__new__(Multivector)
    _put_metric(mv, metric)
    _put_grade(mv, grade)
    _put_poly(mv, poly)
    _put_terms(mv, terms)
    return mv


def require(value, kind=Multivector, metric: Metric | None = None, grade: int | None = None,
            what: str = "operand"):
    """``value`` if it is a ``kind``, on ``metric`` and, when nonzero, of ``grade`` (each if given).

    Raises AlgebraError("expected <kind>, got <type>"), "mixed metrics" through
    ``require_same_metric``, or GradeError("<what> has grade g, expected e").
    """
    if not isinstance(value, kind):
        raise AlgebraError(f"expected {kind.__name__}, got {type(value).__name__}")
    if metric is not None and value.metric is not metric:  # the common case skips a call
        require_same_metric(metric, value.metric)
    if grade is not None and value.grade != grade and value._terms:
        raise GradeError(f"{what} has grade {_shown(value.grade)}, expected {_shown(grade)}")
    return value


def _blade_term_text(indices: tuple, text: str) -> tuple[bool, str]:
    """(negative, magnitude text) of one blade term for ``signed_sum``, given its coefficient's.

    A scalar term is its coefficient's text alone.  A polynomial of several
    terms, whose text is a signed sum, keeps its own signs inside parentheses;
    a single monomial or a rational gives its "-" to the term join.
    """
    if not indices:
        return False, text
    blade = "e[" + ",".join(str(i) for i in indices) + "]"
    if " + " in text or " - " in text:
        return False, f"({text}) ^ {blade}"
    magnitude = text.removeprefix("-")
    return magnitude != text, blade if magnitude == "1" else f"{magnitude} ^ {blade}"


# -- bitmask kernel -------------------------------------------------------------


def _accumulate_forms(form, t: int, left: dict, right: dict, flip: int, full: int, probe) -> dict:
    """Sums by key of a rule's products over all term pairs, with no call per pair.

    Each left term is looked up once in the rule's per-mask form (``indexes._FORMS``),
    its time-like parity (and ``flip``) added to eA; a pair (A, B) gives a term iff
    A & hB == 0, with mask A ^ B and parity popcount(pA & B) + eA.  Keys may be flat
    (``poly``), their masks ``key & full``: A ^ B is B + A for the wedge (x = 0) and
    B - A for the contraction (x = -1), so a pair's key is its left key less 2 (A & x)
    plus its right key.  ``probe`` = m: look up each B = (A & x) | S, S in
    ``_SUBSETS[full ^ A, m]``, in ``right``; None: test every pair.  Zeros stay in.
    """
    part, x, time = form
    t &= time
    lhs, out, get = [], {}, right.get
    for ka, ca in left.items():
        pa, ea = part[a := ka & full]
        lhs.append((a, ka - 2 * (a & x), pa, ea + (a & t).bit_count() + flip, ca))
    if probe is not None:
        for a, lead, pa, ea, ca in lhs:
            ax = a & x
            for s in _SUBSETS[full ^ a, probe]:
                if (cb := get(b := s | ax)) is None:
                    continue
                key = lead + b
                term = ca * cb
                acc = out.get(key)
                if (pa & b).bit_count() + ea & 1:
                    out[key] = -term if acc is None else acc - term
                else:
                    out[key] = term if acc is None else acc + term
        return out
    rhs = [(kb & full, kb & full ^ x, kb, cb) for kb, cb in right.items()]
    for a, lead, pa, ea, ca in lhs:
        for b, hb, kb, cb in rhs:
            if a & hb:
                continue
            key = lead + kb
            term = ca * cb
            acc = out.get(key)
            if (pa & b).bit_count() + ea & 1:
                out[key] = -term if acc is None else acc - term
            else:
                out[key] = term if acc is None else acc + term
    return out


def _lift(left: dict, right: dict):
    """(left, right, D_l D_r), each operand as {key: integer numerator}, or None to stay as given.

    Taken when some denominator exceeds 1; each operand is scaled by the lcm
    of its own denominators.  Asked only for two rational operands, not both single terms.
    """
    # one call per term: Fraction's numerator and denominator are each a call
    ratios_l = [c.as_integer_ratio() for c in left.values()]
    ratios_r = [c.as_integer_ratio() for c in right.values()]
    den_l = lcm(*{d for _, d in ratios_l})
    den_r = lcm(*{d for _, d in ratios_r})
    if den_l == den_r == 1:
        return None
    return ({m: n * (den_l // d) for m, (n, d) in zip(left, ratios_l)},
            {m: n * (den_r // d) for m, (n, d) in zip(right, ratios_r)},
            den_l * den_r)
