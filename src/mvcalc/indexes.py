"""Blade bitmasks and permutation signs: the package's one sign implementation.

Basis blades are strictly increasing index tuples ("canonical" lists) at
the API and bitmasks inside (bit i set for each i in the list).  Every
product reduces to merging two lists while tracking the parity of the
merge, which on masks is a popcount (the bitmap representation of Dorst,
Fontijne & Mann, *Geometric Algebra for Computer Science*, 2007, ch. 19).
The products, derivatives and matrices run on the tables and rules at the
end of this module, and so do the public helpers.  Those take a tuple or
list of ints, checked for type, order and range (below MAX_DIM when no
dimension is given) before any table lookup.  A brute-force parity
oracle lives in the verification suite, not here.

There are two sign rules, the wedge and the left contraction.  The other
products follow from them by grade signs, since s(X, Y) s(Y, X) =
(-1)^(|X||Y|) for disjoint X and Y: the right contraction is e_A |_ e_B =
(-1)^(|B||A\\B|) e_B _| e_A, and each Hodge dual relabels e_I to its
complement with the sign of e_I _| e_full and one grade parity.

Each rule also has a per-mask form (``_FORMS``), so that a product of two
term lists can look each term up once and test its pairs with no call:
the pair (A, B) gives a term iff A & hB == 0, with mask A ^ B and sign
parity popcount(pA & B) + eA, where

    rule          left term (pA, eA)        right term hB
    wedge         (above(A), 0)             B
    left int.     (upto(A), T(|A|))         ~B

with T(m) = C(m+1, 2) mod 2, and the time-like parity popcount(A & t)
added to eA (left int.).  Here above(A) has bit j set when an odd number
of A's bits lie above j, and upto(A) when an odd number lie at or below
j.  The derivation: let N(X, Y) count the pairs x in X, y in Y with
x > y, so that s(X, Y) = (-1)^N(X, Y) and N(X, Y) = popcount(above(X) &
Y) mod 2, which is the wedge row.  Counted from A's side, N(B, A) =
#{a <= b} - |A & B| = popcount(upto(A) & B) - m mod 2, where m = |A| is
the grade of the contained operand.  The left contraction's sign
s(B\\A, A) (A <= B) drops the m(m-1)/2 pairs inside A from N(B, A), and
m + C(m, 2) = C(m+1, 2) gives the T term.  So A meets only the B = (A & x) |
S, S a subset of the free axes full ^ A with j = |B| - |A & x| bits; products
probe ``_SUBSETS[free, j]`` when shorter than the right operand.  Like ``_STEPS``
it grows only as used, to at most 3^dim masks over all keys (6,561 at dim 8).

The derivatives ``d^`` and ``d_|`` walk ``_STEPS``: per (rule, dimension,
mask), only the axes e_i that give a term, with their parity and mask.

``Record``, the frozen base of ``Metric`` and the other value records, lives
here too: every module imports this one, and ``dataclasses`` stays unloaded.
"""

from __future__ import annotations

from itertools import combinations

# Hard cap on the ambient dimension; blade counts explode past this.
MAX_DIM = 16


class AlgebraError(ValueError):
    """Domain error in an algebraic operation (bad index, grade mismatch)."""


class Record:
    """Base of the frozen records: fields are annotations, defaults class attributes.

    Each subclass gets an ``__init__`` (ending in ``__post_init__`` if it has one),
    ``__eq__`` (same class only) and ``__hash__`` compiled for its fields, as
    ``dataclasses`` does; ``attrgetter`` versions ran ~1.6x slower.
    """

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        params = ", ".join(f"{n}=cls.{n}" if hasattr(cls, n) else n for n in names)
        mine, theirs = (", ".join(f"{who}.{n}" for n in names) + "," for who in ("self", "other"))
        code = (f"def __init__(self, {params}):\n"
                + "".join(f" put(self, {n!r}, {n})\n" for n in names)
                + (" self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
                + "def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
                f"  return ({mine}) == ({theirs})\n return NotImplemented\n"
                f"def __hash__(self):\n return hash(({mine}))\n")
        exec(code, methods := {"cls": cls, "put": object.__setattr__})
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, methods[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _shown(value) -> str:
    """``repr(value)`` for an error message, or a stand-in where Python cannot print it
    (a list nested past the recursion limit, an int past the int-to-text limit)."""
    try:
        return repr(value)
    except (RecursionError, ValueError):
        return f"<{type(value).__name__} too large to print>"


def integer(value, what: str, low: int | None = None, high: int | None = None,
            error: type = AlgebraError) -> int:
    """``value`` if a plain int in [low, high] (each bound if given): the one int rule.

    Not an int raises AlgebraError("bad <what>: integers only, got <value>"); an int
    out of range raises ``error``, "<what> must be in [<low>, <high>], got <value>"
    or, with no ``high``, "<what> must be at least <low>, got <value>".  Values print
    through ``_shown``.  Hot sites test the type and range inline and call this to raise.
    """
    if type(value) is not int:
        raise AlgebraError(f"bad {what}: integers only, got {_shown(value)}")
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {_shown(high)}]"
        raise error(f"{what} must be {bound}, got {_shown(value)}")
    return value


def term_items(terms):
    """The (key, coeff) pairs of a constructor's terms mapping; None gives none."""
    try:
        return (terms or {}).items()
    except AttributeError:
        raise AlgebraError(f"terms must be a mapping, got {type(terms).__name__}") from None


def as_tuple(value, what: str) -> tuple:
    """A term key given as a tuple or list, as a tuple; AlgebraError for anything else.

    Other iterables are refused, not coerced: ``bytes``, ``str``, ``range``
    and sets would otherwise read as index or exponent lists.
    """
    if not isinstance(value, (tuple, list)):
        raise AlgebraError(f"bad {what}: expected a tuple or list, got {_shown(value)}")
    return tuple(value)


def _check_ints(indices: tuple) -> None:
    for i in indices:
        if type(i) is not int:
            integer(i, "index")


def _out_of_range(indices: tuple, dim: int) -> AlgebraError:
    bad = next(i for i in indices if not 0 <= i < dim)
    return AlgebraError(f"index {_shown(bad)} out of range for dimension {dim}")


def check_canonical(indices: tuple, dim: int | None = None) -> None:
    """AlgebraError unless the tuple is strictly increasing ints, in [0, dim) if given."""
    _check_ints(indices)  # before the order: an int against a str raises TypeError
    if not all(a < b for a, b in zip(indices, indices[1:])):
        raise AlgebraError(f"index list {_shown(indices)} is not strictly increasing")
    # increasing, so only the ends can leave the range
    if dim is not None and indices and (indices[0] < 0 or indices[-1] >= dim):
        raise _out_of_range(indices, dim)


def _mask(raw, dim: int = MAX_DIM, what: str = "index list") -> int:
    """The blade mask of a canonical index list: every list from outside is checked here."""
    indices = as_tuple(raw, what)
    check_canonical(indices, dim)
    return _MASK[indices]


def sort_signature(raw, dim: int | None = None) -> tuple[int, tuple]:
    """Signature of the permutation sorting ``raw``, plus the sorted tuple.

    Returns ``(0, ())`` when an index repeats (the corresponding blade
    vanishes).  Indices must lie in [0, dim), or below MAX_DIM when
    ``dim`` is not given.
    """
    indices = as_tuple(raw, "index list")
    _check_ints(indices)
    limit = MAX_DIM if dim is None else integer(dim, "dimension", 0, MAX_DIM)
    if not all(0 <= i < limit for i in indices):
        raise _out_of_range(indices, limit)
    # prepending index i to the sorted suffix passes it over every smaller one;
    # folding from the right keeps the _ABOVE lookups to single bits
    odd = acc = 0
    for i in reversed(indices):
        if (hit := _wedge_rule(1 << i, acc, 0)) is None:
            return 0, ()
        odd, acc = odd ^ hit[0], hit[1]
    return (-1 if odd else 1), _BLADE[acc]


def merge_signature(lhs, rhs) -> tuple[int, tuple]:
    """Sign of sorting the concatenation of two canonical lists.

    ``merge_signature(I, J) == sort_signature(I + J)``: the wedge rule on
    the two masks.  Shared indices give ``(0, ())``.  The empty list is a
    two-sided identity with sign +1.
    """
    hit = _wedge_rule(_mask(lhs), _mask(rhs), 0)
    return (0, ()) if hit is None else ((-1 if hit[0] else 1), _BLADE[hit[1]])


def complement(indices, dim: int) -> tuple:
    """The increasing list of dimension indices not in ``indices``."""
    dim = integer(dim, "dimension", 0, MAX_DIM)
    return _BLADE[_mask(indices, dim) ^ ((1 << dim) - 1)]


def subtract(whole, part) -> tuple | None:
    """``whole`` with ``part`` removed, or None when ``part`` is not contained.

    Absence is a value here, not an error: callers use None as the zero
    branch of the interior products.
    """
    a, b = _mask(whole), _mask(part)
    return _BLADE[a ^ b] if a & b == b else None


# -- blade-mask tables and sign rules ---------------------------------------------


class _Memo(dict):
    """A dict that computes and keeps a missing value on first lookup."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


# Lazy blade tables, each below 2^MAX_DIM entries.  _ABOVE[A] has bit j set
# when an odd number of A's bits lie above j: the xor over shifts of A >> shift,
# so s(A, B) = (-1)^popcount(_ABOVE[A] & B) = (-1)^sum_shift popcount((A >> shift) & B).
_MASK = _Memo(lambda blade: sum(1 << i for i in blade))
_BLADE = _Memo(lambda mask: tuple(i for i in range(mask.bit_length()) if mask >> i & 1))
_ABOVE = _Memo(lambda mask: mask and (mask >> 1) ^ _ABOVE[mask >> 1])
# _UPTO[A] has bit j set when an odd number of A's bits lie at or below j.
_UPTO = _Memo(lambda mask: _ABOVE[mask] ^ -(mask.bit_count() & 1))


# Rules (A, B, t) -> (odd, result mask), or None for no term.  The sign is
# (-1)^odd, t masks the time-like axes and D_AA = (-1)^popcount(A & t).
def _wedge_rule(a: int, b: int, t: int):
    """e_A ^ e_B = s(A, B) e_{A+B}; no term when A and B share an axis."""
    if a & b:
        return None
    return (_ABOVE[a] & b).bit_count() & 1, a | b


def _left_rule(a: int, b: int, t: int):
    """e_A _| e_B = D_AA s(B\\A, A) e_{B\\A}; no term unless A <= B."""
    if a & b != a:
        return None
    rest = a ^ b
    return ((_ABOVE[rest] & a).bit_count() + (a & t).bit_count()) & 1, rest


# Per-mask forms of the rules, lazy like the tables (see the module docstring):
# rule -> (A -> (pA, eA), x, t-mask), where hB = B ^ x and a product adds
# popcount(A & t & t-mask) to eA.
_FORMS = {
    _wedge_rule: (_Memo(lambda a: (_ABOVE[a], 0)), 0, 0),
    _left_rule: (_Memo(lambda a: (_UPTO[a], (a.bit_count() + 1) >> 1 & 1)), -1, -1),
}

# Probe table, lazy: (free, j) -> the j-bit submasks S of free, ascending (see above).
_SUBSETS = _Memo(lambda key: tuple(sorted(map(sum, combinations(
    [1 << i for i in _BLADE[key[0]]], key[1])))))

# Derivative step table, lazy: (rule, dim, A) -> the (i, odd, mask) of each axis i < dim
# with a term rule(e_i, e_A, no time-like axes) = (-1)^odd e_mask, in axis order.
_STEPS = _Memo(lambda key: tuple((i, *hit) for i in range(key[1])
                                 if (hit := key[0](1 << i, key[2], 0)) is not None))
