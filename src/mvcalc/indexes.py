"""Ordered index lists and permutation-sign bookkeeping.

Basis blades are labeled by strictly increasing tuples of dimension
indices ("canonical" lists).  Every product in the algebra reduces to
sorting concatenated lists while tracking the parity of the sort, so
this module is deliberately small and allocation-light: signs are plain
ints in {-1, 0, +1} and lists are plain tuples.

Signs are computed by counting inversions during a merge, O(m log m).
A brute-force transposition-parity oracle lives in the verification
suite, not here.
"""

from __future__ import annotations

from typing import Iterable, Optional

# Hard cap on the ambient dimension; blade counts explode past this.
MAX_DIM = 16

IndexList = tuple


class AlgebraError(ValueError):
    """Domain error in an algebraic operation (bad index, grade mismatch)."""


def integer(value, what: str) -> int:
    """``value`` if a plain int, else AlgebraError (hot loops test the type first)."""
    if type(value) is not int:
        raise AlgebraError(f"bad {what}: integers only, got {value!r}")
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
        raise AlgebraError(f"bad {what}: expected a tuple or list, got {value!r}")
    return tuple(value)


def check_index_range(indices: Iterable[int], dim: int) -> None:
    for i in indices:
        if type(i) is not int:
            integer(i, "index")
        if not 0 <= i < dim:
            raise AlgebraError(f"index {i} out of range for dimension {dim}")


def is_canonical(indices: tuple) -> bool:
    """True when the tuple is strictly increasing."""
    return all(a < b for a, b in zip(indices, indices[1:]))


def check_canonical(indices: tuple, dim: Optional[int] = None) -> None:
    # entry types before order: ordering an int against a str raises a bare TypeError
    for i in indices:
        if type(i) is not int:
            integer(i, "index")
    if not is_canonical(indices):
        raise AlgebraError(f"index list {indices!r} is not strictly increasing")
    if dim is not None:
        check_index_range(indices, dim)


def sort_signature(raw, dim: Optional[int] = None) -> tuple[int, IndexList]:
    """Signature of the permutation sorting ``raw``, plus the sorted tuple.

    Returns ``(0, ())`` when an index repeats (the corresponding blade
    vanishes).  When ``dim`` is given, indices are range-checked first.
    """
    indices = tuple(raw)
    if dim is not None:
        check_index_range(indices, dim)
    elif indices:
        check_index_range(indices, MAX_DIM)
    return _merge_sort(indices)


def _merge_sort(seq: tuple) -> tuple[int, tuple]:
    if len(seq) <= 1:
        return 1, seq
    mid = len(seq) // 2
    lsign, left = _merge_sort(seq[:mid])
    if lsign == 0:
        return 0, ()
    rsign, right = _merge_sort(seq[mid:])
    if rsign == 0:
        return 0, ()
    msign, merged = _merge_counting(left, right)
    if msign == 0:
        return 0, ()
    return lsign * rsign * msign, merged


def _merge_counting(left: tuple, right: tuple) -> tuple[int, tuple]:
    # Merge two sorted runs; each element taken from the right run jumps
    # over everything remaining in the left run, adding that many inversions.
    out = []
    inversions = 0
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            return 0, ()
        if a < b:
            out.append(a)
            i += 1
        else:
            inversions += nl - i
            out.append(b)
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return (-1 if inversions & 1 else 1), tuple(out)


def merge_signature(lhs: tuple, rhs: tuple) -> tuple[int, IndexList]:
    """Sign of sorting the concatenation of two canonical lists.

    ``merge_signature(I, J) == sort_signature(I + J)`` but in one merge
    pass.  Shared indices give ``(0, ())``.  The empty list is a two-sided
    identity with sign +1.
    """
    check_canonical(lhs)
    check_canonical(rhs)
    return _merge_counting(lhs, rhs)


def complement(indices: tuple, dim: int) -> IndexList:
    """The increasing list of dimension indices not in ``indices``."""
    check_canonical(indices, dim)
    members = set(indices)
    return tuple(i for i in range(dim) if i not in members)


def subtract(whole: tuple, part: tuple) -> Optional[IndexList]:
    """``whole`` with ``part`` removed, or None when ``part`` is not contained.

    Absence is a value here, not an error: callers use None as the zero
    branch of the interior products.
    """
    check_canonical(whole)
    check_canonical(part)
    members = set(part)
    if not members <= set(whole):
        return None
    return tuple(i for i in whole if i not in members)
