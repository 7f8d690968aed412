"""Matrix space over basis blades.

A matrix of row grade l and column grade m is a sparse sum of tensor
bases w_{I,J} = e_I (x) e_J with |I| = l, |J| = m.  Products contract
through the metric sign of the shared list:

    w_{I1,I2} . w_{J1,J2} = D_I1J1 D_I2J2          (Frobenius scalar)
    w_{I,J} x w_{K,L}     = D_JK w_{I,L}
    w_{I,J} x e_K         = e_K x w_{J,I} = D_JK e_I

The identity of grade l is sum_I D_II w_{I,I}.  There is no matrix
inverse here; only the products above are defined.

Entries are stored in ``_terms`` by (row mask, column mask), with index
tuples only at the API, and the three contractions run one loop with
D_KK from popcounts; the linear structure is that of ``poly._Linear``,
through ``blades._Sparse``.
"""

from __future__ import annotations

from typing import Mapping

from .blades import (AlgebraError, GradeError, Metric, Multivector, _put_metric, _Sparse,
                     require_same_metric)
from .indexes import _BLADE, _MASK, as_tuple, check_canonical, integer, term_items
from .poly import _exact_terms, _put_terms, coefficient


class MvMatrix(_Sparse):
    """Sparse matrix over blade tensor bases stored by mask pair; ``terms`` is a view."""

    __slots__ = ("row_grade", "col_grade")

    def __init__(self, metric: Metric, row_grade: int, col_grade: int,
                 terms: Mapping[tuple, object] | None = None):
        integer(row_grade, "row grade")
        integer(col_grade, "column grade")
        clean: dict[tuple[int, int], object] = {}
        for key, coeff in term_items(terms):
            if type(key) is not tuple or len(key) != 2:
                raise AlgebraError(f"bad matrix key {key!r}: expected a (rows, cols) pair")
            rows, cols = as_tuple(key[0], "row index list"), as_tuple(key[1], "column index list")
            check_canonical(rows, metric.dim)
            check_canonical(cols, metric.dim)
            coeff = coefficient(coeff, metric.dim)
            if coeff:
                clean[(_MASK[rows], _MASK[cols])] = coeff
        if clean:
            for grade in (row_grade, col_grade):
                if not 0 <= grade <= metric.dim:
                    raise GradeError(f"grade {grade} out of range")
            for rows, cols in clean:
                if rows.bit_count() != row_grade or cols.bit_count() != col_grade:
                    raise GradeError(f"entry ({_BLADE[rows]!r},{_BLADE[cols]!r}) does not "
                                     f"have grades ({row_grade},{col_grade})")
        _put_metric(self, metric)
        _put_rows(self, row_grade)
        _put_cols(self, col_grade)
        _put_terms(self, clean)

    @classmethod
    def _make(cls, metric: Metric, row_grade: int, col_grade: int, terms: dict) -> "MvMatrix":
        """Trusted builder adopting a new (row mask, col mask) -> coeff dict of the given grades."""
        matrix = object.__new__(cls)
        _put_metric(matrix, metric)
        _put_rows(matrix, row_grade)
        _put_cols(matrix, col_grade)
        _put_terms(matrix, _exact_terms(terms))
        return matrix

    def _like(self, terms: dict) -> "MvMatrix":
        return MvMatrix._make(self.metric, self.row_grade, self.col_grade, terms)

    def _shape(self) -> tuple:
        return (self.metric, self.row_grade, self.col_grade)

    @classmethod
    def zero(cls, metric: Metric, row_grade: int, col_grade: int) -> "MvMatrix":
        return cls(metric, row_grade, col_grade)

    @classmethod
    def basis(cls, metric: Metric, rows, cols, coeff=1) -> "MvMatrix":
        rows, cols = as_tuple(rows, "row index list"), as_tuple(cols, "column index list")
        return cls(metric, len(rows), len(cols), {(rows, cols): coeff})

    @classmethod
    def identity(cls, metric: Metric, grade: int) -> "MvMatrix":
        terms = {(I, I): metric.sign_of(I) for I in metric.blades(grade)}
        return cls(metric, grade, grade, terms)

    @property
    def terms(self) -> dict[tuple, object]:
        """A new dict of (rows, cols) index lists to nonzero coefficients."""
        return {(_BLADE[rows], _BLADE[cols]): c for (rows, cols), c in self._terms.items()}

    def entry(self, rows, cols):
        rows, cols = as_tuple(rows, "row index list"), as_tuple(cols, "column index list")
        check_canonical(rows, self.metric.dim)
        check_canonical(cols, self.metric.dim)
        return self._terms.get((_MASK[rows], _MASK[cols]), 0)

    def transpose(self) -> "MvMatrix":
        return MvMatrix._make(self.metric, self.col_grade, self.row_grade,
                              {(cols, rows): c for (rows, cols), c in self._terms.items()})

    def dot(self, other: "MvMatrix"):
        """Frobenius scalar product; requires matching grade shapes."""
        self._require_same_space(other)
        if self._shape() != other._shape():
            raise GradeError("dot needs matching grade shapes")
        t, total = (1 << self.metric.k) - 1, 0
        for (rows, cols), a in self._terms.items():
            if (b := other._terms.get((rows, cols))) is not None:
                odd = ((rows & t).bit_count() + (cols & t).bit_count()) & 1
                total = total - a * b if odd else total + a * b
        return _exact_terms({0: total}).get(0, 0)

    def matmul(self, other: "MvMatrix") -> "MvMatrix":
        """Matrix product; contracts self's columns with other's rows."""
        self._require_same_space(other)
        if self.col_grade != other.row_grade:
            raise GradeError(f"cannot contract column grade {self.col_grade} "
                             f"with row grade {other.row_grade}")
        out = _contract(self.metric, self._terms.items(), other._terms.items())
        return MvMatrix._make(self.metric, self.row_grade, other.col_grade, out)

    def __repr__(self) -> str:
        pairs = sorted(((_BLADE[r], _BLADE[c]), v) for (r, c), v in self._terms.items())
        entries = ", ".join(f"w[{','.join(map(str, r))};{','.join(map(str, c))}]*{v}"
                            for (r, c), v in pairs)
        return (f"<MvMatrix ({self.metric.k},{self.metric.n}) "
                f"grades ({self.row_grade},{self.col_grade}): {entries or '0'}>")


_put_rows, _put_cols = MvMatrix.row_grade.__set__, MvMatrix.col_grade.__set__


def mat_vec(matrix: MvMatrix, vector: Multivector) -> Multivector:
    """matrix x vector: contracts columns against the vector's blades."""
    column = (((mask, 0), c) for mask, c in vector._terms.items())
    out = _apply(matrix, vector, "column", matrix.col_grade, matrix._terms.items(), column)
    return Multivector._make(matrix.metric, matrix.row_grade, {i: c for (i, _), c in out})


def vec_mat(vector: Multivector, matrix: MvMatrix) -> Multivector:
    """vector x matrix: contracts the vector against the matrix's rows.

    Equals ``mat_vec(matrix.transpose(), vector)``.
    """
    row = (((0, mask), c) for mask, c in vector._terms.items())
    out = _apply(matrix, vector, "row", matrix.row_grade, row, matrix._terms.items())
    return Multivector._make(matrix.metric, matrix.col_grade, {j: c for (_, j), c in out})


def _apply(matrix: MvMatrix, vector: Multivector, slot: str, grade: int, left, right):
    """The (key, sum) pairs of ``_contract`` once the vector fits the matrix's ``slot``."""
    require_same_metric(matrix.metric, vector.metric)
    if grade != vector.grade and matrix._terms and vector._terms:
        raise GradeError(f"cannot contract {slot} grade {grade} with grade {vector.grade}")
    return _contract(matrix.metric, left, right).items()


def _contract(metric: Metric, left, right) -> dict:
    """{(I, L): sum_K D_KK a b} over mask-keyed ((I, K), a) in left and ((K, L), b) in right.

    A negative product is subtracted; cancelled sums stay as zeros for ``_make``.
    """
    t, by_row = (1 << metric.k) - 1, {}
    for (k, cols), b in right:
        by_row.setdefault(k, []).append((cols, b))
    out: dict[tuple[int, int], object] = {}
    for (rows, k), a in left:
        odd = (k & t).bit_count() & 1
        for cols, b in by_row.get(k, ()):
            key, term = (rows, cols), a * b
            acc = out.get(key)
            if acc is None:
                out[key] = -term if odd else term
            elif odd:
                out[key] = acc - term
            else:
                out[key] = acc + term
    return out
