"""Matrix space over basis blades.

A matrix of row grade l and column grade m is a sparse sum of tensor
bases w_{I,J} = e_I (x) e_J with |I| = l, |J| = m.  Products contract
through the metric sign of the shared list:

    w_{I1,I2} . w_{J1,J2} = D_I1J1 D_I2J2          (Frobenius scalar)
    w_{I,J} x w_{K,L}     = D_JK w_{I,L}
    w_{I,J} x e_K         = e_K x w_{J,I} = D_JK e_I

The identity of grade l is sum_I D_II w_{I,I}.  There is no matrix
inverse here; only the products above are defined.

Entries are stored flat in ``_terms`` (see ``poly``): an entry's key is
``rows | cols << dim`` plus its packed monomial shifted past both masks,
with index tuples only at the API.  The three contractions run one loop,
``_contract``, with D_KK from popcounts; ``mat_vec`` runs it on the
transpose.  ``_stack`` builds a row-grade-1 matrix from one row per axis,
the one writer of that layout.  ``dot`` and the linear structure are those of
``blades._Sparse`` and ``poly._Linear``.
"""

from __future__ import annotations

from collections.abc import Mapping

from .blades import (AlgebraError, GradeError, Metric, Multivector, _put_metric, _put_poly,
                     _Sparse, require)
from .indexes import _BLADE, _mask, as_tuple, integer, term_items
from .poly import _GUARD, _exact_terms, _guarded, _place, _put_terms, coefficient, number_text


class MvMatrix(_Sparse):
    """Sparse matrix over blade tensor bases stored by flat key; ``terms`` is a view."""

    __slots__ = ("row_grade", "col_grade")

    def __init__(self, metric: Metric, row_grade: int, col_grade: int,
                 terms: Mapping[tuple, object] | None = None):
        require(metric, Metric)
        integer(row_grade, "row grade")
        integer(col_grade, "column grade")
        dim, clean, poly = metric.dim, {}, False
        for key, coeff in term_items(terms):
            if type(key) is not tuple or len(key) != 2:
                raise AlgebraError(f"bad matrix key {key!r}: expected a (rows, cols) pair")
            part = (_mask(key[0], dim, "row index list")
                    | _mask(key[1], dim, "column index list") << dim)
            poly |= _place(clean, part, coefficient(coeff, dim), 2 * dim)
        if clean:
            for grade in (row_grade, col_grade):
                if not 0 <= grade <= dim:
                    raise GradeError(f"grade {grade} out of range")
            for key in clean:
                rows, cols = key & (1 << dim) - 1, key >> dim & (1 << dim) - 1
                if rows.bit_count() != row_grade or cols.bit_count() != col_grade:
                    raise GradeError(f"entry ({_BLADE[rows]!r},{_BLADE[cols]!r}) does not "
                                     f"have grades ({row_grade},{col_grade})")
        _put_metric(self, metric)
        _put_rows(self, row_grade)
        _put_cols(self, col_grade)
        _put_poly(self, poly)
        _put_terms(self, clean)

    @classmethod
    def _make(cls, metric: Metric, row_grade: int, col_grade: int, terms: dict,
              poly: bool = False) -> "MvMatrix":
        """Trusted builder adopting a new dict of flat keys of the given grades."""
        matrix = object.__new__(cls)
        _put_metric(matrix, metric)
        _put_rows(matrix, row_grade)
        _put_cols(matrix, col_grade)
        _put_poly(matrix, poly)
        _put_terms(matrix, _exact_terms(terms))
        return matrix

    def _like(self, terms: dict, other) -> "MvMatrix":
        return MvMatrix._make(self.metric, self.row_grade, self.col_grade, terms,
                              self._poly or other._poly)

    def _shape(self) -> tuple:
        return (self.metric, self.row_grade, self.col_grade)

    def _shift(self) -> int:
        return 2 * self.metric.dim

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
        return dict(self._entries())

    def _entries(self) -> list:
        """((rows, cols), coefficient) per entry, as the views show them."""
        dim = self.metric.dim
        return [((_BLADE[part & (1 << dim) - 1], _BLADE[part >> dim]), c)
                for part, c in self._view().items()]

    def entry(self, rows, cols):
        dim = self.metric.dim
        return self._at(_mask(rows, dim, "row index list")
                        | _mask(cols, dim, "column index list") << dim)

    def transpose(self) -> "MvMatrix":
        dim, out = self.metric.dim, {}
        for key, c in self._terms.items():
            swap = (key ^ key >> dim) & (1 << dim) - 1  # rows ^ cols
            out[key ^ swap ^ swap << dim] = c
        return MvMatrix._make(self.metric, self.col_grade, self.row_grade, out, self._poly)

    def dot(self, other: "MvMatrix"):
        """Frobenius scalar product; requires matching grade shapes."""
        require(other, MvMatrix, self.metric)
        if self._shape() != other._shape():
            raise GradeError("dot needs matching grade shapes")
        t = (1 << self.metric.k) - 1
        return self._dot(other, t | t << self.metric.dim)

    def matmul(self, other: "MvMatrix") -> "MvMatrix":
        """Matrix product; contracts self's columns with other's rows."""
        require(other, MvMatrix, self.metric)
        if self.col_grade != other.row_grade:
            raise GradeError(f"cannot contract column grade {self.col_grade} "
                             f"with row grade {other.row_grade}")
        poly = self._poly or other._poly
        out = _contract(self.metric, self._terms, other._terms, poly)
        return MvMatrix._make(self.metric, self.row_grade, other.col_grade, out, poly)

    def __repr__(self) -> str:
        pairs = sorted(self._entries())
        entries = ", ".join(f"w[{','.join(map(str, r))};{','.join(map(str, c))}]*{number_text(v)}"
                            for (r, c), v in pairs)
        return (f"<MvMatrix ({self.metric.k},{self.metric.n}) "
                f"grades ({self.row_grade},{self.col_grade}): {entries or '0'}>")


_put_rows, _put_cols = MvMatrix.row_grade.__set__, MvMatrix.col_grade.__set__


def mat_vec(matrix: MvMatrix, vector: Multivector) -> Multivector:
    """matrix x vector: contracts columns against the vector's blades.

    Equals ``vec_mat(vector, matrix.transpose())``, and runs as that.
    """
    vector = _fit(matrix, vector, "col_grade")
    return _row_times(vector, matrix.transpose())


def vec_mat(vector: Multivector, matrix: MvMatrix) -> Multivector:
    """vector x matrix: contracts the vector against the matrix's rows."""
    return _row_times(_fit(matrix, vector, "row_grade"), matrix)


def _row_times(vector: Multivector, matrix: MvMatrix) -> Multivector:
    """The vector as the matrix entries (0, K) times the matrix: a key moves up by dim."""
    dim, poly = matrix.metric.dim, vector._poly or matrix._poly
    row = {key << dim: c for key, c in vector._terms.items()}
    out = _contract(matrix.metric, row, matrix._terms, poly)
    return Multivector._make(matrix.metric, matrix.col_grade,
                             {key >> dim: c for key, c in out.items()}, poly)


def _stack(metric: Metric, grade: int, rows: list, poly: bool) -> MvMatrix:
    """sum_i e_i (x) rows[i], each row the flat terms of a grade-``grade`` field moved up by dim."""
    dim = metric.dim
    return MvMatrix._make(metric, 1, grade, {1 << i | key << dim: c for i, row in enumerate(rows)
                                             for key, c in row.items()}, poly)


def _fit(matrix: MvMatrix, vector: Multivector, slot: str) -> Multivector:
    """The vector, once both operands are checked: unless the matrix is zero, the
    vector must have the grade of its ``slot`` (``row_grade`` or ``col_grade``)."""
    grade = getattr(matrix, slot) if require(matrix, MvMatrix)._terms else None
    return require(vector, Multivector, matrix.metric, grade, "vector")


def _contract(metric: Metric, left: dict, right: dict, poly: bool) -> dict:
    """{(I, L): sum_K D_KK a b} over flat keys (I, K) of ``left`` and (K, L) of ``right``.

    An output key is left's key without K plus right's without K, so the
    monomial parts add (under ``_guarded`` when ``poly``).  A negative
    product is subtracted; cancelled sums stay as zeros for ``_make``.
    """
    dim = metric.dim
    full, t, by_row = (1 << dim) - 1, (1 << metric.k) - 1, {}
    for key, b in right.items():
        by_row.setdefault(k := key & full, []).append((key - k, b))
    out: dict[int, object] = {}
    for key, a in left.items():
        k = key >> dim & full
        odd, rest = (k & t).bit_count() & 1, key - (k << dim)
        for cols, b in by_row.get(k, ()):
            term = a * b
            acc = out.get(out_key := rest + cols)
            if acc is None:
                out[out_key] = -term if odd else term
            elif odd:
                out[out_key] = acc - term
            else:
                out[out_key] = acc + term
    return _guarded(out, _GUARD[dim] << 2 * dim) if poly else out
