"""Matrix space over basis blades.

A matrix of row grade l and column grade m is a sparse sum of tensor
bases w_{I,J} = e_I (x) e_J with |I| = l, |J| = m.  Products contract
through the metric sign of the shared list:

    w_{I1,I2} . w_{J1,J2} = D_I1J1 D_I2J2          (Frobenius scalar)
    w_{I,J} x w_{K,L}     = D_JK w_{I,L}
    w_{I,J} x e_K         = e_K x w_{J,I} = D_JK e_I

The identity of grade l is sum_I D_II w_{I,I}.  There is no matrix
inverse here; only the products above are defined.
"""

from __future__ import annotations

from typing import Mapping

from .blades import _MASK, AlgebraError, GradeError, Metric, Multivector
from .indexes import as_tuple, check_canonical, integer, term_items
from .poly import PolyScalar, _exact_terms, coefficient


class MvMatrix:
    """Sparse matrix over blade tensor bases, exact coefficients; ``terms`` is a view."""

    __slots__ = ("metric", "row_grade", "col_grade", "_terms")

    def __init__(
        self,
        metric: Metric,
        row_grade: int,
        col_grade: int,
        terms: Mapping[tuple, object] | None = None,
    ):
        integer(row_grade, "row grade")
        integer(col_grade, "column grade")
        clean: dict[tuple, object] = {}
        for key, coeff in term_items(terms):
            if type(key) is not tuple or len(key) != 2:
                raise AlgebraError(f"bad matrix key {key!r}: expected a (rows, cols) pair")
            rows, cols = as_tuple(key[0], "row index list"), as_tuple(key[1], "column index list")
            check_canonical(rows, metric.dim)
            check_canonical(cols, metric.dim)
            coeff = coefficient(coeff, metric.dim)
            if coeff:
                clean[(rows, cols)] = coeff
        if clean:
            for grade in (row_grade, col_grade):
                if not 0 <= grade <= metric.dim:
                    raise GradeError(f"grade {grade} out of range")
            for rows, cols in clean:
                if len(rows) != row_grade or len(cols) != col_grade:
                    raise GradeError(
                        f"entry ({rows!r},{cols!r}) does not have grades "
                        f"({row_grade},{col_grade})"
                    )
        object.__setattr__(self, "metric", metric)
        object.__setattr__(self, "row_grade", row_grade)
        object.__setattr__(self, "col_grade", col_grade)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MvMatrix is immutable")

    @classmethod
    def _make(cls, metric: Metric, row_grade: int, col_grade: int, items) -> "MvMatrix":
        """Trusted builder from ((rows, cols), coeff) pairs of the given grades built here."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "metric", metric)
        object.__setattr__(matrix, "row_grade", row_grade)
        object.__setattr__(matrix, "col_grade", col_grade)
        object.__setattr__(matrix, "_terms", _exact_terms(items))
        return matrix

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
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def entry(self, rows, cols):
        rows, cols = as_tuple(rows, "row index list"), as_tuple(cols, "column index list")
        check_canonical(rows, self.metric.dim)
        check_canonical(cols, self.metric.dim)
        return self._terms.get((rows, cols), 0)

    def _require_same_space(self, other: "MvMatrix") -> None:
        if not isinstance(other, MvMatrix):
            raise AlgebraError(f"expected an MvMatrix, got {type(other).__name__}")
        if other.metric is not self.metric and other.metric != self.metric:
            raise AlgebraError("mixed metrics")

    def __add__(self, other):
        self._require_same_space(other)
        shapes_differ = (self.row_grade, self.col_grade) != (other.row_grade, other.col_grade)
        if shapes_differ and self._terms and other._terms:
            raise GradeError("cannot add matrices of different grade shapes")
        if self._terms or not other._terms:
            row_grade, col_grade = self.row_grade, self.col_grade
        else:
            row_grade, col_grade = other.row_grade, other.col_grade
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, 0) + coeff
        return MvMatrix._make(self.metric, row_grade, col_grade, out.items())

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MvMatrix._make(self.metric, self.row_grade, self.col_grade,
                              ((k, -c) for k, c in self._terms.items()))

    def __mul__(self, scalar):
        try:
            scalar = coefficient(scalar, self.metric.dim)
        except AlgebraError:
            if isinstance(scalar, PolyScalar):
                raise
            return NotImplemented
        return MvMatrix._make(self.metric, self.row_grade, self.col_grade,
                              ((k, scalar * c) for k, c in self._terms.items()))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, MvMatrix):
            return NotImplemented
        if self.metric is not other.metric and self.metric != other.metric:
            return False
        if not self._terms and not other._terms:
            return True
        return (
            self.row_grade == other.row_grade
            and self.col_grade == other.col_grade
            and self._terms == other._terms
        )

    __hash__ = None

    def transpose(self) -> "MvMatrix":
        return MvMatrix._make(self.metric, self.col_grade, self.row_grade,
                              (((cols, rows), c) for (rows, cols), c in self._terms.items()))

    def dot(self, other: "MvMatrix"):
        """Frobenius scalar product; requires matching grade shapes."""
        self._require_same_space(other)
        if (self.row_grade, self.col_grade) != (other.row_grade, other.col_grade):
            raise GradeError("dot needs matching grade shapes")
        total = 0
        for (rows, cols), coeff in self._terms.items():
            oc = other._terms.get((rows, cols))
            if oc is not None:
                total = total + self.metric.sign_of(rows) * self.metric.sign_of(cols) * coeff * oc
        return total

    def matmul(self, other: "MvMatrix") -> "MvMatrix":
        """Matrix product; contracts self's columns with other's rows."""
        self._require_same_space(other)
        if self.col_grade != other.row_grade:
            raise GradeError(
                f"cannot contract column grade {self.col_grade} "
                f"with row grade {other.row_grade}"
            )
        out: dict[tuple, object] = {}
        for (ra, ca), va in self._terms.items():
            delta = self.metric.sign_of(ca)
            for (rb, cb), vb in other._terms.items():
                if ca != rb:
                    continue
                key = (ra, cb)
                out[key] = out.get(key, 0) + delta * va * vb
        return MvMatrix._make(self.metric, self.row_grade, other.col_grade, out.items())

    def __repr__(self) -> str:
        entries = ", ".join(
            f"w[{','.join(map(str, r))};{','.join(map(str, c))}]*{v}"
            for (r, c), v in sorted(self._terms.items())
        )
        return (
            f"<MvMatrix ({self.metric.k},{self.metric.n}) "
            f"grades ({self.row_grade},{self.col_grade}): {entries or '0'}>"
        )


def mat_vec(matrix: MvMatrix, vector: Multivector) -> Multivector:
    """matrix x vector: contracts columns against the vector's blades."""
    if matrix.metric is not vector.metric and matrix.metric != vector.metric:
        raise AlgebraError("mixed metrics")
    if matrix.col_grade != vector.grade and matrix._terms and vector._masks:
        raise GradeError(
            f"cannot contract column grade {matrix.col_grade} with grade {vector.grade}"
        )
    out: dict[int, object] = {}
    for (rows, cols), coeff in matrix._terms.items():
        vc = vector._masks.get(_MASK[cols])
        if vc is None:
            continue
        out[_MASK[rows]] = out.get(_MASK[rows], 0) + matrix.metric.sign_of(cols) * coeff * vc
    return Multivector._make(matrix.metric, matrix.row_grade, out.items())


def vec_mat(vector: Multivector, matrix: MvMatrix) -> Multivector:
    """vector x matrix: contracts the vector against the matrix's rows.

    Equals ``mat_vec(matrix.transpose(), vector)``.
    """
    if matrix.metric is not vector.metric and matrix.metric != vector.metric:
        raise AlgebraError("mixed metrics")
    if matrix.row_grade != vector.grade and matrix._terms and vector._masks:
        raise GradeError(
            f"cannot contract row grade {matrix.row_grade} with grade {vector.grade}"
        )
    out: dict[int, object] = {}
    for (rows, cols), coeff in matrix._terms.items():
        vc = vector._masks.get(_MASK[rows])
        if vc is None:
            continue
        out[_MASK[cols]] = out.get(_MASK[cols], 0) + matrix.metric.sign_of(rows) * coeff * vc
    return Multivector._make(matrix.metric, matrix.col_grade, out.items())
