"""Quadratic Lagrangian densities and their Euler-Lagrange equations.

A Lagrangian density here is a finite sum of bilinear dot-product terms

    L = sum_t  c_t * (D1 f1 . D2 f2)

where each slot applies one derivative operator D in {identity, d^, d_|,
dX} to a named field symbol.  Exactly the two differentiation rules

    vderiv(a . a, wrt a) = 2a        vderiv(a . b, wrt a) = b

are needed to differentiate such a density with respect to a slot, and
they make the vector derivative total and exact.  Field equations come
out as formal expressions: rational combinations of operator chains
applied to symbols, which can be rendered as text, serialized, or
evaluated on concrete polynomial fields.

Each chain token (ext, int, lap, tensor) has one ``CHAIN_OPS`` entry
giving its text (d^, d_|, lap, dX), its grade shift (none for the
matrix-valued dX, which stands alone) and its ``calculus`` function.
Slot and chain grades, rendering, evaluation and ``eqdoc`` read that
table, so a new derivative is one new entry.

Two independent routes produce the equations of motion for the single
dynamical symbol a (grade s):

    tensor     vderiv(L, a) = divergence of vderiv(L, dX a)
    exterior   vderiv(L, a) = (-1)^s d_| vderiv(L, d^ a)
                              - (-1)^s d^ vderiv(L, d_| a)

``verify_tensor_exterior_identity`` checks that both routes agree after
substituting random polynomial fields; the tensor side is evaluated
through an explicit slot-matrix chain rule (``tensor_slot_matrix``), not
through the exterior-route formulas, so the comparison is meaningful.

``first_variation`` decomposes the first-order change of L under
a -> a + t*eps into a bulk part (the equation residual dotted with eps)
plus an exact divergence, and the two together recover the t-linear
coefficient of L(a + t*eps) exactly.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import calculus
from .blades import AlgebraError, GradeError, Metric, Multivector, require_same_metric
from .calculus import matrix_divergence
from .indexes import Frozen, Record, _right_rule, _wedge_rule, integer
from .matrices import MvMatrix, mat_vec
from .poly import exact, number_text

ROLES = ("dynamical", "source")


class ChainOp(NamedTuple):
    """One operator-chain token: rendered text, grade shift, calculus function."""

    text: str
    shift: int | None  # None: the value is a matrix, not a field
    function: str  # looked up on calculus per call, so wrappers put there see it


CHAIN_OPS = {
    "ext": ChainOp("d^", 1, "ext_deriv"),
    "int": ChainOp("d_|", -1, "int_deriv"),
    "lap": ChainOp("lap", 0, "laplacian"),
    "tensor": ChainOp("dX", None, "tensor_deriv"),
}

# the tokens whose value is again a field, so they may nest
VECTOR_OPS = tuple(token for token, op in CHAIN_OPS.items() if op.shift is not None)


class DerivOp(enum.Enum):
    """Derivative operator applied inside a Lagrangian slot."""

    ID = ""
    EXT = "ext"
    INT = "int"
    TENSOR = "tensor"

    @property
    def chain(self) -> tuple:
        """The formal operator chain this slot contributes, outermost first."""
        return () if self is DerivOp.ID else (self.value,)


class FieldSymbol(Record):
    """A named multivector field of fixed grade.

    Role "dynamical" marks the field that is varied; "source" fields are
    held fixed (currents, charge densities).
    """

    name: str
    grade: int
    role: str = "dynamical"

    def __post_init__(self):
        if type(self.name) is not str or not self.name or not self.name[0].isalpha() or not all(
            ch.isalnum() or ch == "_" for ch in self.name
        ):
            raise AlgebraError(f"bad field symbol name {self.name!r}")
        if integer(self.grade, f"grade for symbol {self.name!r}") < 0:
            raise GradeError(f"field symbol grade must be nonnegative, got {self.grade}")
        if self.role not in ROLES:
            raise AlgebraError(f"role must be one of {ROLES}, got {self.role!r}")


Slot = tuple  # (DerivOp, FieldSymbol)


def _slot(slot) -> Slot:
    """A (DerivOp, FieldSymbol) pair; the op may also be given by its token."""
    op, sym = slot
    try:
        return DerivOp(op), sym
    except ValueError:
        raise AlgebraError(f"unknown slot operator {op!r}") from None


def _chain_grade(chain: tuple, grade: int):
    """Grade after a chain; a dX chain gets its matrix shape tag instead."""
    for token in chain:
        shift = CHAIN_OPS[token].shift
        if shift is None:
            return ("matrix", 1, grade)
        grade += shift
    return grade


def _slot_grade(slot: Slot):
    op, sym = slot
    grade = _chain_grade(op.chain, sym.grade)
    if grade == -1:
        raise GradeError(f"interior slot needs grade >= 1, got {sym.name} of grade 0")
    return grade


def _chain_value(chain: tuple, sym: FieldSymbol, assignment: Mapping):
    """Run a chain (outermost first) on the field bound to sym, innermost op first."""
    try:
        value = assignment[sym.name]
    except KeyError:
        raise AlgebraError(f"no field value bound to symbol {sym.name!r}") from None
    if value.grade != sym.grade and value._masks:
        raise GradeError(
            f"symbol {sym.name} has grade {sym.grade}, got a grade {value.grade} field"
        )
    for token in reversed(chain):
        value = getattr(calculus, CHAIN_OPS[token].function)(value)
    return value


class LagrangianDensity(Frozen):
    """Sum of rational-coefficient bilinear dot terms in field slots.

    Immutable.  At most one distinct dynamical symbol may appear (the
    field the action is varied with respect to); any number of sources.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple]):
        clean = []
        for coeff, left, right in terms:
            coeff = exact(coeff)
            left, right = _slot(left), _slot(right)
            grades = _slot_grade(left), _slot_grade(right)
            if grades[0] != grades[1]:
                raise GradeError(f"dot product of unequal slot grades: {grades[0]} vs {grades[1]}")
            if coeff:
                clean.append((coeff, left, right))
        object.__setattr__(self, "terms", tuple(clean))
        dyn = {sym for _, l, r in self.terms for _, sym in (l, r) if sym.role == "dynamical"}
        if len(dyn) > 1:
            names = sorted(s.name for s in dyn)
            raise AlgebraError(f"more than one dynamical symbol: {names}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return LagrangianDensity, (self.terms,)

    @property
    def dynamical(self) -> FieldSymbol | None:
        return next((s for _, l, r in self.terms for _, s in (l, r) if s.role == "dynamical"), None)

    def symbols(self) -> dict:
        out: dict[str, FieldSymbol] = {}
        for _, left, right in self.terms:
            for _, sym in (left, right):
                if out.setdefault(sym.name, sym) != sym:
                    raise AlgebraError(f"symbol name {sym.name!r} bound to two fields")
        return out

    def __add__(self, other):
        if not isinstance(other, LagrangianDensity):
            return NotImplemented
        return LagrangianDensity(self.terms + other.terms)

    def __mul__(self, scalar):
        try:
            scalar = exact(scalar)
        except AlgebraError:
            return NotImplemented
        return LagrangianDensity(tuple((scalar * c, l, r) for c, l, r in self.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LagrangianDensity):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def value(self, assignment: Mapping):
        """Evaluate the density on concrete fields; a scalar, exact."""
        total = 0
        for coeff, (lop, lsym), (rop, rsym) in self.terms:
            left = _chain_value(lop.chain, lsym, assignment)
            total = total + coeff * left.dot(_chain_value(rop.chain, rsym, assignment))
        return total

    def __repr__(self):
        parts = []
        for coeff, (lop, lsym), (rop, rsym) in self.terms:
            parts.append(
                f"{coeff}*({lop.value or 'id'} {lsym.name} . {rop.value or 'id'} {rsym.name})"
            )
        return f"<LagrangianDensity {' + '.join(parts) or '0'}>"


class FormalExpr(Frozen):
    """Rational combination of operator chains applied to field symbols.

    Terms are kept in insertion order for stable rendering; equality is
    order-insensitive.  A chain is a tuple of ``CHAIN_OPS`` tokens,
    outermost first; a matrix-valued token ("tensor") may only appear
    alone.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple] = ()):
        clean: dict[tuple, int | Fraction] = {}
        for chain, symbol, coeff in terms:
            chain = tuple(chain)
            for op in chain:
                if op not in CHAIN_OPS:
                    raise AlgebraError(f"unknown operator token {op!r}")
                if op not in VECTOR_OPS and len(chain) > 1:
                    raise AlgebraError(f"{CHAIN_OPS[op].text} may only appear as a standalone chain")
            key = (chain, symbol)
            clean[key] = clean.get(key, 0) + exact(coeff)
        object.__setattr__(self, "terms", {key: c for key, c in clean.items() if c})

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return FormalExpr, ([(*key, coeff) for key, coeff in self.terms.items()],)

    @classmethod
    def zero(cls) -> "FormalExpr":
        return cls()

    @classmethod
    def single(cls, chain, symbol: FieldSymbol, coeff=1) -> "FormalExpr":
        return cls([(chain, symbol, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_matrix(self) -> bool:
        return any(chain and chain[0] not in VECTOR_OPS for chain, _ in self.terms)

    @property
    def grade(self):
        """Common grade of all terms; None when the expression is zero."""
        grades = {_chain_grade(chain, symbol.grade) for chain, symbol in self.terms}
        if not grades:
            return None
        if len(grades) > 1:
            raise GradeError(f"mixed-grade formal expression: {sorted(map(str, grades))}")
        return grades.pop()

    def __add__(self, other):
        if not isinstance(other, FormalExpr):
            return NotImplemented
        merged = [(ch, sym, c) for (ch, sym), c in self.terms.items()]
        merged.extend((ch, sym, c) for (ch, sym), c in other.terms.items())
        return FormalExpr(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        try:
            scalar = exact(scalar)
        except AlgebraError:
            return NotImplemented
        return FormalExpr([(ch, sym, scalar * c) for (ch, sym), c in self.terms.items()])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FormalExpr):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def apply(self, op: str) -> "FormalExpr":
        """Prepend a derivative operator to every chain (outermost position)."""
        if op not in VECTOR_OPS:
            raise AlgebraError(f"cannot apply operator {op!r} to a formal expression")
        if self.is_matrix:
            raise AlgebraError("cannot apply a vector operator to a matrix expression")
        return FormalExpr(
            [((op,) + ch, sym, c) for (ch, sym), c in self.terms.items()]
        )

    def divergence(self) -> "FormalExpr":
        """Matrix divergence of a dX expression: dX folds into lap.

        The divergence of the tensor derivative is the component-wise
        Laplacian, which keeps the result inside the vector chain algebra.
        """
        out = []
        for (chain, sym), c in self.terms.items():
            if chain != ("tensor",):
                raise AlgebraError("divergence expects dX chains only")
            out.append((("lap",), sym, c))
        return FormalExpr(out)

    def evaluate(self, assignment: Mapping, metric: Metric | None = None,
                 grade: int | None = None) -> Multivector:
        """Substitute concrete fields for symbols and run the chains.

        ``metric`` and ``grade`` are only consulted when the expression
        is zero and there is nothing to infer them from.
        """
        if self.is_matrix:
            raise AlgebraError("matrix expression does not evaluate to a field")
        total = None
        for (chain, sym), coeff in self.terms.items():
            value = _chain_value(chain, sym, assignment)
            total = value * coeff if total is None else total + value * coeff
        if total is None:
            if metric is None:
                raise AlgebraError("evaluating a zero expression needs an explicit metric")
            return Multivector.zero(metric, 0 if grade is None else grade)
        return total

    def render(self) -> str:
        """Canonical text, e.g. ``d_| ( d^ A ) + 4 * A``."""
        if not self.terms:
            return "0"
        pieces = []
        for (chain, sym), coeff in self.terms.items():
            body = sym.name
            for op in reversed(chain):
                if " " in body:
                    body = f"( {body} )"
                body = f"{CHAIN_OPS[op].text} {body}"
            mag = abs(coeff)
            text = body if mag == 1 else f"{number_text(mag)} * {body}"
            if not pieces:
                pieces.append(f"-{text}" if coeff < 0 else text)
            else:
                pieces.append(f" - {text}" if coeff < 0 else f" + {text}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<FormalExpr {self.render()}>"


class FieldEquation(Record):
    """Formal equation lhs = rhs between expressions of a common grade."""

    lhs: FormalExpr
    rhs: FormalExpr
    grade: int

    def __post_init__(self):
        for side in (self.lhs, self.rhs):
            g = side.grade
            if g is not None and g != self.grade:
                raise GradeError(f"equation side has grade {g}, expected {self.grade}")

    def residual(self, assignment: Mapping, metric: Metric) -> Multivector:
        """lhs - rhs on concrete fields; zero iff the fields solve the equation."""
        lv = self.lhs.evaluate(assignment, metric, self.grade)
        rv = self.rhs.evaluate(assignment, metric, self.grade)
        return lv - rv

    def render(self) -> str:
        return f"{self.lhs.render()} = {self.rhs.render()}"

    def __str__(self) -> str:
        return self.render()


def vderiv(L: LagrangianDensity, wrt: Slot) -> FormalExpr:
    """Derivative of the density with respect to one slot expression.

    Implements the two product rules (2a for the matched square, b for a
    matched mixed term); slots that do not mention the wrt expression
    contribute nothing.  Only the dynamical symbol may be differentiated.
    """
    op, sym = _slot(wrt)
    if sym.role != "dynamical":
        raise AlgebraError(f"cannot vary source symbol {sym.name!r}")
    out = []
    for coeff, left, right in L.terms:
        lmatch = left == (op, sym)
        rmatch = right == (op, sym)
        if lmatch and rmatch:
            out.append((op.chain, sym, 2 * coeff))
        elif lmatch:
            rop, rsym = right
            out.append((rop.chain, rsym, coeff))
        elif rmatch:
            lop, lsym = left
            out.append((lop.chain, lsym, coeff))
    return FormalExpr(out)


def _dynamical_ops(L: LagrangianDensity) -> tuple[FieldSymbol, set]:
    """The dynamical symbol and the slot operators L applies to it."""
    a = L.dynamical
    if a is None:
        raise AlgebraError("the density has no dynamical symbol to vary")
    return a, {op for _, left, right in L.terms for op, sym in (left, right) if sym == a}


def euler_lagrange(L: LagrangianDensity) -> FieldEquation:
    """Equation of motion by the tensor route exactly when the dynamical
    symbol has a dX slot (a source's dX is never varied), else the exterior one."""
    _, ops = _dynamical_ops(L)
    route = euler_lagrange_tensor if DerivOp.TENSOR in ops else euler_lagrange_exterior
    return route(L)


def euler_lagrange_tensor(L: LagrangianDensity) -> FieldEquation:
    """Equation of motion through the tensor-derivative slot.

    lhs is the explicit vector derivative of L, rhs the matrix divergence
    of the dX-slot derivative.  Only identity and dX slots are allowed;
    densities written with d^ / d_| slots take the exterior route.
    """
    a, ops = _dynamical_ops(L)
    if ops & {DerivOp.EXT, DerivOp.INT}:
        raise AlgebraError(
            "the density mixes the dX slots of the tensor route with the d^/d_| slots of the "
            "exterior route" if DerivOp.TENSOR in ops
            else "tensor route needs identity/dX slots; use euler_lagrange_exterior")
    lhs = vderiv(L, (DerivOp.ID, a))
    rhs = vderiv(L, (DerivOp.TENSOR, a)).divergence()
    return FieldEquation(lhs, rhs, a.grade)


def euler_lagrange_exterior(L: LagrangianDensity) -> FieldEquation:
    """Equation of motion through the d^ / d_| slots.

    With s the grade of the dynamical field,

        vderiv(L, a) = (-1)^s d_| vderiv(L, d^ a) - (-1)^s d^ vderiv(L, d_| a)
    """
    a, ops = _dynamical_ops(L)
    if DerivOp.TENSOR in ops:
        raise AlgebraError("exterior route cannot handle dX slots; use euler_lagrange_tensor")
    sign = -1 if a.grade & 1 else 1
    lhs = vderiv(L, (DerivOp.ID, a))
    rhs = (
        vderiv(L, (DerivOp.EXT, a)).apply("int") * sign
        - vderiv(L, (DerivOp.INT, a)).apply("ext") * sign
    )
    return FieldEquation(lhs, rhs, a.grade)


def tensor_slot_matrix(L: LagrangianDensity, assignment: Mapping) -> MvMatrix:
    """Derivative of L with respect to the tensor derivative of its field.

    Chain rule through the slot expressions: each d^ / d_| / dX slot of
    the dynamical symbol is expanded in the entries of dX a, and the
    other factor of its term is evaluated on the concrete fields.  The
    packaging signs collapse so that the entry at (i, I) is

        ext slot:  coeff * s(i, I) * other_{i+I}           for i not in I
        int slot:  coeff * D_ii * s(I\\i, i) * other_{I\\i}  for i in I
        dX  slot:  coeff * other_{(i), I}

    Used by the first-variation decomposition and as the tensor side of
    the two-route identity check.
    """
    a, _ = _dynamical_ops(L)
    metric = _chain_value((), a, assignment).metric
    out: dict[tuple[int, int], object] = {}

    def add(rows, cols, c):
        out[(rows, cols)] = out.get((rows, cols), 0) + c

    for coeff, left, right in L.terms:
        for mine, other in ((left, right), (right, left)):
            op, sym = mine
            if sym != a or op is DerivOp.ID:
                continue
            other_val = _chain_value(other[0].chain, other[1], assignment)
            require_same_metric(other_val.metric, metric)
            if op is DerivOp.TENSOR:
                for (rows, cols), v in other_val._masks.items():
                    add(rows, cols, coeff * v)
                continue
            # ext: e_K |_ e_i = s(i, K\i) e_{K\i}; int: e_K ^ e_i = s(K, i) e_{K+i}
            rule = _right_rule if op is DerivOp.EXT else _wedge_rule
            for K, vK in other_val._masks.items():
                for i in range(metric.dim):
                    if (hit := rule(K, 1 << i, 0)) is not None:
                        sig = metric.sign(i) if op is DerivOp.INT else 1
                        add(1 << i, hit[1], coeff * (-sig if hit[0] else sig) * vK)
    return MvMatrix._make(metric, 1, a.grade, out.items())


def first_variation(L: LagrangianDensity, a_value: Multivector,
                    eps: Multivector, sources: Mapping | None = None):
    """Split the first-order change of L under a -> a + t*eps.

    Returns (bulk, boundary): bulk is the equation residual dotted with
    eps (a scalar), boundary the vector field whose plain divergence
    completes the t-linear coefficient of L(a + t*eps):

        bulk + int_deriv(boundary) == d/dt L(a + t*eps) at t=0, exactly.
    """
    a, _ = _dynamical_ops(L)
    require_same_metric(a_value.metric, eps.metric)
    if eps.grade != a_value.grade and eps._masks:
        raise GradeError(f"variation grade {eps.grade} does not match field grade {a_value.grade}")
    assignment = dict(sources or {})
    assignment[a.name] = a_value
    B = tensor_slot_matrix(L, assignment)
    explicit = vderiv(L, (DerivOp.ID, a)).evaluate(assignment, a_value.metric, a.grade)
    bulk = (explicit - matrix_divergence(B)).dot(eps)
    boundary = mat_vec(B, eps)
    return bulk, boundary


class IdentityReport(Record):
    """Outcome of a randomized two-route comparison."""

    metric: Metric
    grade: int
    trials: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_tensor_exterior_identity(L: LagrangianDensity, metric: Metric,
                                    fields: Sequence[Mapping]) -> IdentityReport:
    """Check that the exterior and tensor EL routes agree on given fields.

    ``fields`` is a sequence of symbol-name -> concrete-field mappings.
    The exterior side evaluates the formal rhs of euler_lagrange_exterior;
    the tensor side goes through tensor_slot_matrix and the concrete
    matrix divergence.  Disagreements are reported as (k, n, s, index).
    """
    a, _ = _dynamical_ops(L)
    rhs = euler_lagrange_exterior(L).rhs
    bad = []
    for idx, assignment in enumerate(fields):
        exterior = rhs.evaluate(assignment, metric, a.grade)
        tensor = matrix_divergence(tensor_slot_matrix(L, assignment))
        if exterior != tensor:
            bad.append((metric.k, metric.n, a.grade, idx))
    return IdentityReport(metric, a.grade, len(fields), tuple(bad))
