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
evaluated on concrete polynomial fields.  Densities and expressions take
their linear rules from ``poly._Linear`` with its default hooks: only their
constructors validate, and every derived result is built by ``_make``.

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
substituting random polynomial fields.  The tensor side is the chain rule
of ``tensor_slot_matrix``, whose d^ and d_| slots run on the blade product
kernel (rows W |_ e^i and W ^ e^i); the exterior side runs d^ and d_| on
their own step tables, so the comparison is meaningful.

``first_variation`` decomposes the first-order change of L under
a -> a + t*eps into a bulk part (the equation residual dotted with eps)
plus an exact divergence, and the two together recover the t-linear
coefficient of L(a + t*eps) exactly.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from . import calculus
from .blades import AlgebraError, GradeError, Metric, Multivector, require
from .calculus import matrix_divergence
from .indexes import Record, as_tuple, integer
from .matrices import MvMatrix, _stack, mat_vec
from .poly import _exact_terms, _Linear, _put_terms, exact, number_text, signed_sum

ROLES = ("dynamical", "source")


class ChainOp(Record):
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


def _symbol_table(symbols: Iterable[FieldSymbol]) -> dict[str, FieldSymbol]:
    """Name -> symbol; AlgebraError when one name is bound to two fields."""
    out: dict[str, FieldSymbol] = {}
    for sym in symbols:
        if out.setdefault(sym.name, sym) != sym:
            raise AlgebraError(f"symbol name {sym.name!r} bound to two fields")
    return out


def _slot(slot) -> Slot:
    """A (DerivOp, FieldSymbol) pair; the op may also be given by its token."""
    try:
        op, sym = slot
    except (TypeError, ValueError):
        sym = None
    if not isinstance(sym, FieldSymbol):
        raise AlgebraError(f"a slot is an (operator, FieldSymbol) pair, got {slot!r}")
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


def _pair_key(left: Slot, right: Slot) -> tuple:
    """A density key: the slot pair in symbol-name order."""
    return (left, right) if left[1].name <= right[1].name else (right, left)


def _triples(terms, what: str, shape: str):
    """The terms of a constructor as triples; AlgebraError for a malformed ``terms``."""
    try:
        terms = iter(terms)
    except TypeError:
        raise AlgebraError(f"{what} terms must be iterable, got {type(terms).__name__}") from None
    for term in terms:
        try:
            first, second, third = term
        except (TypeError, ValueError):
            raise AlgebraError(f"a {what} term is {shape}, got {term!r}") from None
        yield first, second, third


def _chain_value(chain: tuple, sym: FieldSymbol, assignment: Mapping, metric: Metric | None = None):
    """Run a chain (outermost first) on the field bound to sym, innermost op first;
    the field must lie on ``metric`` when it is given."""
    try:
        value = assignment[sym.name]
    except KeyError:
        raise AlgebraError(f"no field value bound to symbol {sym.name!r}") from None
    require(value, Multivector, metric, sym.grade, f"field of symbol {sym.name}")
    for token in reversed(chain):
        value = getattr(calculus, CHAIN_OPS[token].function)(value)
    return value


class LagrangianDensity(_Linear):
    """Sum of rational-coefficient bilinear dot terms in field slots.

    Immutable.  A key is an unordered slot pair, its slots in symbol-name
    order (two slots of one symbol differ in grade, so such a pair is a
    square); like terms merge.  After merging, each name is bound to one
    field, and at most one dynamical symbol may appear (the field the
    action is varied with respect to); any number of sources.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple]):
        merged: dict[tuple, int | Fraction] = {}
        for coeff, left, right in _triples(terms, "density", "(coeff, slot, slot)"):
            coeff = exact(coeff)
            left, right = _slot(left), _slot(right)
            grades = _slot_grade(left), _slot_grade(right)
            if grades[0] != grades[1]:
                raise GradeError(f"dot product of unequal slot grades: {grades[0]} vs {grades[1]}")
            key = _pair_key(left, right)
            merged[key] = merged.get(key, 0) + coeff
        _put_terms(self, _exact_terms(merged))
        self._checked()

    def _checked(self) -> "LagrangianDensity":
        """self, or AlgebraError when a name is bound to two fields or two symbols are dynamical."""
        dyn = [s.name for s in self.symbols().values() if s.role == "dynamical"]
        if len(dyn) > 1:
            raise AlgebraError(f"more than one dynamical symbol: {sorted(dyn)}")
        return self

    def __add__(self, other, negate=False):  # a sum or difference can bring a conflicting symbol
        total = _Linear.__add__(self, other, negate)
        return total if total is NotImplemented else total._checked()

    @property
    def terms(self) -> tuple:
        """A new tuple of (coeff, left slot, right slot), one per slot pair."""
        return tuple((c, left, right) for (left, right), c in self._terms.items())

    @property
    def dynamical(self) -> FieldSymbol | None:
        return next((s for pair in self._terms for _, s in pair if s.role == "dynamical"), None)

    def symbols(self) -> dict:
        return _symbol_table(sym for pair in self._terms for _, sym in pair)

    def value(self, assignment: Mapping):
        """Evaluate the density on concrete fields; a scalar, exact."""
        require(assignment, Mapping)
        total = None  # the first term starts the sum: 0 + a polynomial would copy it
        for ((lop, lsym), (rop, rsym)), coeff in self._terms.items():
            left = _chain_value(lop.chain, lsym, assignment)
            term = coeff * left.dot(_chain_value(rop.chain, rsym, assignment))
            total = term if total is None else total + term
        return 0 if total is None else total

    def __repr__(self):
        parts = [f"{coeff}*({lop.value or 'id'} {lsym.name} . {rop.value or 'id'} {rsym.name})"
                 for ((lop, lsym), (rop, rsym)), coeff in self._terms.items()]
        return f"<LagrangianDensity {' + '.join(parts) or '0'}>"


class FormalExpr(_Linear):
    """Rational combination of operator chains applied to field symbols.

    A key is (chain, symbol); terms are kept in insertion order for stable
    rendering, and ``terms`` is a new dict on each access.  A chain is a
    tuple of ``CHAIN_OPS`` tokens, outermost first; a matrix-valued token
    ("tensor") may only appear alone.
    """

    __slots__ = ()

    def __init__(self, terms: Iterable[tuple] = ()):
        clean: dict[tuple, int | Fraction] = {}
        for chain, symbol, coeff in _triples(terms, "formal expression", "(chain, symbol, coeff)"):
            chain = as_tuple(chain, "operator chain")
            require(symbol, FieldSymbol)
            for op in chain:
                if type(op) is not str or op not in CHAIN_OPS:
                    raise AlgebraError(f"unknown operator token {op!r}")
                if op not in VECTOR_OPS and len(chain) > 1:
                    raise AlgebraError(f"{CHAIN_OPS[op].text} may only appear as a standalone chain")
            key = (chain, symbol)
            clean[key] = clean.get(key, 0) + exact(coeff)
        _put_terms(self, _exact_terms(clean))

    @classmethod
    def zero(cls) -> "FormalExpr":
        return cls._make({})

    @classmethod
    def single(cls, chain, symbol: FieldSymbol, coeff=1) -> "FormalExpr":
        return cls([(chain, symbol, coeff)])

    @property
    def is_matrix(self) -> bool:
        return any(chain and chain[0] not in VECTOR_OPS for chain, _ in self._terms)

    @property
    def grade(self):
        """Common grade of all terms; None when the expression is zero."""
        grades = {_chain_grade(chain, symbol.grade) for chain, symbol in self._terms}
        if not grades:
            return None
        if len(grades) > 1:
            raise GradeError(f"mixed-grade formal expression: {sorted(map(str, grades))}")
        return grades.pop()

    def apply(self, op: str) -> "FormalExpr":
        """Prepend a derivative operator to every chain (outermost position)."""
        if op not in VECTOR_OPS:
            raise AlgebraError(f"cannot apply operator {op!r} to a formal expression")
        if self.is_matrix:
            raise AlgebraError("cannot apply a vector operator to a matrix expression")
        return FormalExpr._make({((op,) + ch, sym): c for (ch, sym), c in self._terms.items()})

    def divergence(self) -> "FormalExpr":
        """Matrix divergence of a dX expression: dX folds into lap.

        The divergence of the tensor derivative is the component-wise
        Laplacian, which keeps the result inside the vector chain algebra.
        """
        if any(chain != ("tensor",) for chain, _ in self._terms):
            raise AlgebraError("divergence expects dX chains only")
        return FormalExpr._make({(("lap",), sym): c for (_, sym), c in self._terms.items()})

    def evaluate(self, assignment: Mapping, metric: Metric | None = None,
                 grade: int | None = None) -> Multivector:
        """Substitute concrete fields for symbols and run the chains.

        ``metric`` and ``grade`` are only consulted when the expression
        is zero and there is nothing to infer them from.
        """
        require(assignment, Mapping)
        if self.is_matrix:
            raise AlgebraError("matrix expression does not evaluate to a field")
        total = None
        for (chain, sym), coeff in self._terms.items():
            value = _chain_value(chain, sym, assignment)
            total = value * coeff if total is None else total + value * coeff
        if total is None:
            if metric is None:
                raise AlgebraError("evaluating a zero expression needs an explicit metric")
            return Multivector.zero(metric, 0 if grade is None else grade)
        return total

    def render(self) -> str:
        """Canonical text, e.g. ``d_| ( d^ A ) + 4 * A``."""
        pieces = []
        for (chain, sym), coeff in self._terms.items():
            body = sym.name
            for op in reversed(chain):
                if " " in body:
                    body = f"( {body} )"
                body = f"{CHAIN_OPS[op].text} {body}"
            mag = abs(coeff)
            pieces.append((coeff < 0, body if mag == 1 else f"{number_text(mag)} * {body}"))
        return signed_sum(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<FormalExpr {self.render()}>"


class FieldEquation(Record):
    """Formal equation lhs = rhs between expressions of a common grade."""

    lhs: FormalExpr
    rhs: FormalExpr
    grade: int

    def __post_init__(self):  # the grade is an int or the ("matrix", 1, g) tag of dX sides
        g = self.grade
        integer(g[2] if type(g) is tuple and g[:-1] == ("matrix", 1) else g, "equation grade")
        for side in (self.lhs, self.rhs):
            require(side, FormalExpr, grade=self.grade, what="equation side")

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
    op, sym = wrt = _slot(wrt)
    if sym.role != "dynamical":
        raise AlgebraError(f"cannot vary source symbol {sym.name!r}")
    out = {}  # distinct pairs holding wrt have distinct partners, so the keys are distinct
    for (left, right), coeff in require(L, LagrangianDensity)._terms.items():
        if left == wrt:  # the partner, doubled for the square
            out[right[0].chain, right[1]] = 2 * coeff if right == wrt else coeff
        elif right == wrt:
            out[left[0].chain, left[1]] = coeff
    return FormalExpr._make(out)


def _dynamical_ops(L: LagrangianDensity) -> tuple[FieldSymbol, set]:
    """The dynamical symbol and the slot operators L applies to it."""
    a = require(L, LagrangianDensity).dynamical
    if a is None:
        raise AlgebraError("the density has no dynamical symbol to vary")
    return a, {op for pair in L._terms for op, sym in pair if sym == a}


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
    partner W, the other factor of its term, is evaluated on the concrete
    fields.  With e^i = D_ii e_i the reciprocal frame, the row e_i of a
    slot is coeff times

        ext slot:  W |_ e^i       entry (i, I): s(i, I) W_{i+I}          for i not in I
        int slot:  W ^ e^i        entry (i, I): D_ii s(I\\i, i) W_{I\\i}  for i in I
        dX  slot:  row i of W     entry (i, I): W_{(i), I}

    each product the engine's own.  Each slot is one matrix and ``+`` sums
    them.  Used by the first-variation decomposition and as the tensor side
    of the two-route identity check.
    """
    a, _ = _dynamical_ops(L)
    metric = _chain_value((), a, require(assignment, Mapping)).metric
    frame = [Multivector.blade(metric, (i,), metric.sign(i)) for i in range(metric.dim)]
    total = MvMatrix._make(metric, 1, a.grade, {})
    for (left, right), coeff in L._terms.items():
        for (op, sym), other in ((left, right), (right, left)):
            if sym != a or op is DerivOp.ID:
                continue
            value = _chain_value(other[0].chain, other[1], assignment, metric)
            if op is not DerivOp.TENSOR:
                product = Multivector.right_contract if op is DerivOp.EXT else Multivector.wedge
                value = _stack(metric, a.grade, [product(value, e)._terms for e in frame],
                               value._poly)
            total = total + value * coeff
    return total


def first_variation(L: LagrangianDensity, a_value: Multivector,
                    eps: Multivector, sources: Mapping | None = None):
    """Split the first-order change of L under a -> a + t*eps.

    Returns (bulk, boundary): bulk is the equation residual dotted with
    eps (a scalar), boundary the vector field whose plain divergence
    completes the t-linear coefficient of L(a + t*eps):

        bulk + int_deriv(boundary) == d/dt L(a + t*eps) at t=0, exactly.
    """
    a, _ = _dynamical_ops(L)
    require(eps, metric=require(a_value).metric, grade=a_value.grade, what="variation")
    assignment = {} if sources is None else dict(require(sources, Mapping))
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
    The exterior side evaluates the formal rhs of euler_lagrange_exterior,
    whose d^ and d_| run on ``calculus``'s step tables; the tensor side is
    the matrix divergence of tensor_slot_matrix, whose rows run through the
    product kernel.  Disagreements are reported as (k, n, s, index).
    """
    a, _ = _dynamical_ops(L)
    require(metric, Metric)
    rhs = euler_lagrange_exterior(L).rhs
    bad = []
    for idx, assignment in enumerate(require(fields, Iterable)):
        for value in require(assignment, Mapping).values():
            require(value, Multivector, metric)
        exterior = rhs.evaluate(assignment, metric, a.grade)
        tensor = matrix_divergence(tensor_slot_matrix(L, assignment))
        if exterior != tensor:
            bad.append((metric.k, metric.n, a.grade, idx))
    return IdentityReport(metric, a.grade, len(fields), tuple(bad))
