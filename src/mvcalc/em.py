"""Generalized electromagnetic theory on top of the variational engine.

A grade-r field F derives from a grade-(r-1) potential A through
F = d^ A, and the quadratic density

    L = (-1)^(r-1)/2 (d^ A . d^ A) + (J . A)
        - m^2/2 (A . A)                          [Proca, optional]
        + (-1)^(r-1)/(2 xi) (d_| A . d_| A)      [gauge fixing, optional]

yields, after moving terms to their conventional sides,

    d_| ( d^ A ) + m^2 A = J + 1/xi * d^ ( d_| A ).

With m = 0 and no gauge-fixing term this is d_| ( d^ A ) = J; combining
the two second-derivative chains through the Laplacian splitting
identity gives the wave form

    (-1)^(r-1) lap A + m^2 A = J + (1/xi - 1) * d^ ( d_| A ).

The dual theory swaps the roles of the derivatives: a grade-s potential
with F = d_| Abar, density (-1)^(s-1)/2 (d_| Abar)^2 + (Jbar . Abar),
equation Jbar = d^ ( d_| Abar ), homogeneous companion d_| Fbar = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .blades import AlgebraError, GradeError, Metric, Multivector, require
from .calculus import check_laplacian_splitting, ext_deriv, int_deriv
from .indexes import Record, integer
from .poly import PolyScalar, exact
from .variational import (
    DerivOp,
    FieldEquation,
    FieldSymbol,
    FormalExpr,
    LagrangianDensity,
    _pair_key,
    euler_lagrange_exterior,
)


class MaxwellConfig(Record):
    """Parameters of a generalized Maxwell theory.

    r is the grade of the field F = d^ A (so the potential has grade
    r-1), mass the Proca parameter m (0 disables the term), xi the
    gauge-fixing parameter (None disables the term; requires r >= 2
    because d_| A vanishes identically on a grade-0 potential).
    """

    metric: Metric
    r: int
    mass: int | Fraction = 0
    xi: int | Fraction | None = None

    def __post_init__(self):
        if not 1 <= integer(self.r, "field grade r") <= require(self.metric, Metric).dim:
            raise GradeError(f"field grade r={self.r} not in [1, {self.metric.dim}]")
        object.__setattr__(self, "mass", exact(self.mass))
        if self.mass < 0:
            raise AlgebraError(f"mass must be nonnegative, got {self.mass}")
        if self.xi is not None:
            object.__setattr__(self, "xi", exact(self.xi))
            if self.xi <= 0:
                raise AlgebraError(f"xi must be positive, got {self.xi}")
            if self.r == 1:
                raise GradeError("gauge fixing needs a potential of grade >= 1 (r >= 2)")


def _front_sign(grade_plus_one: int) -> int:
    """(-1)^(r-1), r = grade_plus_one."""
    return -1 if (grade_plus_one - 1) & 1 else 1


def field_from_potential(potential: Multivector) -> Multivector:
    """F = d^ A; the grade goes up by one."""
    return ext_deriv(potential)


def _density(terms: list) -> LagrangianDensity:
    """A density of checked terms on distinct slot pairs, built by ``_make``, then ``_checked``."""
    density = LagrangianDensity._make({_pair_key(left, right): c for c, left, right in terms})
    return density._checked()


def build_lagrangian(cfg: MaxwellConfig, field_name: str = "A",
                     source_name: str = "J") -> LagrangianDensity:
    """The quadratic density for cfg, with the documented coefficients."""
    A = FieldSymbol(field_name, require(cfg, MaxwellConfig).r - 1, "dynamical")
    J = FieldSymbol(source_name, cfg.r - 1, "source")
    sign = _front_sign(cfg.r)
    terms = [
        (Fraction(sign, 2), (DerivOp.EXT, A), (DerivOp.EXT, A)),
        (1, (DerivOp.ID, J), (DerivOp.ID, A)),
    ]
    if cfg.mass:
        terms.append((Fraction(-cfg.mass * cfg.mass, 2), (DerivOp.ID, A), (DerivOp.ID, A)))
    if cfg.xi is not None:
        terms.append((Fraction(sign, 2 * cfg.xi), (DerivOp.INT, A), (DerivOp.INT, A)))
    return _density(terms)


def derive_equations(cfg: MaxwellConfig, field_name: str = "A",
                     source_name: str = "J") -> FieldEquation:
    """Euler-Lagrange equation of cfg, arranged on conventional sides.

    The raw variational output puts every explicit term on the left and
    every derivative chain on the right; here the d_| ( d^ A ) chain and
    the mass term move left, sources and the gauge-fixing chain right:

        d_| ( d^ A ) + m^2 A = J + 1/xi * d^ ( d_| A )
    """
    L = build_lagrangian(cfg, field_name, source_name)
    raw = euler_lagrange_exterior(L)
    # raw.lhs chains are a slot's (length 0 or 1) and raw.rhs chains have length 2: keys stay distinct
    lhs = [(key, c) for key, c in raw.rhs._terms.items() if key[0] == ("int", "ext")]
    lhs += [(key, -c) for key, c in raw.lhs._terms.items() if key[1].role == "dynamical"]
    rhs = [(key, c) for key, c in raw.lhs._terms.items() if key[1].role != "dynamical"]
    rhs += [(key, -c) for key, c in raw.rhs._terms.items() if key[0] != ("int", "ext")]
    return FieldEquation(FormalExpr._make(dict(lhs)), FormalExpr._make(dict(rhs)), cfg.r - 1)


def wave_form(cfg: MaxwellConfig, field_name: str = "A",
              source_name: str = "J") -> FieldEquation:
    """Rewrite the derived equation as a wave equation.

    Requires the gauge-fixing term: the rewrite merges d_| ( d^ A ) with
    d^ ( d_| A ) through the splitting identity

        d_| ( d^ a ) - d^ ( d_| a ) = (-1)^gr(a) lap a,

    which is re-verified symbolically for this metric and grade before
    use; if the check fails the rewrite refuses rather than emit an
    unsound equation.
    """
    if require(cfg, MaxwellConfig).xi is None:
        raise AlgebraError("wave form needs the gauge-fixing term; set xi")
    from .randgen import field_cases, rng_for  # only here, so that derive never loads random

    s = cfg.r - 1
    rng = rng_for(0, f"wave-splitting:{cfg.metric.k}:{cfg.metric.n}:{s}")
    probes = field_cases(rng, cfg.metric, s, 6)
    if not check_laplacian_splitting(cfg.metric, s, probes):
        raise AlgebraError(
            f"laplacian splitting identity failed for metric "
            f"({cfg.metric.k},{cfg.metric.n}) grade {s}; wave rewrite would be unsound"
        )
    A = FieldSymbol(field_name, s, "dynamical")
    J = FieldSymbol(source_name, s, "source")
    lhs = FormalExpr._make({(("lap",), A): _front_sign(cfg.r), ((), A): cfg.mass * cfg.mass})
    rhs = FormalExpr._make({((), J): 1, (("ext", "int"), A): Fraction(1, cfg.xi) - 1})
    return FieldEquation(lhs, rhs, s)


def _is_constant(field: Multivector) -> bool:
    return all(not isinstance(c, PolyScalar) or c.is_constant() for c in field._terms.values())


def gauge_transform(A: Multivector, Abar: Multivector,
                    G: Multivector | None = None) -> Multivector:
    """A' = A + Abar + d^ G; leaves F = d^ A unchanged.

    Abar must be a constant field of the potential's grade; G, when
    given, sits one grade below (absent entirely for grade-0 potentials).
    """
    require(Abar, metric=require(A).metric, grade=A.grade, what="gauge offset")
    if not _is_constant(Abar):
        raise AlgebraError("gauge offset must be a constant field")
    out = A + Abar
    if G is not None:
        if A.grade < 1:
            raise GradeError("grade-0 potentials admit no d^ G term")
        require(G, metric=A.metric, grade=A.grade - 1, what="gauge function")
        out = out + ext_deriv(G)
    return out


def homogeneous_check(F: Multivector) -> bool:
    """True iff d^ F vanishes identically (automatic for F = d^ A)."""
    return ext_deriv(F).is_zero()


def build_dual_lagrangian(s: int, potential_name: str = "Abar",
                          source_name: str = "Jbar") -> LagrangianDensity:
    """Density of the dual theory for a grade-s potential."""
    if integer(s, "dual potential grade s") < 1:
        raise GradeError(f"dual potential grade must be >= 1, got {s}")
    Abar = FieldSymbol(potential_name, s, "dynamical")
    Jbar = FieldSymbol(source_name, s, "source")
    return _density([
        (Fraction(_front_sign(s), 2), (DerivOp.INT, Abar), (DerivOp.INT, Abar)),
        (1, (DerivOp.ID, Jbar), (DerivOp.ID, Abar)),
    ])


def dual_theory(metric: Metric, s: int, potential_name: str = "Abar",
                source_name: str = "Jbar", field_name: str = "Fbar"):
    """Equations of the dual theory: (nonhomogeneous, homogeneous).

    The field is Fbar = d_| Abar of grade s-1; varying the dual density
    gives Jbar = d^ ( d_| Abar ) = d^ Fbar, and d_| Fbar = 0 holds
    identically because the interior derivative is nilpotent.
    """
    if not 1 <= integer(s, "dual potential grade s") <= require(metric, Metric).dim:
        raise GradeError(f"dual potential grade s={s} not in [1, {metric.dim}]")
    L = build_dual_lagrangian(s, potential_name, source_name)
    nonhomog = euler_lagrange_exterior(L)
    Fbar = FieldSymbol(field_name, s - 1, "source")
    homog = FieldEquation(FormalExpr._make({(("int",), Fbar): 1}), FormalExpr.zero(), s - 2)
    return nonhomog, homog


def dual_field(Abar: Multivector) -> Multivector:
    """Fbar = d_| Abar; the grade goes down by one."""
    return int_deriv(Abar)


def dual_gauge_check(Abar: Multivector) -> bool:
    """Lorenz-type gauge condition of the dual theory: d^ Abar = 0."""
    return ext_deriv(Abar).is_zero()


def polarization_count(k: int, n: int, r: int) -> int:
    """Independent polarizations of a grade-r field in (k,n) space-time."""
    if integer(k, "k") < 1 or integer(n, "n") < 1:
        raise AlgebraError("polarization counting needs k >= 1 and n >= 1")
    if not 1 <= integer(r, "field grade r") <= k + n:
        raise GradeError(f"field grade r={r} not in [1, {k + n}]")
    return math.comb(k + n - 2, r - 1)
