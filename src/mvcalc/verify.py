"""Property suites behind the ``verify`` subcommand.

Each property is a generator of (case label, ok) pairs; the runner
counts cases and failures and keeps the first failing label.  Checks
come in two flavours: exhaustive sweeps over small dimensions, and
randomized sweeps driven by a generator keyed to (seed, suite/name),
so a report is reproducible from its seed alone.

A label is a tuple ``(template, *values)``, the template with bare ``{}``
fields only, and the runner formats just the label a report shows.  It is
a tuple, not a closure, so that its values are taken at the yield, before
the generator's loop variables move on; no value is mutated after it.

The exhaustive sweeps share their loops: ``_unit_blades`` yields each
metric split with its unit blades, each built once per split;
``_blade_pairs`` yields every ordered pair of them with its case label;
``_index_partitions`` yields every way to deal range(dim) into index
lists.  The identities over the random battery fields are each one
predicate, turned into a property by ``_field_identity``.

The reference implementations here are deliberately independent of the
code under test: permutation signs are recomputed by explicit swap
counting, and variational derivatives are recomputed from symmetric
differences of the density, which are exact for quadratic densities.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction

from .blades import AlgebraError, GradeError, Metric, Multivector
from .calculus import (
    check_laplacian_splitting,
    divergence_scalar,
    directional_deriv,
    ext_deriv,
    int_deriv,
    laplacian,
    matrix_divergence,
    right_int_deriv,
    tensor_deriv,
)
from .em import (
    MaxwellConfig,
    build_dual_lagrangian,
    build_lagrangian,
    derive_equations,
    dual_field,
    dual_theory,
    gauge_transform,
    polarization_count,
    wave_form,
)
from .indexes import Record, complement, integer, merge_signature, sort_signature
from .matrices import MvMatrix, mat_vec, vec_mat
from .poly import PolyScalar, partial
from .randgen import (
    field_cases,
    random_constant_field,
    random_field,
    random_matrix_field,
    rng_for,
)
from .variational import (
    DerivOp,
    FieldEquation,
    FieldSymbol,
    FormalExpr,
    LagrangianDensity,
    euler_lagrange_exterior,
    euler_lagrange_tensor,
    first_variation,
    vderiv,
    verify_tensor_exterior_identity,
)

BATTERY_METRICS = (Metric(0, 3), Metric(1, 1), Metric(1, 3), Metric(2, 2))

_SMALL = (-3, -2, -1, 1, 2, 3)


class PropertyOutcome(Record):
    """One property's case and failure counts, with its first failing label."""

    suite: str
    name: str
    cases: int
    failures: int
    first_counterexample: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


# -- shared helpers ---------------------------------------------------------


def transposition_parity(raw) -> tuple[int, tuple]:
    """Permutation sign by explicit swap counting; the slow oracle."""
    items = list(raw)
    if len(set(items)) != len(items):
        return 0, ()
    sign = 1
    for i in range(len(items)):
        low = min(range(i, len(items)), key=items.__getitem__)
        if low != i:
            items[i], items[low] = items[low], items[i]
            sign = -sign
    return sign, tuple(items)


def _metric_splits(max_dim: int) -> Iterator[Metric]:
    for dim in range(1, max_dim + 1):
        for k in range(dim + 1):
            yield Metric(k, dim - k)


def _subsets(dim: int) -> list[tuple]:
    return [
        indices
        for size in range(dim + 1)
        for indices in itertools.combinations(range(dim), size)
    ]


def _unit_blades(max_dim: int) -> Iterator[tuple[Metric, list[tuple[tuple, Multivector]]]]:
    """Each metric split up to ``max_dim`` with its (I, e_I) pairs, each blade built once."""
    for metric in _metric_splits(max_dim):
        yield metric, [(I, Multivector.blade(metric, I)) for I in _subsets(metric.dim)]


def _blade_pairs(max_dim: int) -> Iterator[tuple[tuple, Multivector, Multivector]]:
    """(label, e_I, e_J) for every ordered pair of unit blades of every split."""
    for metric, blades in _unit_blades(max_dim):
        for I, a in blades:
            for J, b in blades:
                yield ("({},{}) I={} J={}", metric.k, metric.n, I, J), a, b


def _index_partitions(max_dim: int, parts: int) -> Iterator[tuple[int, list[tuple]]]:
    """(dim, lists): every way to put each of range(dim) in one of ``parts`` lists or none."""
    for dim in range(1, max_dim + 1):
        for assign in itertools.product(range(parts + 1), repeat=dim):
            yield dim, [tuple(i for i, a in enumerate(assign) if a == p) for p in range(parts)]


def _sign(parity: int) -> int:
    return -1 if parity & 1 else 1


def _scalar_eq(left, right) -> bool:
    # a float here would compare loosely; every scalar must stay exact
    if isinstance(left, float) or isinstance(right, float):
        raise AlgebraError(f"inexact scalar in an exact comparison: {left!r} vs {right!r}")
    return not (left - right)


def _rand_fraction(rng) -> Fraction:
    return Fraction(rng.choice(_SMALL), rng.choice((1, 2, 3)))


# -- algebra ----------------------------------------------------------------


def _prop_signature_matches_swap_count(rng, trials):
    for case in range(250 * trials):
        length = rng.randint(0, 8)
        raw = [rng.randrange(16) for _ in range(length)]
        yield ("raw={}", raw), sort_signature(raw) == transposition_parity(raw)


def _prop_merge_matches_concatenation(rng, trials):
    for dim, (left, right) in _index_partitions(5, 2):
        merged = merge_signature(left, right)
        ok = merged == sort_signature(left + right) == transposition_parity(left + right)
        yield ("dim={} I={} J={}", dim, left, right), ok


def _prop_merge_associative(rng, trials):
    for dim, (one, two, three) in _index_partitions(5, 3):
        s1, merged = merge_signature(one, two)
        s2, left_way = merge_signature(merged, three)
        t1, tail = merge_signature(two, three)
        t2, right_way = merge_signature(one, tail)
        # a sign fault common to every merge cancels in s1 * s2, so one merge is checked alone
        ok = ((s1 * s2, left_way) == (t1 * t2, right_way)
              == transposition_parity(one + two + three)
              and (s1, merged) == transposition_parity(one + two))
        yield ("dim={} I={} J={} K={}", dim, one, two, three), ok


def _prop_empty_merge_identity(rng, trials):
    for dim in range(1, 7):
        for indices in _subsets(dim):
            ok = (
                merge_signature((), indices) == (1, indices)
                and merge_signature(indices, ()) == (1, indices)
            )
            yield ("dim={} K={}", dim, indices), ok


def _prop_complement_merge_parity(rng, trials):
    for dim in range(1, 7):
        for indices in _subsets(dim):
            rest = complement(indices, dim)
            s1, merged = merge_signature(indices, rest)
            s2, _ = merge_signature(rest, indices)
            expected = (-1) ** (len(indices) * (dim - len(indices)))
            ok = s1 * s2 == expected and (s1, merged) == transposition_parity(indices + rest)
            yield ("dim={} I={}", dim, indices), ok


def _prop_left_contraction_via_hodge(rng, trials):
    for label, a, b in _blade_pairs(5):
        yield label, a.left_contract(b) == a.wedge(b.hodge()).inv_hodge()


def _prop_right_contraction_via_hodge(rng, trials):
    for label, a, b in _blade_pairs(5):
        yield label, b.right_contract(a) == b.inv_hodge().wedge(a).hodge()


def _prop_hodge_round_trip(rng, trials):
    for metric, blades in _unit_blades(6):
        for I, e in blades:
            ok = e.hodge().inv_hodge() == e and e.inv_hodge().hodge() == e
            yield ("({},{}) I={}", metric.k, metric.n, I), ok


def _prop_equal_grade_contraction_collapse(rng, trials):
    for label, a, b in _blade_pairs(5):
        if a.grade == b.grade:
            scalar = Multivector.scalar(a.metric, a.dot(b))
            yield label, a.left_contract(b) == scalar and b.right_contract(a) == scalar


def _prop_wedge_graded_commutativity(rng, trials):
    for label, a, b in _blade_pairs(5):
        yield label, a.wedge(b) == b.wedge(a) * _sign(a.grade * b.grade)


def _prop_wedge_associative(rng, trials):
    for metric, blades in _unit_blades(4):
        for I, a in blades:
            for J, b in blades:
                ab = a.wedge(b)
                for K, c in blades:
                    ok = ab.wedge(c) == a.wedge(b.wedge(c))
                    yield ("({},{}) I={} J={} K={}", metric.k, metric.n, I, J, K), ok


def _prop_products_bilinear(rng, trials):
    for case in range(trials):
        metric = rng.choice(BATTERY_METRICS)
        ga = rng.randint(0, metric.dim)
        gb = rng.randint(0, metric.dim)
        a1 = random_field(rng, metric, ga)
        a2 = random_field(rng, metric, ga)
        b = random_field(rng, metric, gb)
        alpha = _rand_fraction(rng)
        beta = _rand_fraction(rng)
        combo = a1 * alpha + a2 * beta
        ok = (
            combo.wedge(b) == a1.wedge(b) * alpha + a2.wedge(b) * beta
            and combo.left_contract(b)
            == a1.left_contract(b) * alpha + a2.left_contract(b) * beta
            and b.right_contract(combo)
            == b.right_contract(a1) * alpha + b.right_contract(a2) * beta
            and combo.hodge() == a1.hodge() * alpha + a2.hodge() * beta
        )
        if ga == gb:
            ok = ok and _scalar_eq(
                combo.dot(b), alpha * a1.dot(b) + beta * a2.dot(b)
            )
        yield ("({},{}) ga={} gb={} case={}", metric.k, metric.n, ga, gb, case), ok


def _prop_matrix_algebra(rng, trials):
    for case in range(trials):
        metric = rng.choice(BATTERY_METRICS)
        g1 = rng.randint(0, min(2, metric.dim))
        g2 = rng.randint(0, min(2, metric.dim))
        g3 = rng.randint(0, min(2, metric.dim))
        A = random_matrix_field(rng, metric, g1, g2)
        B = random_matrix_field(rng, metric, g2, g3)
        C = random_matrix_field(rng, metric, g1, g2)
        v = random_field(rng, metric, g3, max_degree=1)
        w = random_field(rng, metric, g1, max_degree=1)
        frob = 0
        for (rows, cols), val in A.terms.items():
            frob = metric.sign_of(rows) * metric.sign_of(cols) * val * val + frob
        ok = (
            MvMatrix.identity(metric, g1).matmul(A) == A
            and A.matmul(MvMatrix.identity(metric, g2)) == A
            and A.transpose().transpose() == A
            and _scalar_eq(A.dot(C), C.dot(A))
            and _scalar_eq(A.dot(C), A.transpose().dot(C.transpose()))
            and _scalar_eq(A.dot(A), frob)
            and mat_vec(A.matmul(B), v) == mat_vec(A, mat_vec(B, v))
            and vec_mat(w, A) == mat_vec(A.transpose(), w)
        )
        yield ("({},{}) shapes=({},{},{}) case={}", metric.k, metric.n, g1, g2, g3, case), ok


# -- calculus ---------------------------------------------------------------


def _field_identity(check: Callable[[Multivector], bool]) -> Callable:
    """The property that ``check(a)`` holds for the battery fields a of every grade."""

    def prop(rng, trials):
        for metric in BATTERY_METRICS:
            for grade in range(metric.dim + 1):
                for field in field_cases(rng, metric, grade, trials):
                    yield ("({},{}) grade={} a={}", metric.k, metric.n, grade, field), check(field)

    return prop


def _prop_interior_of_vector_wedge(rng, trials):
    for metric in BATTERY_METRICS:
        for case in range(trials):
            a = random_field(rng, metric, 1)
            b = random_field(rng, metric, 1)
            lhs = int_deriv(a.wedge(b))
            rhs = (
                a * divergence_scalar(b)
                - b * divergence_scalar(a)
                + directional_deriv(b, a)
                - directional_deriv(a, b)
            )
            yield ("({},{}) case={} a={} b={}", metric.k, metric.n, case, a, b), lhs == rhs


def _prop_divergence_of_contraction(rng, trials):
    for metric in BATTERY_METRICS:
        for s in range(1, metric.dim + 1):
            for case in range(trials):
                a = random_field(rng, metric, s - 1)
                b = random_field(rng, metric, s)
                lhs = divergence_scalar(a.left_contract(b))
                rhs = ext_deriv(a).dot(b) + _sign(s - 1) * int_deriv(b).dot(a)
                ok = _scalar_eq(lhs, rhs)
                yield ("({},{}) s={} case={}", metric.k, metric.n, s, case), ok


def _prop_matrix_divergence_leibniz(rng, trials):
    for metric in BATTERY_METRICS:
        for grade in range(metric.dim + 1):
            for case in range(trials):
                B = random_matrix_field(rng, metric, 1, grade)
                a = random_field(rng, metric, grade)
                lhs = divergence_scalar(mat_vec(B, a))
                rhs = matrix_divergence(B).dot(a) + B.dot(tensor_deriv(a))
                ok = _scalar_eq(lhs, rhs)
                yield ("({},{}) grade={} case={}", metric.k, metric.n, grade, case), ok


def _prop_curl_forms_agree(rng, trials):
    metric = Metric(0, 3)
    for case in range(trials):
        v = random_field(rng, metric, 1)
        via_wedge = ext_deriv(v).inv_hodge()
        via_left = int_deriv(v.inv_hodge())
        via_right = int_deriv(v.hodge())
        comps = [v.coefficient((i,)) for i in range(3)]
        classical = Multivector(
            metric,
            1,
            {
                (0,): partial(comps[2], 1) - partial(comps[1], 2),
                (1,): partial(comps[0], 2) - partial(comps[2], 0),
                (2,): partial(comps[1], 0) - partial(comps[0], 1),
            },
        )
        ok = via_wedge == classical and via_left == classical and via_right == classical
        yield ("case={} v={}", case, v), ok


def _prop_vector_divergence_routes(rng, trials):
    for metric in BATTERY_METRICS:
        for case in range(trials):
            v = random_field(rng, metric, 1)
            direct = divergence_scalar(v)
            ok = _scalar_eq(int_deriv(v).scalar_value(), direct)
            manual = 0
            for i in range(metric.dim):
                manual = manual + partial(v.coefficient((i,)), i)
            ok = ok and _scalar_eq(direct, manual)
            yield ("({},{}) case={} v={}", metric.k, metric.n, case, v), ok


# -- variational ------------------------------------------------------------


def battery_densities(metric: Metric) -> list[tuple[str, LagrangianDensity]]:
    """Labeled quadratic densities admissible in a metric, for sweeps."""
    out = []
    for r in range(1, metric.dim + 1):
        out.append((f"maxwell r={r}", build_lagrangian(MaxwellConfig(metric, r))))
        out.append(
            (f"massive r={r}", build_lagrangian(MaxwellConfig(metric, r, mass=2)))
        )
        if r >= 2:
            cfg = MaxwellConfig(metric, r, mass=1, xi=Fraction(1, 2))
            out.append((f"gauge-fixed r={r}", build_lagrangian(cfg)))
    for s in range(1, metric.dim + 1):
        out.append((f"dual s={s}", build_dual_lagrangian(s)))
    a = FieldSymbol("a", min(1, metric.dim), "dynamical")
    rho = FieldSymbol("rho", a.grade, "source")
    out.append(
        (
            "source-only",
            LagrangianDensity([(Fraction(1), (DerivOp.ID, rho), (DerivOp.ID, a))]),
        )
    )
    return out


def _assignments(rng, metric, L, count):
    symbols = L.symbols()
    dyn = L.dynamical
    out = []
    for value in field_cases(rng, metric, dyn.grade, count):
        assignment = {dyn.name: value}
        for name, sym in symbols.items():
            if name != dyn.name:
                assignment[name] = random_field(rng, metric, sym.grade)
        out.append(assignment)
    return out


def _prop_exterior_route_matches_tensor_route(rng, trials):
    # field_cases' first three fields (zero, constant, one linear monomial) have no second
    # derivatives, so the chain rule of tensor_slot_matrix first shows on the fourth
    per = max(4, trials // 10)
    for metric in BATTERY_METRICS:
        for label, L in battery_densities(metric):
            fields = _assignments(rng, metric, L, per)
            report = verify_tensor_exterior_identity(L, metric, fields)
            if report.ok:
                yield ("({},{}) {}", metric.k, metric.n, label), True
            else:
                yield ("({},{}) {} disagreements={}", metric.k, metric.n, label,
                       report.counterexamples), False


def _prop_first_variation_exact(rng, trials):
    batteries = [battery_densities(metric) for metric in BATTERY_METRICS]
    for case in range(trials):
        metric = BATTERY_METRICS[case % len(BATTERY_METRICS)]
        densities = batteries[case % len(BATTERY_METRICS)]
        label, L = densities[case % len(densities)]
        dyn = L.dynamical
        a_value = random_field(rng, metric, dyn.grade)
        eps = random_field(rng, metric, dyn.grade)
        sources = {
            name: random_field(rng, metric, sym.grade)
            for name, sym in L.symbols().items()
            if name != dyn.name
        }
        bulk, boundary = first_variation(L, a_value, eps, sources)
        plus = dict(sources, **{dyn.name: a_value + eps})
        minus = dict(sources, **{dyn.name: a_value - eps})
        target = (L.value(plus) - L.value(minus)) * Fraction(1, 2)
        ok = _scalar_eq(bulk + divergence_scalar(boundary), target)
        yield ("({},{}) {} case={}", metric.k, metric.n, label, case), ok


def _prop_slot_derivative_linear(rng, trials):
    for case in range(trials):
        metric = rng.choice(BATTERY_METRICS)
        s = rng.randint(1, metric.dim - 1)
        a = FieldSymbol("a", s, "dynamical")
        b = FieldSymbol("b", s, "source")
        pool = (
            ((DerivOp.ID, a), (DerivOp.ID, a)),
            ((DerivOp.ID, b), (DerivOp.ID, a)),
            ((DerivOp.EXT, a), (DerivOp.EXT, a)),
            ((DerivOp.EXT, b), (DerivOp.EXT, a)),
            ((DerivOp.INT, a), (DerivOp.INT, a)),
            ((DerivOp.INT, a), (DerivOp.INT, b)),
        )

        def pick():
            terms = [
                (Fraction(c), left, right)
                for left, right in pool
                if (c := rng.choice((-2, -1, 0, 0, 1, 2, 3)))
            ]
            if not terms:
                terms = [(Fraction(1), *pool[0])]
            return LagrangianDensity(terms)

        one, two = pick(), pick()
        alpha = _rand_fraction(rng)
        beta = _rand_fraction(rng)
        combo = one * alpha + two * beta
        ok = True
        for wrt in ((DerivOp.ID, a), (DerivOp.EXT, a), (DerivOp.INT, a)):
            ok = ok and vderiv(combo, wrt) == vderiv(one, wrt) * alpha + vderiv(
                two, wrt
            ) * beta
        yield ("({},{}) s={} case={}", metric.k, metric.n, s, case), ok


def _component_densities(grade: int):
    """A tensor-slot density and an exterior-slot density of one grade."""
    a = FieldSymbol("a", grade, "dynamical")
    j = FieldSymbol("j", grade, "source")
    tensor = LagrangianDensity(
        [
            (Fraction(1, 2), (DerivOp.TENSOR, a), (DerivOp.TENSOR, a)),
            (Fraction(1), (DerivOp.ID, j), (DerivOp.ID, a)),
            (Fraction(-3, 2), (DerivOp.ID, a), (DerivOp.ID, a)),
        ]
    )
    terms = [
        (Fraction(1, 2), (DerivOp.EXT, a), (DerivOp.EXT, a)),
        (Fraction(1), (DerivOp.ID, j), (DerivOp.ID, a)),
        (Fraction(-3, 2), (DerivOp.ID, a), (DerivOp.ID, a)),
    ]
    if grade >= 1:
        terms.append((Fraction(1, 4), (DerivOp.INT, a), (DerivOp.INT, a)))
    exterior = LagrangianDensity(terms)
    return a, tensor, exterior


def _prop_equation_components_match_difference_oracle(rng, trials):
    """Both EL routes against symmetric-difference partial derivatives.

    For every blade e_I the equation component must equal
    dL/da_I - sum_i d_i dL/d(d_i a_I), with both partials recovered from
    L alone by perturbing a with e_I and with x_i e_I.
    """
    per = max(1, trials // 16)
    for metric in BATTERY_METRICS:
        for grade in (0, 1):
            a, tensor_L, exterior_L = _component_densities(grade)
            routes = (
                ("tensor", tensor_L, euler_lagrange_tensor),
                ("exterior", exterior_L, euler_lagrange_exterior),
            )
            for case in range(per):
                a_value = random_field(rng, metric, grade, max_degree=2)
                j_value = random_field(rng, metric, grade, max_degree=2)
                assignment = {"a": a_value, "j": j_value}
                for route_name, L, route in routes:
                    residual = route(L).residual(assignment, metric)
                    for I in metric.blades(grade):
                        bump = Multivector.blade(metric, I)
                        d_field = (
                            L.value(dict(assignment, a=a_value + bump))
                            - L.value(dict(assignment, a=a_value - bump))
                        ) * Fraction(1, 2)
                        acc = d_field
                        for i in range(metric.dim):
                            ramp = PolyScalar.variable(metric.dim, i)
                            slope = Multivector.blade(metric, I, ramp)
                            d_slot = (
                                L.value(dict(assignment, a=a_value + slope))
                                - L.value(dict(assignment, a=a_value - slope))
                            ) * Fraction(1, 2) - ramp * d_field
                            acc = acc - partial(d_slot, i)
                        got = metric.sign_of(I) * residual.coefficient(I)
                        ok = _scalar_eq(got, acc)
                        yield ("({},{}) {} grade={} I={} case={}",
                               metric.k, metric.n, route_name, grade, I, case), ok


# -- field theories ---------------------------------------------------------


def _prop_maxwell_display_structure(rng, trials):
    for metric in _metric_splits(4):
        for r in range(1, metric.dim + 1):
            eq = derive_equations(MaxwellConfig(metric, r))
            A = FieldSymbol("A", r - 1, "dynamical")
            J = FieldSymbol("J", r - 1, "source")
            expected = FieldEquation(
                FormalExpr.single(("int", "ext"), A),
                FormalExpr.single((), J),
                r - 1,
            )
            ok = eq == expected and eq.render() == "d_| ( d^ A ) = J"
            yield ("({},{}) r={}", metric.k, metric.n, r), ok


def _prop_massive_gauge_fixed_structure(rng, trials):
    for metric in _metric_splits(4):
        for r in range(1, metric.dim + 1):
            A = FieldSymbol("A", r - 1, "dynamical")
            J = FieldSymbol("J", r - 1, "source")
            lhs = FormalExpr(
                [(("int", "ext"), A, Fraction(1)), ((), A, Fraction(4))]
            )
            proca = derive_equations(MaxwellConfig(metric, r, mass=2))
            ok = proca == FieldEquation(lhs, FormalExpr.single((), J), r - 1)
            ok = ok and proca.render() == "d_| ( d^ A ) + 4 * A = J"
            if r >= 2:
                fixed = derive_equations(
                    MaxwellConfig(metric, r, mass=2, xi=Fraction(1, 3))
                )
                rhs = FormalExpr(
                    [((), J, Fraction(1)), (("ext", "int"), A, Fraction(3))]
                )
                ok = ok and fixed == FieldEquation(lhs, rhs, r - 1)
                ok = (
                    ok
                    and fixed.render()
                    == "d_| ( d^ A ) + 4 * A = J + 3 * d^ ( d_| A )"
                )
            yield ("({},{}) r={}", metric.k, metric.n, r), ok


def _configs_for(metric: Metric, r: int) -> list[MaxwellConfig]:
    out = [MaxwellConfig(metric, r), MaxwellConfig(metric, r, mass=2)]
    if r >= 2:
        out.append(MaxwellConfig(metric, r, mass=2, xi=Fraction(1, 2)))
    return out


def _prop_display_matches_raw_equation(rng, trials):
    per = max(2, trials // 10)
    for metric in BATTERY_METRICS:
        for r in range(1, metric.dim + 1):
            for cfg in _configs_for(metric, r):
                raw = euler_lagrange_exterior(build_lagrangian(cfg))
                disp = derive_equations(cfg)
                for case in range(per):
                    assignment = {
                        "A": random_field(rng, metric, r - 1),
                        "J": random_field(rng, metric, r - 1),
                    }
                    ok = disp.residual(assignment, metric) == -raw.residual(
                        assignment, metric
                    )
                    yield ("({},{}) r={} xi={} case={}", metric.k, metric.n, r, cfg.xi, case), ok


def _prop_wave_form_agrees(rng, trials):
    per = max(2, trials // 10)
    for metric in BATTERY_METRICS:
        for r in range(2, metric.dim + 1):
            for xi in (Fraction(1, 2), Fraction(1)):
                cfg = MaxwellConfig(metric, r, mass=3, xi=xi)
                disp = derive_equations(cfg)
                wave = wave_form(cfg)
                for case in range(per):
                    assignment = {
                        "A": random_field(rng, metric, r - 1),
                        "J": random_field(rng, metric, r - 1),
                    }
                    ok = disp.residual(assignment, metric) == wave.residual(
                        assignment, metric
                    )
                    yield ("({},{}) r={} xi={} case={}", metric.k, metric.n, r, xi, case), ok
            feynman = wave_form(MaxwellConfig(metric, r, xi=Fraction(1)))
            expected = "lap A = J" if (r - 1) % 2 == 0 else "-lap A = J"
            yield ("({},{}) r={} feynman", metric.k, metric.n, r), feynman.render() == expected


def _prop_gauge_invariance(rng, trials):
    for metric in BATTERY_METRICS:
        for r in range(1, metric.dim + 1):
            for case in range(trials):
                A = random_field(rng, metric, r - 1)
                shift = random_constant_field(rng, metric, r - 1)
                G = random_field(rng, metric, r - 2) if r >= 2 else None
                moved = gauge_transform(A, shift, G)
                ok = ext_deriv(moved) == ext_deriv(A)
                yield ("({},{}) r={} case={}", metric.k, metric.n, r, case), ok


def _prop_source_continuity(rng, trials):
    for metric in BATTERY_METRICS:
        for r in range(1, metric.dim + 1):
            for case in range(trials):
                A = random_field(rng, metric, r - 1)
                induced = int_deriv(ext_deriv(A))
                ok = int_deriv(induced).is_zero()
                yield ("({},{}) r={} case={}", metric.k, metric.n, r, case), ok


def _prop_dual_display_structure(rng, trials):
    for metric in _metric_splits(4):
        for s in range(1, metric.dim + 1):
            nonhomog, homog = dual_theory(metric, s)
            Abar = FieldSymbol("Abar", s, "dynamical")
            Jbar = FieldSymbol("Jbar", s, "source")
            Fbar = FieldSymbol("Fbar", s - 1, "source")
            ok = (
                nonhomog
                == FieldEquation(
                    FormalExpr.single((), Jbar),
                    FormalExpr.single(("ext", "int"), Abar),
                    s,
                )
                and nonhomog.render() == "Jbar = d^ ( d_| Abar )"
                and homog
                == FieldEquation(
                    FormalExpr.single(("int",), Fbar), FormalExpr.zero(), s - 2
                )
                and homog.render() == "d_| Fbar = 0"
            )
            yield ("({},{}) s={}", metric.k, metric.n, s), ok


def _prop_dual_field_identities(rng, trials):
    for metric in BATTERY_METRICS:
        for s in range(1, metric.dim + 1):
            nonhomog, homog = dual_theory(metric, s)
            for case in range(trials):
                Abar = random_field(rng, metric, s)
                Fbar = dual_field(Abar)
                induced = {"Abar": Abar, "Jbar": ext_deriv(int_deriv(Abar))}
                ok = (
                    int_deriv(Fbar).is_zero()
                    and nonhomog.residual(induced, metric).is_zero()
                    and homog.residual({"Fbar": Fbar}, metric).is_zero()
                    and int_deriv(Abar) == right_int_deriv(Abar) * _sign(s + 1)
                )
                yield ("({},{}) s={} case={}", metric.k, metric.n, s, case), ok


def _prop_polarization_table(rng, trials):
    pinned = {
        (1, 1, 1): 1,
        (1, 1, 2): 0,
        (1, 2, 1): 1,
        (1, 2, 2): 1,
        (1, 3, 1): 1,
        (1, 3, 2): 2,
        (1, 3, 3): 1,
        (1, 3, 4): 0,
        (1, 4, 2): 3,
        (1, 4, 3): 3,
        (2, 2, 1): 1,
        (2, 2, 2): 2,
        (2, 2, 3): 1,
        (2, 3, 2): 3,
    }
    for (k, n, r), expected in sorted(pinned.items()):
        yield ("(k,n,r)=({},{},{})", k, n, r), polarization_count(k, n, r) == expected
    for k, n, r, exc in (
        (0, 3, 1, AlgebraError),
        (3, 0, 1, AlgebraError),
        (1, 3, 0, GradeError),
        (1, 3, 5, GradeError),
    ):
        try:
            polarization_count(k, n, r)
        except exc:
            yield ("rejects (k,n,r)=({},{},{})", k, n, r), True
        except Exception:
            yield ("rejects (k,n,r)=({},{},{})", k, n, r), False
        else:
            yield ("rejects (k,n,r)=({},{},{})", k, n, r), False


# -- registry and runner ----------------------------------------------------

SUITES: dict[str, dict[str, Callable]] = {
    "algebra": {
        "signature_matches_swap_count": _prop_signature_matches_swap_count,
        "merge_matches_concatenation": _prop_merge_matches_concatenation,
        "merge_associative": _prop_merge_associative,
        "empty_merge_identity": _prop_empty_merge_identity,
        "complement_merge_parity": _prop_complement_merge_parity,
        "left_contraction_via_hodge": _prop_left_contraction_via_hodge,
        "right_contraction_via_hodge": _prop_right_contraction_via_hodge,
        "hodge_round_trip": _prop_hodge_round_trip,
        "equal_grade_contraction_collapse": _prop_equal_grade_contraction_collapse,
        "wedge_graded_commutativity": _prop_wedge_graded_commutativity,
        "wedge_associative": _prop_wedge_associative,
        "products_bilinear": _prop_products_bilinear,
        "matrix_algebra": _prop_matrix_algebra,
    },
    "calculus": {
        "exterior_derivative_nilpotent": _field_identity(
            lambda a: ext_deriv(ext_deriv(a)).is_zero()),
        "interior_derivative_nilpotent": _field_identity(
            lambda a: int_deriv(int_deriv(a)).is_zero()),
        "interior_of_vector_wedge": _prop_interior_of_vector_wedge,
        "divergence_of_contraction": _prop_divergence_of_contraction,
        "matrix_divergence_leibniz": _prop_matrix_divergence_leibniz,
        "laplacian_splitting_sign": _field_identity(
            lambda a: check_laplacian_splitting(a.metric, a.grade, [a])),
        "tensor_divergence_is_laplacian": _field_identity(
            lambda a: matrix_divergence(tensor_deriv(a)) == laplacian(a)),
        "curl_forms_agree": _prop_curl_forms_agree,
        "interior_orientation_sign": _field_identity(
            lambda a: int_deriv(a) == right_int_deriv(a) * _sign(a.grade + 1)),
        "vector_divergence_routes": _prop_vector_divergence_routes,
    },
    "variational": {
        "exterior_route_matches_tensor_route": _prop_exterior_route_matches_tensor_route,
        "first_variation_exact": _prop_first_variation_exact,
        "slot_derivative_linear": _prop_slot_derivative_linear,
        "equation_components_match_difference_oracle": _prop_equation_components_match_difference_oracle,
    },
    "em": {
        "maxwell_display_structure": _prop_maxwell_display_structure,
        "massive_gauge_fixed_structure": _prop_massive_gauge_fixed_structure,
        "display_matches_raw_equation": _prop_display_matches_raw_equation,
        "wave_form_agrees": _prop_wave_form_agrees,
        "gauge_invariance": _prop_gauge_invariance,
        "source_continuity": _prop_source_continuity,
        "dual_display_structure": _prop_dual_display_structure,
        "dual_field_identities": _prop_dual_field_identities,
        "polarization_table": _prop_polarization_table,
    },
}


def _render(label: tuple) -> str:
    """A case label's text: its template formatted with its values."""
    return label[0].format(*label[1:])


def run_suites(suites: Iterable[str] | str, seed: int = 42,
               trials: int = 40) -> list[PropertyOutcome]:
    """Run the named suites; "all" expands to every suite.

    A property whose check raises stops at that case and is reported as
    FAIL, the raising case counted as one failing case; the other
    properties still run.
    """
    if isinstance(suites, str):
        suites = [suites]
    integer(seed, "seed")
    if integer(trials, "trials") < 1:
        raise AlgebraError("trials must be at least 1")
    picked: list[str] = []
    for name in suites:
        expansion = sorted(SUITES) if name == "all" else [name]
        for suite in expansion:
            if suite not in SUITES:
                raise AlgebraError(f"unknown suite {suite!r}")
            if suite not in picked:
                picked.append(suite)
    outcomes = []
    for suite in picked:
        for name in sorted(SUITES[suite]):
            rng = rng_for(seed, f"{suite}/{name}")
            cases = failures = 0
            first = label = None
            try:
                for label, ok in SUITES[suite][name](rng, trials):
                    cases += 1
                    if not ok:
                        failures += 1
                        if first is None:
                            first = _render(label)
            except Exception as exc:  # a crashing check fails its property, not the report
                cases += 1
                failures += 1
                if first is None:
                    after = f"after case {_render(label)}" if label else "before the first case"
                    first = f"raised {type(exc).__name__}: {exc} ({after})"
            outcomes.append(PropertyOutcome(suite, name, cases, failures, first))
    return outcomes


def format_report(outcomes: Iterable[PropertyOutcome]) -> str:
    outcomes = list(outcomes)
    lines = []
    for item in outcomes:
        status = "PASS" if item.ok else "FAIL"
        lines.append(
            f"{status} {item.suite}/{item.name}: cases={item.cases} "
            f"failures={item.failures}"
        )
        if item.first_counterexample is not None:
            lines.append(f"    first counterexample: {item.first_counterexample}")
    passed = sum(1 for item in outcomes if item.ok)
    lines.append(
        f"SUMMARY: properties={len(outcomes)} passed={passed} "
        f"failed={len(outcomes) - passed} cases={sum(i.cases for i in outcomes)}"
    )
    return "\n".join(lines)
