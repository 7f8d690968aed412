"""Deterministic random fields for property checks.

Every generator takes an explicit random.Random instance so callers
control seeding; the verification suites derive one generator per
property from a stable string key, which keeps reports byte-identical
across runs and platforms.

Polynomial coefficients are small integers and degrees are kept low on
purpose: the identities being checked are multilinear in the
coefficients, so sparse low-degree fields exercise every sign path
while keeping exact arithmetic cheap.
"""

from __future__ import annotations

import random

from .blades import Metric, Multivector
from .matrices import MvMatrix
from .poly import PolyScalar

SEED_PREFIX = "mvcalc-v1"

_COEFFS = (-3, -2, -1, 1, 2, 3)


def rng_for(seed: int, name: str) -> random.Random:
    """Random generator keyed by seed and property name.

    String seeding hashes with sha512 under the hood, so the stream is
    stable across processes regardless of PYTHONHASHSEED.
    """
    return random.Random(f"{SEED_PREFIX}:{seed}:{name}")


def random_poly(rng: random.Random, nvars: int, max_terms: int = 3,
                max_degree: int = 3) -> PolyScalar:
    """Sparse random polynomial; may be zero."""
    terms: dict[tuple, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + rng.choice(_COEFFS)
    return PolyScalar(nvars, terms)


def random_field(rng: random.Random, metric: Metric, grade: int,
                 max_terms: int = 3, max_degree: int = 3) -> Multivector:
    """Random grade-``grade`` field with sparse polynomial components."""
    terms: dict[tuple, PolyScalar] = {}
    blades = list(metric.blades(grade))
    rng.shuffle(blades)
    keep = rng.randint(1, len(blades)) if blades else 0
    for indices in blades[:keep]:
        p = random_poly(rng, metric.dim, max_terms, max_degree)
        if p:
            terms[indices] = p
    return Multivector(metric, grade, terms)


def random_constant_field(rng: random.Random, metric: Metric,
                          grade: int) -> Multivector:
    """Random field with plain rational components (no coordinate dependence)."""
    terms = {}
    for indices in metric.blades(grade):
        if rng.random() < 0.5:
            continue
        terms[indices] = rng.choice(_COEFFS)
    return Multivector(metric, grade, terms)


def random_matrix_field(rng: random.Random, metric: Metric, row_grade: int,
                        col_grade: int, max_terms: int = 2,
                        max_degree: int = 2) -> MvMatrix:
    """Random matrix field, sparse in both slots."""
    terms: dict[tuple, PolyScalar] = {}
    for rows in metric.blades(row_grade):
        for cols in metric.blades(col_grade):
            if rng.random() < 0.6:
                continue
            p = random_poly(rng, metric.dim, max_terms, max_degree)
            if p:
                terms[(rows, cols)] = p
    return MvMatrix(metric, row_grade, col_grade, terms)


def field_cases(rng: random.Random, metric: Metric, grade: int,
                count: int) -> list[Multivector]:
    """Degenerate cases first, then random fields, ``count`` in total.

    The fixed prefix is: the zero field, a constant field, and a single
    blade with a one-monomial coefficient.  Identities that only fail on
    empty or constant input stay caught even at low trial counts.
    """
    cases: list[Multivector] = [Multivector.zero(metric, grade)]
    if len(cases) < count:
        cases.append(random_constant_field(rng, metric, grade))
    blades = list(metric.blades(grade))
    if blades and len(cases) < count:
        indices = rng.choice(blades)
        exps = [0] * metric.dim
        exps[rng.randrange(metric.dim)] = 1
        mono = PolyScalar(metric.dim, {tuple(exps): rng.choice(_COEFFS)})
        cases.append(Multivector(metric, grade, {indices: mono}))
    while len(cases) < count:
        cases.append(random_field(rng, metric, grade))
    return cases[:count]
