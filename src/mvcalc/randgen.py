"""Deterministic random fields for property checks.

Every generator takes an explicit random.Random instance; the verification
suites seed one per property from a stable string key, which keeps reports
byte-identical across runs and platforms.

Coefficients are small integers and degrees low on purpose: the identities
checked are multilinear in the coefficients, so sparse low-degree fields
exercise every sign path while keeping exact arithmetic cheap.

Terms are canonical by construction (coefficients from ``_COEFFS``, index
lists from ``metric.blades``, exponent tuples of length ``nvars``), so each
value is built by its trusted ``_make``, not a validating constructor;
tests/golden/randgen_streams.sha256 pins the streams.
"""

from __future__ import annotations

import random

from .blades import Metric, Multivector
from .indexes import _MASK, AlgebraError
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
    if type(nvars) is not int or nvars < 0:
        raise AlgebraError(f"bad nvars {nvars!r}: a nonnegative int is required")
    terms: dict[tuple, int] = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + rng.choice(_COEFFS)
    return PolyScalar._make(nvars, terms)  # a sum of zero is dropped there


def random_field(rng: random.Random, metric: Metric, grade: int,
                 max_terms: int = 3, max_degree: int = 3) -> Multivector:
    """Random grade-``grade`` field with sparse polynomial components."""
    terms: dict[int, PolyScalar] = {}
    blades = list(metric.blades(grade))
    rng.shuffle(blades)
    keep = rng.randint(1, len(blades)) if blades else 0
    dim = metric.dim
    for indices in blades[:keep]:
        p = random_poly(rng, dim, max_terms, max_degree)
        if p:
            terms[_MASK[indices]] = p
    return Multivector._make(metric, grade, terms)


def random_constant_field(rng: random.Random, metric: Metric,
                          grade: int) -> Multivector:
    """Random field with plain rational components (no coordinate dependence)."""
    return Multivector._make(metric, grade, {_MASK[indices]: rng.choice(_COEFFS)
                                             for indices in metric.blades(grade)
                                             if rng.random() >= 0.5})


def random_matrix_field(rng: random.Random, metric: Metric, row_grade: int,
                        col_grade: int, max_terms: int = 2,
                        max_degree: int = 2) -> MvMatrix:
    """Random matrix field, sparse in both slots."""
    terms: dict[tuple[int, int], PolyScalar] = {}
    for rows in metric.blades(row_grade):
        for cols in metric.blades(col_grade):
            if rng.random() < 0.6:
                continue
            p = random_poly(rng, metric.dim, max_terms, max_degree)
            if p:
                terms[(_MASK[rows], _MASK[cols])] = p
    return MvMatrix._make(metric, row_grade, col_grade, terms)


def field_cases(rng: random.Random, metric: Metric, grade: int,
                count: int) -> list[Multivector]:
    """Degenerate cases first, then random fields, ``count`` in total.

    The fixed prefix is: the zero field, a constant field, and a single
    blade with a one-monomial coefficient.  Identities that only fail on
    empty or constant input stay caught even at low trial counts.
    """
    blades = list(metric.blades(grade))  # refuses a grade that is not an int
    cases: list[Multivector] = [Multivector._make(metric, grade, {})]
    if len(cases) < count:
        cases.append(random_constant_field(rng, metric, grade))
    if blades and len(cases) < count:
        indices = rng.choice(blades)
        exps = [0] * metric.dim
        exps[rng.randrange(metric.dim)] = 1
        mono = PolyScalar._make(metric.dim, {tuple(exps): rng.choice(_COEFFS)})
        cases.append(Multivector._make(metric, grade, {_MASK[indices]: mono}))
    while len(cases) < count:
        cases.append(random_field(rng, metric, grade))
    return cases[:count]
