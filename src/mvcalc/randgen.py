"""Deterministic random fields for property checks.

Every generator takes an explicit random.Random instance; the verification
suites seed one per property from a stable string key, which keeps reports
byte-identical across runs and platforms.

Coefficients are small integers and degrees low on purpose: the identities
checked are multilinear in the coefficients, so sparse low-degree fields
exercise every sign path while keeping exact arithmetic cheap.

Terms are canonical by construction (coefficients from ``_COEFFS``, index
lists from ``metric.blades``, and each drawn term one flat key: its blade
part plus a unit at the exponent field of each drawn coordinate, from
``poly._AXES``), so each value is built by its trusted ``_make``, not a
validating constructor; tests/golden/randgen_streams.sha256 pins the streams.
"""

from __future__ import annotations

import random

from .blades import Metric, Multivector
from .indexes import _MASK, MAX_DIM, integer
from .matrices import MvMatrix
from .poly import _AXES, MAX_EXPONENT, PolyScalar, _too_high

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
    """Sparse random polynomial; may be zero.  ``max_degree`` is at most MAX_EXPONENT."""
    integer(nvars, "nvars", 0, MAX_DIM)
    return PolyScalar._make(nvars, _draw(rng, {}, 0, _AXES[0, nvars], max_terms, max_degree))


def _draw(rng: random.Random, out: dict, base: int, axes: tuple, max_terms: int,
          max_degree: int) -> dict:
    """``out`` with one random polynomial's terms added at blade part ``base``; ``axes``
    are the bit offsets of its coordinates' exponent fields.  A sum of zero stays, for
    ``_make`` to drop."""
    if max_degree > MAX_EXPONENT:
        _too_high()
    for _ in range(rng.randint(1, max_terms)):
        key = base
        for _ in range(rng.randint(0, max_degree)):
            key += 1 << axes[rng.randrange(len(axes))]
        out[key] = out.get(key, 0) + rng.choice(_COEFFS)
    return out


def random_field(rng: random.Random, metric: Metric, grade: int,
                 max_terms: int = 3, max_degree: int = 3) -> Multivector:
    """Random grade-``grade`` field with sparse polynomial components."""
    terms: dict[int, int] = {}
    blades = list(metric.blades(grade))
    rng.shuffle(blades)
    keep = rng.randint(1, len(blades)) if blades else 0
    axes = _AXES[metric.dim, metric.dim]
    for indices in blades[:keep]:
        _draw(rng, terms, _MASK[indices], axes, max_terms, max_degree)
    return Multivector._make(metric, grade, terms, True)


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
    terms: dict[int, int] = {}
    dim = metric.dim
    for rows in metric.blades(row_grade):
        for cols in metric.blades(col_grade):
            if rng.random() < 0.6:
                continue
            _draw(rng, terms, _MASK[rows] | _MASK[cols] << dim, _AXES[2 * dim, dim], max_terms,
                  max_degree)
    return MvMatrix._make(metric, row_grade, col_grade, terms, True)


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
        axes = _AXES[metric.dim, metric.dim]  # a blade, then the coordinate of its monomial
        key = _MASK[rng.choice(blades)] + (1 << axes[rng.randrange(metric.dim)])
        cases.append(Multivector._make(metric, grade, {key: rng.choice(_COEFFS)}, True))
    while len(cases) < count:
        cases.append(random_field(rng, metric, grade))
    return cases[:count]
