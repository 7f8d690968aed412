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

Integer draws go straight to ``rng.getrandbits`` through ``_below``, the rejection
loop of the stdlib's ``Random._randbelow`` (the same on Python 3.10-3.13), so they
skip the argument handling of ``randrange``, ``randint``, ``choice`` and ``shuffle``
and give the values and streams those methods would.  That holds for
``random.Random`` and for any subclass that keeps its ``getrandbits``; a subclass
that overrides only ``random()`` draws its integers from ``random()`` in the
stdlib, so its streams here differ from its own methods'.

Bounds that leave a draw nothing to draw from raise AlgebraError before any draw:
``max_terms`` below 1, ``max_degree`` below 0 or above MAX_EXPONENT, either one
not a plain int, and ``random_poly`` with ``nvars == 0`` and ``max_degree > 0``.
"""

from __future__ import annotations

import random

from .blades import AlgebraError, Metric, Multivector
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
    """Sparse random polynomial; may be zero."""
    integer(nvars, "nvars", 0, MAX_DIM)
    _check_bounds(max_terms, max_degree)
    if max_degree and not nvars:
        raise AlgebraError(f"max_degree must be 0 with no variables, got {max_degree}")
    return PolyScalar._make(nvars, _draw(rng.getrandbits, {}, 0, _AXES[0, nvars], max_terms,
                                         max_degree))


def _check_bounds(max_terms: int, max_degree: int) -> None:
    """Refuse term and degree bounds that leave a draw nothing to draw from."""
    integer(max_terms, "max_terms", 1)
    integer(max_degree, "max_degree", 0)
    if max_degree > MAX_EXPONENT:
        _too_high()


def _below(bits, n: int) -> int:
    """A uniform int in [0, n), for n >= 1, from ``bits`` = ``rng.getrandbits``.

    The rejection loop of ``random.Random._randbelow``: the same ``getrandbits``
    calls, so the same value and stream as ``rng.randrange(n)``.
    """
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _draw(bits, out: dict, base: int, axes: tuple, max_terms: int, max_degree: int) -> dict:
    """``out`` with one random polynomial's terms added at blade part ``base``; ``axes``
    are the bit offsets of its coordinates' exponent fields.  A sum of zero stays, for
    ``_make`` to drop."""
    naxes = len(axes)
    for _ in range(1 + _below(bits, max_terms)):
        key = base
        for _ in range(_below(bits, max_degree + 1)):
            key += 1 << axes[_below(bits, naxes)]
        out[key] = out.get(key, 0) + _COEFFS[_below(bits, len(_COEFFS))]
    return out


def random_field(rng: random.Random, metric: Metric, grade: int,
                 max_terms: int = 3, max_degree: int = 3) -> Multivector:
    """Random grade-``grade`` field with sparse polynomial components."""
    _check_bounds(max_terms, max_degree)
    bits = rng.getrandbits
    terms: dict[int, int] = {}
    blades = list(metric.blades(grade))
    for i in range(len(blades) - 1, 0, -1):  # random.shuffle's swaps
        j = _below(bits, i + 1)
        blades[i], blades[j] = blades[j], blades[i]
    keep = 1 + _below(bits, len(blades)) if blades else 0
    axes = _AXES[metric.dim, metric.dim]
    for indices in blades[:keep]:
        _draw(bits, terms, _MASK[indices], axes, max_terms, max_degree)
    return Multivector._make(metric, grade, terms, True)


def random_constant_field(rng: random.Random, metric: Metric,
                          grade: int) -> Multivector:
    """Random field with plain rational components (no coordinate dependence)."""
    bits = rng.getrandbits
    return Multivector._make(metric, grade, {_MASK[indices]: _COEFFS[_below(bits, len(_COEFFS))]
                                             for indices in metric.blades(grade)
                                             if rng.random() >= 0.5})


def random_matrix_field(rng: random.Random, metric: Metric, row_grade: int,
                        col_grade: int, max_terms: int = 2,
                        max_degree: int = 2) -> MvMatrix:
    """Random matrix field, sparse in both slots."""
    _check_bounds(max_terms, max_degree)
    bits = rng.getrandbits
    terms: dict[int, int] = {}
    dim = metric.dim
    for rows in metric.blades(row_grade):
        for cols in metric.blades(col_grade):
            if rng.random() < 0.6:
                continue
            _draw(bits, terms, _MASK[rows] | _MASK[cols] << dim, _AXES[2 * dim, dim], max_terms,
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
        bits = rng.getrandbits
        axes = _AXES[metric.dim, metric.dim]  # a blade, then the coordinate of its monomial
        key = _MASK[blades[_below(bits, len(blades))]] + (1 << axes[_below(bits, metric.dim)])
        coeff = _COEFFS[_below(bits, len(_COEFFS))]
        cases.append(Multivector._make(metric, grade, {key: coeff}, True))
    while len(cases) < count:
        cases.append(random_field(rng, metric, grade))
    return cases[:count]
