"""Fixtures shared across test modules."""

import functools
from fractions import Fraction

import pytest

from mvcalc.blades import Multivector
from mvcalc.poly import PolyScalar
from mvcalc.randgen import random_constant_field, random_field
from mvcalc.verify import run_suites


@pytest.fixture(scope="session")
def full_run():
    """``full_run(seed, trials)``: every property suite, run once per session and arguments.

    The golden-report test and the acceptance criteria both read the
    seed-42/trials-50 outcomes, so tier-1 pays for that run once.
    """
    return functools.cache(lambda seed, trials: tuple(run_suites("all", seed=seed, trials=trials)))


def over_denominators(rng, field):
    """``field`` with its coefficients divided by 1, 2 or 3, through the public constructors."""
    def divide(coeff):
        d = rng.choice((1, 2, 3))
        if isinstance(coeff, PolyScalar):
            return PolyScalar(coeff.nvars, {e: Fraction(c, d) for e, c in coeff.terms.items()})
        return Fraction(coeff, d)
    return Multivector(field.metric, field.grade,
                       {indices: divide(c) for indices, c in field.terms.items()})


@pytest.fixture(scope="session")
def coefficient_fields():
    """``coefficient_fields(rng, metric, grade)``: fields of one grade with each coefficient kind.

    Integer, rational, polynomial and rational-polynomial coefficients, in
    that order, all from ``randgen``.
    """
    def fields(rng, metric, grade):
        ints = random_constant_field(rng, metric, grade)
        polys = random_field(rng, metric, grade)
        return [ints, over_denominators(rng, ints), polys, over_denominators(rng, polys)]
    return fields
