"""Fixtures shared across test modules."""

import functools

import pytest

from mvcalc.verify import run_suites


@pytest.fixture(scope="session")
def full_run():
    """``full_run(seed, trials)``: every property suite, run once per session and arguments.

    The golden-report test and the acceptance criteria both read the
    seed-42/trials-50 outcomes, so tier-1 pays for that run once.
    """
    return functools.cache(lambda seed, trials: tuple(run_suites("all", seed=seed, trials=trials)))
