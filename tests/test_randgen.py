import hashlib
import random
from pathlib import Path

import pytest

from mvcalc.blades import AlgebraError, Metric
from mvcalc.poly import MAX_EXPONENT, PolyScalar
from mvcalc.randgen import (
    SEED_PREFIX,
    _below,
    field_cases,
    random_constant_field,
    random_field,
    random_matrix_field,
    random_poly,
    rng_for,
)
from mvcalc.verify import SUITES

M13 = Metric(1, 3)


def test_streams_are_keyed_by_seed_and_name():
    a = rng_for(1, "prop").random()
    b = rng_for(1, "prop").random()
    c = rng_for(2, "prop").random()
    d = rng_for(1, "other").random()
    assert a == b
    assert a != c and a != d


def test_same_stream_reproduces_fields():
    first = random_field(rng_for(3, "f"), M13, 2)
    second = random_field(rng_for(3, "f"), M13, 2)
    assert first == second


def test_fields_have_declared_shape():
    rng = rng_for(5, "shape")
    for grade in range(5):
        field = random_field(rng, M13, grade)
        assert field.metric == M13
        assert field.grade == grade or field.is_zero()
    matrix = random_matrix_field(rng, M13, 1, 2)
    assert (matrix.row_grade, matrix.col_grade) == (1, 2) or not matrix.terms


def test_field_cases_lead_with_degenerate_inputs():
    cases = field_cases(rng_for(7, "cases"), M13, 1, 6)
    assert len(cases) == 6
    assert cases[0].is_zero()
    constant_coeffs = [
        not isinstance(c, PolyScalar) or c.is_constant()
        for c in cases[1].terms.values()
    ]
    assert all(constant_coeffs)
    assert len(cases[2].terms) <= 1


@pytest.mark.parametrize("nvars", [-1, True, 1.0, "3", 17, 10**6])
def test_random_poly_refuses_a_bad_variable_count(nvars):
    # max_degree=0 draws no variable index, so only the check can refuse it
    with pytest.raises(AlgebraError, match="nvars"):
        random_poly(rng_for(1, "bad"), nvars, max_degree=0)


@pytest.mark.parametrize("count", [1, 5])
def test_field_cases_refuse_a_grade_that_is_not_an_int(count):
    with pytest.raises(AlgebraError, match="grade"):
        field_cases(rng_for(1, "bad"), M13, True, count)


def test_field_cases_never_exceed_count():
    assert len(field_cases(rng_for(11, "short"), M13, 0, 2)) == 2
    assert len(field_cases(rng_for(11, "one"), M13, 3, 1)) == 1


# sha256 over every generator's output: its repr, then each term's key,
# coefficient type and coefficient (a polynomial coefficient recursively),
# so that a changed draw, key, coefficient or int -> Fraction shows
STREAMS = Path(__file__).parent / "golden" / "randgen_streams.sha256"
STREAM_METRICS = [Metric(0, 3), Metric(1, 3), Metric(2, 2), Metric(1, 4)]


def _describe(value) -> str:
    parts = [repr(value)]
    for key, coeff in sorted(value.terms.items(), key=lambda item: item[0]):
        text = _describe(coeff) if isinstance(coeff, PolyScalar) else repr(coeff)
        parts.append(f"{key}:{type(coeff).__name__}:{text}")
    return "|".join(parts)


def test_generator_streams_match_golden_hash():
    digest = hashlib.sha256()
    values = 0
    for seed in range(12):
        for metric in STREAM_METRICS:
            rng = rng_for(seed, f"streams/{metric.k},{metric.n}")
            for grade in range(metric.dim + 1):
                outputs = [random_poly(rng, metric.dim),
                           random_field(rng, metric, grade),
                           random_constant_field(rng, metric, grade),
                           random_matrix_field(rng, metric, 1, grade),
                           random_matrix_field(rng, metric, grade, grade),
                           *field_cases(rng, metric, grade, 5)]
                for value in outputs:
                    digest.update(f"{_describe(value)}\n".encode())
                    values += 1
    assert f"sha256={digest.hexdigest()} values={values}\n" == STREAMS.read_text()


# -- the getrandbits sampler -------------------------------------------------------

SAMPLER_BOUNDS = sorted({1, 2, 3, 6, 9, 16, *(2**k + d for k in range(1, 12) for d in (-1, 1)),
                         2**64 + 13})


def test_below_draws_as_randrange_does():
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in SAMPLER_BOUNDS:
            for _ in range(5):
                assert _below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


def test_the_randint_choice_and_shuffle_rewrites_match_the_stdlib():
    seq = tuple(range(11))
    for seed in range(40):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for a, b in ((0, 0), (0, 8), (1, 3), (-3, 5), (2, 2**70)):
            assert a + _below(bits, b - a + 1) == theirs.randint(a, b)
        for s in (seq[:1], seq[:2], seq[:6], seq):
            assert s[_below(bits, len(s))] == theirs.choice(s)
        for length in (0, 1, 2, 5, 11):
            mine, stdlib = list(seq[:length]), list(seq[:length])
            for i in range(length - 1, 0, -1):
                j = _below(bits, i + 1)
                mine[i], mine[j] = mine[j], mine[i]
            theirs.shuffle(stdlib)
            assert mine == stdlib
        assert ours.getstate() == theirs.getstate()


class _NoShortcuts(random.Random):
    """A generator whose derived draws raise: only getrandbits and random() are left."""

    def _refuse(self, *args):
        raise AssertionError("a generator went through a random.Random draw method")

    randrange = randint = choice = shuffle = _refuse


def _every_generator(rng, metric):
    for grade in range(metric.dim + 1):
        yield random_poly(rng, metric.dim)
        yield random_poly(rng, 0, max_degree=0)
        yield random_field(rng, metric, grade)
        yield random_constant_field(rng, metric, grade)
        yield random_matrix_field(rng, metric, 1, grade)
        yield from field_cases(rng, metric, grade, 5)


@pytest.mark.parametrize("metric", STREAM_METRICS)
def test_generators_draw_only_through_getrandbits_and_random(metric):
    for seed in range(4):
        key = f"{SEED_PREFIX}:{seed}:spy"
        spy, plain = _NoShortcuts(key), random.Random(key)
        assert list(_every_generator(spy, metric)) == list(_every_generator(plain, metric))
        assert spy.getstate() == plain.getstate()


def test_the_swap_count_property_draws_only_through_getrandbits():
    prop = SUITES["algebra"]["signature_matches_swap_count"]
    key = f"{SEED_PREFIX}:42:spy"
    assert list(prop(_NoShortcuts(key), 2)) == list(prop(random.Random(key), 2))


# each bound leaves a draw nothing to draw from: [0, 0) has no value, and the
# sampler's rejection loop would never end on it
BAD_BOUNDS = [
    (dict(max_terms=0), "max_terms must be at least 1, got 0"),
    (dict(max_terms=-2), "max_terms must be at least 1, got -2"),
    (dict(max_terms=True), "bad max_terms: integers only, got True"),
    (dict(max_terms=2.0), "bad max_terms: integers only, got 2.0"),
    (dict(max_degree=-1), "max_degree must be at least 0, got -1"),
    (dict(max_degree=False), "bad max_degree: integers only, got False"),
    (dict(max_degree=MAX_EXPONENT + 1), f"exponent above {MAX_EXPONENT}"),
]
GENERATORS = {
    "random_poly": lambda rng, **bounds: random_poly(rng, 3, **bounds),
    "random_field": lambda rng, **bounds: random_field(rng, M13, 1, **bounds),
    "random_matrix_field": lambda rng, **bounds: random_matrix_field(rng, M13, 1, 2, **bounds),
}


@pytest.mark.parametrize("name", GENERATORS)
@pytest.mark.parametrize("bounds, message", BAD_BOUNDS)
def test_generators_refuse_an_empty_draw_range_before_drawing(name, bounds, message):
    rng = rng_for(1, "bad")
    state = rng.getstate()
    with pytest.raises(AlgebraError) as caught:
        GENERATORS[name](rng, **bounds)
    assert str(caught.value).startswith(message)
    assert rng.getstate() == state


@pytest.mark.parametrize("max_degree", [1, 3, MAX_EXPONENT])
def test_random_poly_refuses_a_degree_with_no_variables(max_degree):
    rng = rng_for(1, "bad")
    state = rng.getstate()
    with pytest.raises(AlgebraError, match=f"max_degree must be 0 with no variables, "
                                           f"got {max_degree}"):
        random_poly(rng, 0, max_degree=max_degree)
    assert rng.getstate() == state


def test_random_poly_with_no_variables_draws_constants():
    rng = rng_for(1, "constant")
    for _ in range(20):
        value = random_poly(rng, 0, max_degree=0)
        assert value.nvars == 0 and value.is_constant()
