import hashlib
from pathlib import Path

import pytest

from mvcalc.blades import AlgebraError, Metric
from mvcalc.poly import PolyScalar
from mvcalc.randgen import (
    field_cases,
    random_constant_field,
    random_field,
    random_matrix_field,
    random_poly,
    rng_for,
)

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
