"""End-to-end acceptance checks, one numbered criterion per test.

Every test prints one ``ACCEPTANCE NN PASS/FAIL`` line (run with ``-s``
to see them) before asserting, so a failing gate still reports the full
scoreboard.  The property suites execute once at seed 42 with 50 trials
per sweep point (the session's ``full_run``, shared with the golden-report
test); individual criteria then inspect the outcomes they depend on.
All comparisons in the engine are exact, so there are no tolerances
anywhere in this file.
"""

import json
import subprocess
import sys

import pytest

from mvcalc.em import polarization_count

SEED = 42
TRIALS = 50


@pytest.fixture(scope="module")
def results(full_run):
    return {(item.suite, item.name): item for item in full_run(SEED, TRIALS)}


def report(num: int, text: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def clean(item) -> bool:
    return item is not None and item.failures == 0 and item.cases > 0


def test_criterion_01_signature_oracle(results):
    item = results.get(("algebra", "signature_matches_swap_count"))
    ok = clean(item) and item.cases >= 10_000
    report(1, f"sort signature matches swap-count oracle on {item.cases} draws", ok)


def test_criterion_02_contraction_duality(results):
    left = results.get(("algebra", "left_contraction_via_hodge"))
    right = results.get(("algebra", "right_contraction_via_hodge"))
    ok = clean(left) and clean(right)
    report(
        2,
        "contractions equal their dual wedge forms on every blade pair "
        f"through dimension 5 ({left.cases}+{right.cases} cases)",
        ok,
    )


def test_criterion_03_hodge_round_trip(results):
    loop = results.get(("algebra", "hodge_round_trip"))
    collapse = results.get(("algebra", "equal_grade_contraction_collapse"))
    ok = clean(loop) and clean(collapse)
    report(
        3,
        "hodge round trip is the identity and equal-grade contractions "
        f"collapse to the scalar product ({loop.cases}+{collapse.cases} cases)",
        ok,
    )


def test_criterion_04_differential_identities(results):
    names = (
        "exterior_derivative_nilpotent",
        "interior_derivative_nilpotent",
        "laplacian_splitting_sign",
        "interior_of_vector_wedge",
        "divergence_of_contraction",
        "matrix_divergence_leibniz",
        "tensor_divergence_is_laplacian",
        "curl_forms_agree",
        "interior_orientation_sign",
        "vector_divergence_routes",
    )
    items = [results.get(("calculus", name)) for name in names]
    ok = all(clean(item) for item in items) and TRIALS >= 50
    total = sum(item.cases for item in items if item is not None)
    report(
        4,
        f"differential identities hold on {TRIALS} random fields per "
        f"metric and grade ({total} cases over {len(names)} identities)",
        ok,
    )


def test_criterion_05_two_route_agreement(results):
    item = results.get(("variational", "exterior_route_matches_tensor_route"))
    oracle = results.get(("variational", "equation_components_match_difference_oracle"))
    ok = clean(item) and clean(oracle)
    report(
        5,
        "exterior and tensor variational routes give identical equations "
        f"for every battery density ({item.cases}+{oracle.cases} cases)",
        ok,
    )


def test_criterion_06_first_variation(results):
    item = results.get(("variational", "first_variation_exact"))
    ok = clean(item) and item.cases >= 20
    report(
        6,
        f"first variation splits into bulk plus exact divergence on {item.cases} trials",
        ok,
    )


def test_criterion_07_maxwell_family_structure(results):
    plain = results.get(("em", "maxwell_display_structure"))
    massive = results.get(("em", "massive_gauge_fixed_structure"))
    raw = results.get(("em", "display_matches_raw_equation"))
    wave = results.get(("em", "wave_form_agrees"))
    ok = all(clean(item) for item in (plain, massive, raw, wave))
    report(
        7,
        "derived equations have the documented shape for every metric with "
        "dimension <= 4 and every admissible field grade, including the "
        "massive, gauge-fixed, and wave-operator forms",
        ok,
    )


def test_criterion_08_gauge_invariance(results):
    item = results.get(("em", "gauge_invariance"))
    ok = clean(item) and TRIALS >= 50
    report(
        8,
        f"field strength and equations are gauge invariant on {TRIALS} "
        f"transforms per metric and grade ({item.cases} cases)",
        ok,
    )


def test_criterion_09_dual_theory(results):
    shape = results.get(("em", "dual_display_structure"))
    identities = results.get(("em", "dual_field_identities"))
    ok = clean(shape) and clean(identities)
    report(
        9,
        "dual theory reproduces its source from the potential and its "
        f"field satisfies the homogeneous equation ({shape.cases}+"
        f"{identities.cases} cases)",
        ok,
    )


def test_criterion_10_polarization_counts(results):
    item = results.get(("em", "polarization_table"))
    ok = clean(item) and polarization_count(1, 3, 2) == 2
    report(
        10,
        "polarization counts match the binomial table, with 2 transverse "
        "modes for the classical vector potential",
        ok,
    )


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mvcalc", *argv], capture_output=True, text=True
    )


def test_criterion_11_cli_contract():
    goldens = [
        (("derive", "--k", "1", "--n", "3", "--r", "2"), "d_| ( d^ A ) = J\n"),
        (
            ("derive", "--k", "0", "--n", "3", "--r", "1", "--preset", "electrostatics"),
            "d_| ( d^ phi ) = rho\n",
        ),
        (
            ("derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1"),
            "Jbar = d^ ( d_| Abar )\n",
        ),
    ]
    ok = True
    for argv, expected in goldens:
        first = _run_cli(*argv)
        second = _run_cli(*argv)
        ok = ok and first.returncode == 0 and first.stdout == expected
        ok = ok and second.stdout == first.stdout
    checker = _run_cli("verify", "--suite", "all", "--seed", "42")
    ok = ok and checker.returncode == 0
    report(
        11,
        "documented derive invocations are byte-identical across runs and "
        "the full verification suite exits clean",
        ok,
    )
