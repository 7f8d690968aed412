import hashlib
from pathlib import Path

import pytest

from mvcalc import indexes, verify
from mvcalc.blades import AlgebraError, Multivector
from mvcalc.randgen import rng_for
from mvcalc.verify import (
    PropertyOutcome,
    format_report,
    run_suites,
    transposition_parity,
)


def test_parity_oracle_basics():
    assert transposition_parity(()) == (1, ())
    assert transposition_parity((2, 0, 1)) == (1, (0, 1, 2))
    assert transposition_parity((1, 0)) == (-1, (0, 1))
    assert transposition_parity((3, 3)) == (0, ())


def test_same_seed_reproduces_report_exactly():
    first = format_report(run_suites("calculus", seed=5, trials=3))
    second = format_report(run_suites("calculus", seed=5, trials=3))
    assert first == second


def test_all_expands_every_suite_once():
    outcomes = run_suites(["all", "algebra"], seed=1, trials=1)
    suites = [item.suite for item in outcomes]
    assert suites == sorted(suites)
    names = {(item.suite, item.name) for item in outcomes}
    assert len(names) == len(outcomes)


def test_unknown_suite_and_bad_trials_rejected():
    with pytest.raises(AlgebraError, match="unknown suite"):
        run_suites("algebraic")
    with pytest.raises(AlgebraError, match="trials"):
        run_suites("algebra", trials=0)


@pytest.mark.parametrize("kwargs", [{"trials": 2.5}, {"trials": True}, {"seed": 1.5}, {"seed": "42"}])
def test_non_integer_trials_and_seed_rejected(kwargs):
    with pytest.raises(AlgebraError, match="integers only"):
        run_suites("em", **kwargs)


def test_report_formatting_of_failures():
    outcomes = [
        PropertyOutcome("algebra", "good", 12, 0, None),
        PropertyOutcome("algebra", "bad", 12, 3, "metric=(1,1) grade=1"),
    ]
    report = format_report(outcomes)
    assert report.splitlines() == [
        "PASS algebra/good: cases=12 failures=0",
        "FAIL algebra/bad: cases=12 failures=3",
        "    first counterexample: metric=(1,1) grade=1",
        "SUMMARY: properties=2 passed=1 failed=1 cases=24",
    ]


def test_small_full_run_is_green():
    outcomes = run_suites("all", seed=9, trials=2)
    assert outcomes and all(item.ok for item in outcomes)


# stdout of ``mvcalc verify --suite all --seed 42 --trials 50`` before the
# blade products moved onto bitmasks; every later change must reproduce it
GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_seed42_trials50.txt"


def test_seed42_report_is_byte_identical_to_golden(full_run):
    report = format_report(full_run(42, 50))
    assert (report + "\n").encode() == GOLDEN_REPORT.read_bytes()


def test_raising_property_is_reported_as_fail(monkeypatch):
    def crashes(rng, trials):
        yield "metric=(1,3) r=1", True
        yield "metric=(1,3) r=2", True
        raise ZeroDivisionError("boom")

    def crashes_on_entry(rng, trials):
        raise KeyError("setup")

    real_names = set(verify.SUITES["em"])
    suites = {suite: dict(props) for suite, props in verify.SUITES.items()}
    suites["em"]["a_crashes"] = crashes
    suites["em"]["z_crashes_on_entry"] = crashes_on_entry
    monkeypatch.setattr(verify, "SUITES", suites)
    outcomes = {item.name: item for item in run_suites("em", seed=3, trials=1)}
    assert outcomes["a_crashes"] == PropertyOutcome(
        "em", "a_crashes", 3, 1,
        "raised ZeroDivisionError: boom (after case metric=(1,3) r=2)",
    )
    assert outcomes["z_crashes_on_entry"] == PropertyOutcome(
        "em", "z_crashes_on_entry", 1, 1,
        "raised KeyError: 'setup' (before the first case)",
    )
    # the real properties before and after both crashes still ran and passed
    real = [item for name, item in outcomes.items() if name in real_names]
    assert len(real) == len(real_names) and all(item.ok and item.cases for item in real)
    lines = format_report(outcomes.values()).splitlines()
    assert "FAIL em/a_crashes: cases=3 failures=1" in lines
    assert lines[-1].startswith(f"SUMMARY: properties={len(suites['em'])} passed={len(real)} failed=2")


# sha256 over every ``suite/name|label|ok`` line of every property at seed
# 42, trials 2, taken before the exhaustive sweeps shared their iterators
LABEL_STREAM = Path(__file__).parent / "golden" / "verify_labels_seed42_trials2.sha256"


def test_seed42_label_stream_matches_golden_hash():
    digest = hashlib.sha256()
    lines = 0
    for suite in sorted(verify.SUITES):
        for name in sorted(verify.SUITES[suite]):
            prop = verify.SUITES[suite][name]
            for label, ok in prop(rng_for(42, f"{suite}/{name}"), 2):
                digest.update(f"{suite}/{name}|{label}|{ok}\n".encode())
                lines += 1
    assert f"sha256={digest.hexdigest()} lines={lines}\n" == LABEL_STREAM.read_text()


def _failing_cases(name):
    prop = verify.SUITES["algebra"][name]
    return sum(not ok for _, ok in prop(rng_for(1, name), 1))


def test_blade_sweeps_catch_a_wrong_hodge_sign(monkeypatch):
    hodge = Multivector.hodge
    monkeypatch.setattr(Multivector, "hodge",
                        lambda self: -hodge(self) if self.grade == 2 else hodge(self))
    for name in ("hodge_round_trip", "left_contraction_via_hodge", "right_contraction_via_hodge"):
        assert _failing_cases(name), name


def test_blade_sweeps_catch_a_wrong_wedge_sign(monkeypatch):
    # flipping only vector ^ bivector keeps wedge linear but breaks both laws
    wedge = Multivector.wedge
    monkeypatch.setattr(
        Multivector, "wedge",
        lambda self, other: -wedge(self, other) if (self.grade, other.grade) == (1, 2)
        else wedge(self, other))
    for name in ("wedge_graded_commutativity", "wedge_associative"):
        assert _failing_cases(name), name


INDEX_PROPERTIES = {"signature_matches_swap_count", "merge_matches_concatenation",
                    "merge_associative", "empty_merge_identity", "complement_merge_parity"}


def _flip_every_sign(rule):
    return lambda a, b, t: None if (hit := rule(a, b, t)) is None else (hit[0] ^ 1, hit[1])


def _flip_descending_merges(rule):
    return lambda a, b, t: None if (hit := rule(a, b, t)) is None else (hit[0] ^ (a > b), hit[1])


@pytest.mark.parametrize("mutate", [_flip_every_sign, _flip_descending_merges])
def test_index_properties_catch_a_wrong_wedge_rule(monkeypatch, mutate):
    # the public helpers run on the engine's rule, so a fault in it must show
    monkeypatch.setattr(indexes, "_wedge_rule", mutate(indexes._wedge_rule))
    failed = {item.name for item in run_suites("algebra", seed=42, trials=1) if not item.ok}
    assert failed >= INDEX_PROPERTIES
