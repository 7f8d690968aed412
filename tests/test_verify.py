import ast
import hashlib
import string
from fractions import Fraction
from pathlib import Path

import pytest

from mvcalc import indexes, variational, verify
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
    # only a name or a tuple or list of names: not a nested list, an int or bytes
    for suites in ([[0]], 42, b"algebra"):
        with pytest.raises(AlgebraError, match=r"^bad suites: expected a name or a list of names, got "):
            run_suites(suites)


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


@pytest.mark.parametrize("trials", [1, 2])
def test_small_full_run_is_green(trials):
    # the smallest trials drive every floor the sweeps keep: max(2, ...), max(4, ...), max(1, ...)
    outcomes = run_suites("all", seed=9, trials=trials)
    assert outcomes and all(item.ok for item in outcomes)


# stdout of ``mvcalc verify --suite all --seed 42 --trials 50`` before the
# blade products moved onto bitmasks; every later change must reproduce it
GOLDEN_REPORT = Path(__file__).parent / "golden" / "verify_seed42_trials50.txt"


def test_seed42_report_is_byte_identical_to_golden(full_run):
    report = format_report(full_run(42, 50))
    assert (report + "\n").encode() == GOLDEN_REPORT.read_bytes()


def test_the_benchmark_pins_the_golden_summary():
    # bench/workloads.py marks a seed-42 verify pass incorrect unless its summary is
    # SEED42_SUMMARY, so a change to the case or property counts must fail here first;
    # the file is read with ``ast``, so the benchmark is neither imported nor changed
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text())
    pinned = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(getattr(target, "id", None) == "SEED42_SUMMARY" for target in node.targets)]
    assert pinned == [GOLDEN_REPORT.read_text().splitlines()[-1]]


def test_raising_property_is_reported_as_fail(monkeypatch):
    def crashes(rng, trials):
        yield ("metric=({},{}) r={}", 1, 3, 1), True
        yield ("metric=({},{}) r={}", 1, 3, 2), True
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
                digest.update(f"{suite}/{name}|{verify._render(label)}|{ok}\n".encode())
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


@pytest.mark.parametrize("seed", [1, 7, 9, 42])
def test_route_property_catches_a_wrong_chain_rule_at_two_trials(monkeypatch, seed):
    # a negated slot matrix only shows on a field with second derivatives
    slot_matrix = variational.tensor_slot_matrix
    monkeypatch.setattr(variational, "tensor_slot_matrix", lambda L, a: -slot_matrix(L, a))
    name = "exterior_route_matches_tensor_route"
    prop = verify.SUITES["variational"][name]
    assert sum(not ok for _, ok in prop(rng_for(seed, f"variational/{name}"), 2))


def test_first_failing_label_is_rendered_as_written(monkeypatch):
    wedge = Multivector.wedge
    monkeypatch.setattr(
        Multivector, "wedge",
        lambda self, other: -wedge(self, other) if (self.grade, other.grade) == (1, 2)
        else wedge(self, other))
    outcomes = {item.name: item for item in run_suites("algebra", seed=1, trials=1)}
    # in (0,3), the first space with a bivector: e0 ^ e01 and e0 ^ e02 are zero either way,
    # e0 ^ e12 is the first flipped nonzero product, and (e0 ^ e1) ^ e2 the first triple
    assert outcomes["wedge_graded_commutativity"].first_counterexample == "(0,3) I=(0,) J=(1, 2)"
    assert outcomes["wedge_associative"].first_counterexample == "(0,3) I=(0,) J=(1,) K=(2,)"


def test_raising_property_names_the_last_case_as_rendered(monkeypatch):
    def raises_after_a_pass(rng, trials):
        yield ("I={} xi={} case={}", (0, 2), Fraction(1, 2), 0), True
        raise ValueError("bad")

    def raises_after_a_failure(rng, trials):
        yield ("I={} case={}", (1,), 0), True
        yield ("I={} case={}", (1,), 1), False
        raise ValueError("bad")

    suites = {"algebra": {"after_pass": raises_after_a_pass,
                          "after_failure": raises_after_a_failure}}
    monkeypatch.setattr(verify, "SUITES", suites)
    outcomes = {item.name: item for item in run_suites("algebra", seed=1, trials=1)}
    assert outcomes["after_pass"] == PropertyOutcome(
        "algebra", "after_pass", 2, 1, "raised ValueError: bad (after case I=(0, 2) xi=1/2 case=0)")
    # the first failing case is reported, not the raise that came after it
    assert outcomes["after_failure"] == PropertyOutcome(
        "algebra", "after_failure", 3, 2, "I=(1,) case=1")


def test_every_label_template_takes_exactly_its_values():
    # str.format ignores surplus values, so a dropped field would go unnoticed in the text
    for suite, props in verify.SUITES.items():
        for name, prop in props.items():
            for label, _ in prop(rng_for(1, f"{suite}/{name}"), 1):
                template, *values = label
                fields = [(field, spec, conversion)
                          for _, field, spec, conversion in string.Formatter().parse(template)
                          if field is not None]
                assert fields == [("", "", None)] * len(values), (suite, name, label)


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
