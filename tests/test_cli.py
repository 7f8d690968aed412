import ast
import collections
import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mvcalc import cli
from mvcalc.poly import digit_limit


def mvcalc(*argv):
    return subprocess.run(
        [sys.executable, "-m", "mvcalc", *argv],
        capture_output=True,
        text=True,
    )


def test_vacuum_derive():
    proc = mvcalc("derive", "--k", "1", "--n", "3", "--r", "2")
    assert proc.returncode == 0
    assert proc.stdout == "d_| ( d^ A ) = J\n"
    assert proc.stderr == ""


def test_electrostatics_derive():
    proc = mvcalc("derive", "--k", "0", "--n", "3", "--r", "1", "--preset", "electrostatics")
    assert proc.returncode == 0
    assert proc.stdout == "d_| ( d^ phi ) = rho\n"


def test_dual_derive():
    proc = mvcalc("derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1")
    assert proc.returncode == 0
    assert proc.stdout == "Jbar = d^ ( d_| Abar )\n"


def test_massive_gauge_fixed_derive():
    proc = mvcalc(
        "derive", "--k", "1", "--n", "3", "--r", "2", "--m", "1", "--xi", "1/2"
    )
    assert proc.returncode == 0
    assert proc.stdout == "d_| ( d^ A ) + A = J + 2 * d^ ( d_| A )\n"


def test_derive_output_is_deterministic():
    argvs = [
        ("derive", "--k", "1", "--n", "3", "--r", "2"),
        ("derive", "--k", "0", "--n", "3", "--r", "1", "--preset", "electrostatics"),
        ("derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1"),
    ]
    for argv in argvs:
        first = mvcalc(*argv)
        second = mvcalc(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_derive_json_document():
    proc = mvcalc("derive", "--k", "1", "--n", "3", "--r", "2", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 1
    doc = json.loads(proc.stdout)
    assert doc == {
        "metric": {"k": 1, "n": 3},
        "grade": 1,
        "lhs": [{"coeff": "1", "ops": ["int", "ext"], "symbol": "A"}],
        "rhs": [{"coeff": "1", "ops": [], "symbol": "J"}],
        "symbols": {
            "A": {"grade": 1, "role": "dynamical"},
            "J": {"grade": 1, "role": "source"},
        },
    }


def test_custom_lagrangian_exterior():
    proc = mvcalc(
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "-1/2*(d^A . d^A) + (J . A)",
        "--symbols", "A:1:dynamical,J:1:source",
    )
    assert proc.returncode == 0
    assert proc.stdout == "J = d_| ( d^ A )\n"


def test_custom_lagrangian_tensor():
    proc = mvcalc(
        "derive", "--k", "0", "--n", "3",
        "--lagrangian", "1/2*(dX a . dX a) + (rho . a)",
        "--symbols", "a:0:dynamical,rho:0:source",
    )
    assert proc.returncode == 0
    assert proc.stdout == "rho = lap a\n"


def test_eval_text_and_json():
    proc = mvcalc("eval", "e[0] ^ e[1]", "--k", "1", "--n", "3")
    assert proc.returncode == 0
    assert proc.stdout == "e[0,1]\n"
    proc = mvcalc("eval", "d^ (x0 ^ e[1])", "--k", "1", "--n", "3", "--format", "json")
    assert proc.returncode == 0
    assert proc.stdout == (
        '{"grade":2,"metric":{"k":1,"n":3},'
        '"terms":[{"coeff":"-1","indices":[0,1]}]}\n'
    )


def test_eval_reports_offsets():
    proc = mvcalc("eval", "e[0] + e[0,1]", "--k", "1", "--n", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "(at offset 5)" in proc.stderr


def test_deep_nesting_exits_2_without_a_traceback():
    for text in ("-" * 5000 + "1", "(" * 3000 + "1" + ")" * 3000, "d^ " * 3000 + "x0"):
        proc = mvcalc("eval", "--k", "1", "--n", "3", "--", text)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: expression nested deeper than")
        assert "Traceback" not in proc.stderr


def test_usage_errors_exit_2():
    assert mvcalc("derive", "--k", "1", "--n", "3").returncode == 2  # missing --r
    assert mvcalc("derive", "--k", "1", "--n", "3", "--r", "0").returncode == 2
    assert mvcalc("derive", "--nope").returncode == 2
    assert mvcalc("eval", "e[9]", "--k", "1", "--n", "3").returncode == 2
    assert mvcalc("derive", "--k", "1", "--n", "3", "--r", "1", "--xi", "1").returncode == 2


def test_dual_preset_rejects_mass_and_gauge_terms():
    proc = mvcalc("derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1", "--m", "1")
    assert proc.returncode == 2
    assert "neither --m nor --xi" in proc.stderr
    proc = mvcalc("derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1", "--xi", "1")
    assert proc.returncode == 2


def test_custom_lagrangian_needs_a_dynamical_symbol():
    proc = mvcalc(
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "(J . J)",
        "--symbols", "J:1:source",
    )
    assert proc.returncode == 2
    assert "dynamical" in proc.stderr


def test_dx_slot_on_a_source_keeps_the_exterior_route():
    code, out, err = call([
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "(dX J . dX J) + 1/2*(d^A . d^A) + (J . A)",
        "--symbols", "A:1:dynamical,J:1:source",
    ])
    assert (code, out, err) == (0, "J = -d_| ( d^ A )\n", "")


def test_mixed_route_slots_name_the_mix_not_a_library_function():
    code, out, err = call([
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "(dX A . dX A) + (d^A . d^A)",
        "--symbols", "A:1:dynamical",
    ])
    assert (code, out) == (2, "")
    assert err == ("error: the density mixes the dX slots of the tensor route "
                   "with the d^/d_| slots of the exterior route\n")


@pytest.mark.parametrize("density", ["0*(A . A)", "(A . A) - (A . A)"])
def test_cancelled_density_has_nothing_to_vary(density):
    code, out, err = call(["derive", "--k", "1", "--n", "3", "--lagrangian", density,
                           "--symbols", "A:1:dynamical"])
    assert (code, out, err) == (2, "", "error: the density has no dynamical symbol to vary\n")


def test_bad_symbol_declaration():
    proc = mvcalc(
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "(A . A)",
        "--symbols", "A:one:dynamical",
    )
    assert proc.returncode == 2
    assert "bad grade" in proc.stderr


@pytest.mark.parametrize("decls", ["A:1:source,A:1:dynamical", "A:1:dynamical,A:1:source",
                                   "A:1:dynamical, A : 1 : dynamical"])
def test_symbol_declared_twice_is_refused(decls):
    assert call(["derive", "--k", "1", "--n", "3", "--lagrangian", "(A . A)",
                 "--symbols", decls]) == (2, "", "error: field symbol 'A' declared twice\n")


@pytest.mark.parametrize("grade", ["\u0661", "\uff11", "1\u0660", "\U0001d7d9"])
def test_symbol_grades_take_only_ascii_digits(grade):
    decls = f"A:{grade}:dynamical"
    assert call(["derive", "--k", "1", "--n", "3", "--lagrangian", "(A . A)",
                 "--symbols", decls]) == (
        2, "", f"error: bad grade in symbol declaration {decls!r}\n")


def test_verify_subcommand_report_shape():
    proc = mvcalc("verify", "--suite", "algebra", "--seed", "7", "--trials", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("SUMMARY")
    again = mvcalc("verify", "--suite", "algebra", "--seed", "7", "--trials", "2")
    assert again.stdout == proc.stdout


# -- in-process requests -----------------------------------------------------

README_EXAMPLES = [
    (["derive", "--k", "1", "--n", "3", "--r", "2"], "d_| ( d^ A ) = J\n"),
    (["derive", "--k", "0", "--n", "3", "--r", "1", "--preset", "electrostatics"],
     "d_| ( d^ phi ) = rho\n"),
    (["derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1"],
     "Jbar = d^ ( d_| Abar )\n"),
    (["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "1", "--xi", "1/2"],
     "d_| ( d^ A ) + A = J + 2 * d^ ( d_| A )\n"),
    (["derive", "--k", "1", "--n", "3", "--lagrangian", "-1/2*(d^A . d^A) + (J . A)",
      "--symbols", "A:1:dynamical,J:1:source"], "J = d_| ( d^ A )\n"),
    (["derive", "--k", "0", "--n", "3", "--lagrangian", "1/2*(dX a . dX a) + (rho . a)",
      "--symbols", "a:0:dynamical,rho:0:source"], "rho = lap a\n"),
    (["eval", "e[0] ^ e[1] _| e[0,1,2]", "--k", "1", "--n", "3"], "-e[2]\n"),
    (["eval", "d^ (x0 ^ e[1])", "--k", "1", "--n", "3", "--format", "json"],
     '{"grade":2,"metric":{"k":1,"n":3},"terms":[{"coeff":"-1","indices":[0,1]}]}\n'),
]


def test_readme_golden_file_holds_the_readme_outputs():
    # CI diffs the eight README commands, run as ``python -W error -m mvcalc``, against it
    golden = pathlib.Path(__file__).parent / "golden" / "readme_cli.txt"
    assert golden.read_text() == "".join(out for _, out in README_EXAMPLES)
    assert [call(argv) for argv, _ in README_EXAMPLES] == [
        (0, out, "") for _, out in README_EXAMPLES]


MIXED_REQUESTS = [argv for argv, _ in README_EXAMPLES] + [
    ["eval", "e[0] + e[0,1]", "--k", "1", "--n", "3"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--format", "xml"],
    ["--help"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--format", "json"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "3/2", "--xi", "1/2"],
    ["derive", "--k", "1", "--n", "3", "--r", "2"],
]


def call(argv):
    """(exit code, stdout, stderr) of one in-process ``mvcalc`` request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_leaks_no_state_between_requests():
    def on_fresh_parser(argv):
        cli._arg_parser.cache_clear()
        return call(argv)

    expected = [on_fresh_parser(argv) for argv in MIXED_REQUESTS]
    assert expected[:8] == [(0, out, "") for _, out in README_EXAMPLES]
    assert [code for code, _, _ in expected[8:]] == [2, 2, 0, 0, 0, 0]
    cli._arg_parser.cache_clear()
    forward = [call(argv) for argv in MIXED_REQUESTS]
    backward = [call(argv) for argv in reversed(MIXED_REQUESTS)]
    assert forward == expected
    assert backward == expected[::-1]


def test_run_builds_the_parser_once_per_process(monkeypatch):
    build = cli._build
    built = []

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build", counting_build)
    cli._arg_parser.cache_clear()
    for argv in MIXED_REQUESTS * 3:
        call(argv)
    assert len(built) == 1
    # the public builder still hands out new parsers
    assert cli.build_arg_parser() is not cli.build_arg_parser()
    # importing the CLI builds nothing; the first request does
    probe = "import mvcalc.cli as c; print(c._arg_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True).stdout == "0\n"


def test_cli_reads_no_private_argparse_name():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    names = collections.Counter(
        node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name)
        else node.value for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name, ast.Constant)))
    private = {"_actions", "_StoreAction", "_subparsers", "_group_actions",
               "_option_string_actions"}
    assert not private & names.keys()
    # the arguments derive and eval share are declared once
    assert [names[flag] for flag in ("--k", "--n", "--format")] == [1, 1, 1]


def _derive_with(*flags):
    return call(["derive", "--k", "1", "--n", "3", "--r", "2", *flags])


@pytest.mark.parametrize("literal, mass_term", [
    ("1e3", "1000000 * A"),
    ("1E2", "10000 * A"),
    ("0.5", "1/4 * A"),
    (".5", "1/4 * A"),
    ("2.5e-1", "1/16 * A"),
    ("3/2", "9/4 * A"),
    (" 2 ", "4 * A"),
])
def test_mass_literal_forms(literal, mass_term):
    assert _derive_with("--m", literal) == (0, f"d_| ( d^ A ) + {mass_term} = J\n", "")


def test_mass_literal_reads_underscores_where_fraction_does():
    try:
        Fraction("1_000")  # Python 3.11 and later
    except ValueError:
        assert _derive_with("--m", "1_000")[0] == 2
    else:
        assert _derive_with("--m", "1_000") == (0, "d_| ( d^ A ) + 1000000 * A = J\n", "")


def test_rational_literals_are_sized_before_they_are_built():
    limit = digit_limit()
    # 1/xi has as many digits as xi: the largest printable literal still works
    code, out, err = _derive_with("--xi", f"1e{limit - 1}")
    assert code == 0 and err == ""
    assert out == f"d_| ( d^ A ) = J + 1/1{'0' * (limit - 1)} * d^ ( d_| A )\n"
    for flag, literal in [("--xi", f"1e{limit}"), ("--m", "1e999999999"),
                          ("--m", "1e-999999999"), ("--xi", "0e99999"),
                          ("--m", f"1/{'9' * (limit + 1)}"), ("--m", f"1e{'9' * 5000}")]:
        code, out, err = _derive_with(flag, literal)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"rational number longer than {limit} digits")


def test_huge_integers_exit_2_without_a_traceback():
    nines = "9" * 5000
    half = "9" * 3000
    for argv in (
        ["eval", "--k", "1", "--n", "3", nines],
        ["eval", "--k", "1", "--n", "3", f"x{nines} ^ e[1]"],
        ["eval", "--k", "1", "--n", "3", "1/0"],
        ["eval", "--k", "1", "--n", "3", f"{half} ^ {half}"],
        ["eval", "--k", "1", "--n", "3", "--format", "json", f"{half} ^ {half} ^ e[0]"],
        ["eval", "--k", "1", "--n", "3", f"x0^{half} ^ x0^{half} ^ x0^{nines[:4300]}"],
        ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "1e3000"],
        ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "1e3000", "--format", "json"],
        ["derive", "--k", "1", "--n", "3", "--lagrangian", f"{nines}*(A . A)",
         "--symbols", "A:1:dynamical"],
    ):
        code, out, err = call(argv)
        assert (code, out) == (2, ""), argv[:6]
        assert err.startswith("error: ") and "Traceback" not in err


def test_literals_are_sized_where_python_has_no_digit_limit(monkeypatch):
    # before Python 3.10.7 there is no limit to read, and 0 switches it off
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert digit_limit() == 4300
    assert _derive_with("--m", "1e999999999")[:2] == (2, "")
    assert _derive_with("--m", "1e3") == (0, "d_| ( d^ A ) + 1000000 * A = J\n", "")
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    assert digit_limit() == 4300


def test_suite_choices_are_the_verify_suites():
    from mvcalc import verify

    assert cli._SUITE_NAMES == tuple(sorted(verify.SUITES))
    code, _, err = call(["verify", "--suite", "bogus"])
    assert code == 2
    choices = ", ".join(f"'{name}'" for name in [*sorted(verify.SUITES), "all"])
    assert f"invalid choice: 'bogus' (choose from {choices})" in err


# -- direct subcommand dispatch ------------------------------------------------------

# argv pieces: the subcommand names, known flags and their values, abbreviations,
# '--', help flags, unknown flags and extra positionals
_FIRST = ["derive", "verify", "eval", "der", "evaluate", "frobnicate", "-h", "--help",
          "--he", "--", "-", "", "--k", "e[0]", "--format=json"]
_REST = ["--k", "--n", "1", "2", "0", "-1", "--r", "--preset", "maxwell", "dual",
         "electrostatics", "--m", "1/2", "--xi", "--lagrangian", "(A . A)", "--symbols",
         "A:1:dynamical", "--format", "json", "xml", "--form", "--forma=json", "--he", "-h",
         "--help", "--", "--suite", "algebra", "--seed", "--trials", "--bogus", "-x",
         "extra", "e[0]", "e[1]", "x0 ^ e[1]", "--k=1", "--n=2", "derive", "eval", "verify",
         "", "-1/2*(A . A)", "٣", "1/0", "-1/2"]
_EXPRS = ["e[0]", "x0 ^ e[1]", "e[1] _| e[0,1]", "2/0", "e[0", "-e[0]"]

# each of these leaves arguments the subcommand parser does not recognize
_LEFTOVERS = [
    ["eval", "e[0]", "e[1]", "--k", "1", "--n", "3"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--bogus"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "extra"],
    ["eval", "e[0]", "--k", "1", "--n", "3", "--", "-x"],
    ["verify", "--suite", "em", "derive"],
]


def fuzzed_argv(rng):
    argv = [rng.choice(_FIRST[:3] if rng.random() < 0.7 else _FIRST)]
    if argv[0] in ("derive", "eval") and rng.random() < 0.6:  # mostly complete requests
        argv += ["--k", rng.choice("01"), "--n", rng.choice("0123")]
        argv += ["--r", rng.choice("125")] if argv[0] == "derive" else [rng.choice(_EXPRS)]
    argv += [rng.choice(_REST) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        argv[1:] = rng.sample(argv[1:], len(argv) - 1)
    return argv


def test_dispatch_matches_the_full_parse(monkeypatch):
    """``run`` against one top-level ``parse_args`` then the handler: the same outcome."""
    # verify would run the suites; its handler prints the parsed namespace instead
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: print(sorted(vars(args).items())) or 0)
    rng = random.Random("unit/cli-dispatch")
    requests = MIXED_REQUESTS + _LEFTOVERS + [[]] + [fuzzed_argv(rng) for _ in range(1500)]
    direct = [call(argv) for argv in requests]
    full = cli.build_arg_parser()
    monkeypatch.setattr(cli, "_parse", full.parse_args)
    assert [call(argv) for argv in requests] == direct
    top_usage = "usage: mvcalc [-h] {derive,verify,eval} ...\n"
    for argv, (code, out, err) in zip(_LEFTOVERS, direct[len(MIXED_REQUESTS):]):
        assert (code, out) == (2, "") and err.startswith(top_usage), argv
        assert "unrecognized arguments" in err
    # the fuzz reaches handlers, subcommand errors and the top-level parser alike
    outcomes = collections.Counter(
        "top" if err.startswith(top_usage) else "sub" if err.startswith("usage: mvcalc ")
        else code for code, _, err in direct)
    assert set(outcomes) == {0, 2, "sub", "top"} and min(outcomes.values()) > 20, outcomes


@pytest.fixture
def argparse_passes(monkeypatch):
    """Names each ``parse_args``/``parse_known_args`` call on fresh shared parsers."""
    cli._arg_parser.cache_clear()
    parser, subcommands = cli._arg_parser()
    passes = []
    for target in [parser, *(sub for sub, _ in subcommands.values())]:
        for method in ("parse_args", "parse_known_args"):
            def spy(*args, _real=getattr(target, method), _name=f"{target.prog} {method}"):
                passes.append(_name)
                return _real(*args)
            monkeypatch.setattr(target, method, spy)
    yield passes
    cli._arg_parser.cache_clear()


# the fifth README density, '-1/2*(d^A . d^A) + (J . A)', starts with "-": argparse reads it
_DASH_VALUE = README_EXAMPLES[4][0]
_DIRECT = [argv for argv, _ in README_EXAMPLES if argv is not _DASH_VALUE] + [
    ["verify", "--trials", "3", "--suite", "em", "--seed", "7", "--trials", "5"]]
_DECLINED = [
    ["derive", "--k", "1", "--n", "3", "--lag", "(A . A)", "--symbols", "A:1:dynamical"],
    ["eval", "e[0]", "--k=1", "--n", "3"],
    ["eval", "-h"],
    ["eval", "e[0]", "--k", "-1", "--n", "3"],
    _DASH_VALUE,
    ["eval", "--k", "1", "--n", "3", "--", "-e[0]"],
    ["eval", "e[0]", "--n", "3"],
    ["eval", "e[0]", "--k", "1", "--n", "3", "--format", "xml"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "abc"],
    ["eval", "e[0]", "e[1]", "--k", "1", "--n", "3"],
    ["eval", "e[0]", "--k", 0, "--n", "3"],  # argparse reads a falsy non-str item
]


def test_well_formed_requests_are_read_without_argparse(argparse_passes, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: print(sorted(vars(args).items())) or 0)
    assert len(_DIRECT) == 8
    for argv in _DIRECT:
        assert call(argv)[0] == 0
        assert argparse_passes == [], argv
    verify = "[('command', 'verify'), ('seed', 7), ('suite', 'em'), ('trials', 5)]\n"
    assert call(_DIRECT[-1]) == (0, verify, "")
    for argv in _DECLINED:
        argparse_passes.clear()
        call(argv)
        assert argparse_passes[:1] == [f"mvcalc {argv[0]} parse_known_args"], argv
    assert call(_DECLINED[-1]) == (0, "e[0]\n", "")


@pytest.mark.parametrize("flag, literal", [
    ("--m", "١"), ("--xi", "٢/٣"), ("--m", "１"), ("--xi", "２/3"),
    ("--m", "1e٣"), ("--m", "1.٥"), ("--xi", "1/\U0001d7d9"), ("--m", "1_٠"),
])
def test_rational_literals_take_ascii_digits_only(flag, literal):
    Fraction(literal)  # Fraction reads each of them, so the CLI must refuse it first
    code, out, err = _derive_with(flag, literal)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"mvcalc derive: error: argument {flag}: " \
                                   f"not a rational number: {literal!r}"


def test_rational_literals_may_be_surrounded_by_unicode_whitespace():
    assert _derive_with("--m", "　 2\xa0") == (0, "d_| ( d^ A ) + 4 * A = J\n", "")


# The ``mvcalc eval`` requests whose output tests/golden/poly_eval_cli.txt holds, in its order,
# and which the tier-1 workflow runs as processes: mixed rational and polynomial blades,
# multi-term polynomials, derivatives that leave constants, the Hodge duals, text and JSON
POLY_EVAL = [
    ["x0 ^ e[0] + 3 ^ e[1] - 1/2 ^ e[2]", "--k", "1", "--n", "3"],
    ["x0 ^ e[0] + 3 ^ e[1] - 1/2 ^ e[2]", "--k", "1", "--n", "3", "--format", "json"],
    ["(x0 + 2 ^ x1^2 - 3/2 ^ x2) ^ e[1] + x3 ^ e[2]", "--k", "1", "--n", "3"],
    ["d^ (x0 ^ e[1] + x1 ^ x2 ^ e[3])", "--k", "1", "--n", "3"],
    ["d_| (x1 ^ e[1] + x2 ^ e[2])", "--k", "1", "--n", "3", "--format", "json"],
    ["hodge(x0 ^ e[0] - 2 ^ x1^2 ^ e[1] + 5 ^ e[3])", "--k", "1", "--n", "3"],
    ["(x0 ^ e[0] + x1 ^ e[1] + e[2]) ^ (x1 ^ e[0] - e[2])", "--k", "1", "--n", "3",
     "--format", "json"],
    ["(x0 ^ e[0] + e[1]) . (x0 ^ e[0] + x1 ^ e[1])", "--k", "1", "--n", "3"],
    ["(x0 + 1) ^ (x0 - 1)", "--k", "0", "--n", "2"],
    ["invhodge(d^ (x0^2 ^ x3 ^ e[1] + x2 ^ e[0]))", "--k", "2", "--n", "2", "--format", "json"],
]
POLY_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "poly_eval_cli.txt"


def test_polynomial_eval_output_matches_the_golden_file():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in POLY_EVAL:
            assert cli.run(["eval", *argv]) == 0, argv
    assert out.getvalue() == POLY_GOLDEN.read_text()


# The ``mvcalc eval`` requests whose output tests/golden/rational_eval_cli.txt holds, in its
# order, and which the tier-1 workflow runs as processes: products of multi-term rational
# sums, which run on integer numerators over each operand's common denominator, with an
# integral operand, a sum that cancels to zero and a Hodge dual, in text and JSON.  The
# golden file predates the per-value cache of those numerators.
RATIONAL_EVAL = [
    ["(1/2 ^ e[0] + 2/3 ^ e[1]) ^ (3/4 ^ e[2] - 5/6 ^ e[3])", "--k", "1", "--n", "3"],
    ["(1/2 ^ e[0] + 2/3 ^ e[1]) ^ (3/4 ^ e[2] - 5/6 ^ e[3])", "--k", "1", "--n", "3",
     "--format", "json"],
    ["(1/2 ^ e[0] - 1/3 ^ e[2]) _| (2/5 ^ e[0,1] + 3/7 ^ e[0,2] - 1/4 ^ e[1,2])",
     "--k", "1", "--n", "3"],
    ["(2/3 ^ e[0,1] + 1/5 ^ e[1,2] - 7/2 ^ e[0,3]) |_ (3/4 ^ e[0] + 1/2 ^ e[1])",
     "--k", "1", "--n", "3", "--format", "json"],
    ["(e[0] + 2 ^ e[1]) _| (1/2 ^ e[0,1] + 1/3 ^ e[1,2])", "--k", "2", "--n", "1"],
    ["(1/2 ^ e[0] + 2/3 ^ e[1] - 3/4 ^ e[2]) . (5/6 ^ e[0] - 7/8 ^ e[1] + 1/9 ^ e[2])",
     "--k", "1", "--n", "3"],
    ["(1/3 ^ e[0,1] + 1/6 ^ e[2,3]) ^ (1/3 ^ e[0,1] - 1/6 ^ e[2,3])", "--k", "0", "--n", "4",
     "--format", "json"],
    ["hodge(1/2 ^ e[0] - 2/3 ^ e[1] + 5/4 ^ e[3])", "--k", "1", "--n", "3"],
]
RATIONAL_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "rational_eval_cli.txt"


def test_rational_eval_output_matches_the_golden_file():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in RATIONAL_EVAL:
            assert cli.run(["eval", *argv]) == 0, argv
    assert out.getvalue() == RATIONAL_GOLDEN.read_text()


def test_running_out_of_memory_exits_2_with_one_error_line(monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_eval", exhausted)
    assert call(["eval", "e[0] ^ e[1]", "--k", "1", "--n", "3"]) == (
        2, "", "error: out of memory\n")
    assert call(["derive", "--k", "1", "--n", "3", "--r", "2"]) == (0, "d_| ( d^ A ) = J\n", "")


# One request per ExprError raise site in mvcalc.parser that the CLI reaches, in the order
# tests/golden/parse_errors_cli.txt holds their stderr line and exit code; the tier-1
# workflow runs the same requests as processes.  The golden file predates the parser's
# tuple tokens and its single operator loop, which must keep every message and offset.
PARSE_ERRORS = [
    ["eval", "e[0] $ e[1]"],
    ["eval", "e[0] ^ " + "9" * 5000],
    ["eval", "e[0] ^ 1/0"],
    ["eval", "(e[0] + e[1]"],
    ["eval", "hodge e[0]"],
    ["eval", "e[0] )"],
    ["eval", "e[0] ^ grad(e[1])"],
    ["eval", "e[0] ^ )"],
    ["eval", "(" * 101 + "e[0]" + ")" * 101],
    ["eval", "e[0] ^ x4"],
    ["eval", "e[0] ^ x0^32768"],
    ["eval", "e[0] ^ e[0;1]"],
    ["eval", "e[0] ^ e[1,1]"],
    ["eval", "e[0] ^ e[4]"],
    ["eval", "e[0] + e[0,1]"],
    ["eval", "e[0] - e[0,1]"],
    ["eval", "e[0] . e[0,1]"],
    ["derive", "--lagrangian", "(A . A) $"],
    ["derive", "--lagrangian", "1/0*(A . A)"],
    ["derive", "--lagrangian", "2 (A . A)"],
    ["derive", "--lagrangian", "(A . A) )"],
    ["derive", "--lagrangian", "(d^A . d^B)"],
    ["derive", "--lagrangian", "(A . A) + (J . J)", "--symbols", "A:1:dynamical,J:1:dynamical"],
]
PARSE_ERRORS_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "parse_errors_cli.txt"


def test_parse_errors_match_the_golden_file():
    lines = []
    for command, *rest in PARSE_ERRORS:
        if command == "derive" and "--symbols" not in rest:
            rest += ["--symbols", "A:1:dynamical"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, *rest, "--k", "1", "--n", "3"])
        assert out.getvalue() == ""
        lines.append(f"{err.getvalue()}exit {code}\n")
    assert "".join(lines) == PARSE_ERRORS_GOLDEN.read_text()


# One request per domain error the CLI reaches past the parser (an int argument out of range,
# a bad mass, gauge term or symbol grade), in the order tests/golden/domain_errors_cli.txt holds
# their stderr line and exit code; the tier-1 workflow runs the same requests as processes.
DOMAIN_ERRORS = [
    ["derive", "--k", "-1", "--n", "3", "--r", "1"],
    ["derive", "--k", "9", "--n", "9", "--r", "1"],
    ["derive", "--k", "1", "--n", "3", "--r", "9"],
    ["derive", "--k", "1", "--n", "3", "--r", "0"],
    ["derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "9"],
    ["derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "-1"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--m=-1/2"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--xi", "0"],
    ["derive", "--k", "1", "--n", "3", "--r", "1", "--xi", "1"],
    ["derive", "--k", "1", "--n", "3", "--lagrangian", "(A . A)", "--symbols", "A:-1:dynamical"],
    ["derive", "--k", "1", "--n", "3", "--lagrangian", "(A . A)", "--symbols", "A:5:dynamical"],
    ["eval", "e[0]", "--k", "-1", "--n", "3"],
    ["verify", "--trials", "0"],
]
DOMAIN_ERRORS_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "domain_errors_cli.txt"


def test_domain_errors_match_the_golden_file():
    lines = []
    for argv in DOMAIN_ERRORS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert out.getvalue() == ""
        lines.append(f"{err.getvalue()}exit {code}\n")
    assert "".join(lines) == DOMAIN_ERRORS_GOLDEN.read_text()
