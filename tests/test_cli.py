import json
import subprocess
import sys


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


def test_bad_symbol_declaration():
    proc = mvcalc(
        "derive", "--k", "1", "--n", "3",
        "--lagrangian", "(A . A)",
        "--symbols", "A:one:dynamical",
    )
    assert proc.returncode == 2
    assert "bad grade" in proc.stderr


def test_verify_subcommand_report_shape():
    proc = mvcalc("verify", "--suite", "algebra", "--seed", "7", "--trials", "2")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("SUMMARY")
    again = mvcalc("verify", "--suite", "algebra", "--seed", "7", "--trials", "2")
    assert again.stdout == proc.stdout
