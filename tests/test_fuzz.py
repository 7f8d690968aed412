"""Fuzz properties for every text input: expressions, densities, equation
documents and ``derive``/``eval``/``verify`` command lines.

Outside text either works or fails in the documented way: the library
raises only ``AlgebraError`` (``ExprError`` is one) and the CLI exits 0
or 2, never 1 and never with a traceback.  The strategies mix arbitrary
text, runs of grammar pieces and well-formed sentences (or documents
with one value changed), so many examples get past the tokenizer and
reach evaluation, derivation or the document schema.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from mvcalc import cli, eqdoc
from mvcalc.blades import AlgebraError, Metric
from mvcalc.em import MaxwellConfig, derive_equations
from mvcalc.parser import parse_expr, parse_lagrangian
from mvcalc.variational import FieldSymbol

# bounded and untimed, so the tier-1 run stays short and a slow machine
# cannot fail it; too_slow would fire on generation time alone
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

HUGE = "9" * 5000  # past Python's 4,300-digit int-to-text limit

EXPR_PIECES = (
    "e[]", "e[0]", "e[1]", "e[0,1]", "e[1,2]", "e[0,1,2]", "e[2,1]", "e[9]", "e[-1]", "e[0,,1]",
    "x0", "x1", "x2^2", "x0^0", "x9", "0", "1", "2", "3/2", "1/0", HUGE, f"x{HUGE}",
    "^", ".", "_|", "|_", "+", "-", "*", "(", ")", "d^", "d_|", "dX", "hodge(", "invhodge(",
    "hodge", " ", "[", "]", ",", "A",
)
DENSITY_PIECES = (
    "(", ")", ".", "+", "-", "*", "A", "J", "a", "rho", "B", "d^", "d_|", "dX",
    "0", "1", "1/2", "-1/2", "3", "1/0", HUGE, " ",
)


def _text_or(pieces, grammar):
    """Arbitrary text, a run of grammar pieces, or a well-formed sentence."""
    return st.one_of(
        st.text(max_size=30),
        st.lists(st.sampled_from(pieces), max_size=14).map("".join),
        grammar,
    )


def _mostly(valid, invalid):
    """``valid`` nine draws in ten, else ``invalid``."""
    return st.integers(0, 9).flatmap(lambda i: invalid if i == 0 else valid)


_atoms = st.sampled_from(["e[]", "e[0]", "e[1]", "e[0,1]", "e[1,2]", "e[0,2,3]", "x0", "x1",
                          "x2^3", "0", "2", "3/2", "1/0", HUGE, f"x0^{HUGE[:4300]}"])
well_formed_exprs = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["^", ".", "_|", "|_", "+", "-"]), inner)
        .map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["d^ ", "d_| ", "-"]), inner).map("".join),
        st.tuples(st.sampled_from(["hodge", "invhodge"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
    ),
    max_leaves=6,
)
_slots = st.tuples(st.sampled_from(["", "d^", "d_|", "dX"]),
                   st.sampled_from(["A", "J", "a", "rho", "B"])).map("".join)
well_formed_densities = st.lists(
    st.tuples(st.sampled_from(["", "1/2*", "3*", "0*", "1/0*", f"{HUGE}*"]), _slots, _slots)
    .map(lambda t: f"{t[0]}({t[1]} . {t[2]})"),
    min_size=1, max_size=3,
).flatmap(lambda terms: st.sampled_from([" + ", " - "]).map(lambda op: op.join(terms)))
expressions = _text_or(EXPR_PIECES, well_formed_exprs)
densities = _text_or(DENSITY_PIECES, well_formed_densities)
metrics = st.sampled_from([Metric(0, 1), Metric(0, 3), Metric(1, 1), Metric(1, 3), Metric(2, 2)])


@FUZZ
@given(text=expressions, metric=metrics)
def test_parse_expr_raises_only_algebra_errors(text, metric):
    try:
        parse_expr(text, metric)
    except AlgebraError:
        pass


SYMBOL_TABLES = [
    [FieldSymbol("A", 1, "dynamical"), FieldSymbol("J", 1, "source")],
    [FieldSymbol("a", 0, "dynamical"), FieldSymbol("rho", 0, "source")],
    [FieldSymbol("A", 2, "dynamical"), FieldSymbol("B", 1, "dynamical")],
]


@FUZZ
@given(text=densities, symbols=st.sampled_from(SYMBOL_TABLES))
def test_parse_lagrangian_raises_only_algebra_errors(text, symbols):
    try:
        parse_lagrangian(text, symbols)
    except AlgebraError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
GOOD_DOC = json.loads(eqdoc.dumps(
    derive_equations(MaxwellConfig(Metric(1, 3), 2, mass=1, xi=2)), Metric(1, 3)))


@st.composite
def mutated_docs(draw):
    """A valid equation document with one value replaced or one key dropped."""
    doc = json.loads(json.dumps(GOOD_DOC))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
            break
        node = node[key]
    if keys and isinstance(node, dict) and draw(st.booleans()):
        del node[key]
    elif keys:
        node[key] = draw(json_values | st.sampled_from([HUGE, "1/0", -1, 17, "A", ["lap"]]))
    return json.dumps(doc)


@FUZZ
@given(text=st.one_of(st.text(max_size=40), json_values.map(json.dumps), mutated_docs()))
def test_eqdoc_loads_raises_only_algebra_errors(text):
    try:
        eq, metric = eqdoc.loads(text)
    except AlgebraError:
        return
    assert eqdoc.loads(eqdoc.dumps(eq, metric))[0] == eq


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


sizes = _mostly(st.integers(0, 4).map(str),
                st.one_of(st.integers(-2, 17).map(str), st.text(max_size=4)))
formats = _mostly(st.sampled_from(["text", "json"]), st.text(max_size=4))
rationals = _mostly(
    st.sampled_from(["0", "1", "1/2", "-3/2", "0.5", "1e3", "1_0", "1e3000", "1e999999999",
                     "1e-999999999", "1/0", "nan", HUGE]),
    st.text(max_size=8),
)
symbol_decls = _mostly(
    st.sampled_from(["A:1:dynamical,J:1:source", "a:0:dynamical,rho:0:source",
                     "A:2:dynamical,B:1:source", "A:one:dynamical", "A:1",
                     f"A:{HUGE}:dynamical", "A:99:dynamical"]),
    st.text(max_size=12),
)


@st.composite
def derive_argv(draw):
    needed = [("--k", sizes), ("--n", sizes)]
    optional = [("--format", formats)]
    if draw(st.booleans()):
        needed += [("--lagrangian", densities), ("--symbols", symbol_decls)]
    else:
        needed += [("--r", sizes)]
        optional += [("--m", rationals), ("--xi", rationals),
                     ("--preset", _mostly(st.sampled_from(["maxwell", "electrostatics", "dual"]),
                                          st.text(max_size=4)))]
    present = {flag: draw(st.integers(0, 9)) > 0 for flag, _ in needed}  # nine in ten
    present.update((flag, draw(st.booleans())) for flag, _ in optional)
    argv = ["derive"]
    for flag, values in draw(st.permutations(needed + optional)):
        if present[flag]:
            argv += [flag, draw(values)]
    return argv


@st.composite
def eval_argv(draw):
    argv = ["eval", "--k", draw(sizes), "--n", draw(sizes)]
    if draw(st.booleans()):
        argv += ["--format", draw(formats)]
    return argv + ["--", draw(expressions)]


@FUZZ
@given(argv=st.one_of(derive_argv(), eval_argv()))
def test_cli_requests_exit_0_or_2_without_a_traceback(argv):
    code, err = _call(argv)
    assert code in (0, 2)
    assert "Traceback" not in err


# a verify request runs whole suites, so its argv keeps to the two fast
# suites at one or two trials, and far fewer examples run
verify_argv = st.tuples(
    _mostly(st.sampled_from(["calculus", "em"]), st.sampled_from(["bogus", "", "ALL", "em,calculus"])),
    _mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "1.5", "x", "", HUGE])),
    _mostly(st.integers(-10**6, 10**6).map(str), st.sampled_from(["x", "", "1e3", "0x10", HUGE])),
).map(lambda t: ["verify", "--suite", t[0], "--trials", t[1], "--seed", t[2]])


@settings(FUZZ, max_examples=25)
@given(argv=verify_argv)
def test_cli_verify_requests_exit_0_or_2_without_a_traceback(argv):
    code, err = _call(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
