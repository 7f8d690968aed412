import random
from fractions import Fraction

import pytest

from mvcalc import parser
from mvcalc.blades import Metric, Multivector
from mvcalc.em import MaxwellConfig, build_lagrangian
from mvcalc.parser import MAX_NESTING, ExprError, parse_expr, parse_lagrangian, tokenize
from mvcalc.poly import PolyScalar
from mvcalc.randgen import random_field, rng_for
from mvcalc.verify import BATTERY_METRICS
from mvcalc.variational import DerivOp, FieldSymbol

M13 = Metric(1, 3)


def b(indices, coeff=1):
    return Multivector.blade(M13, indices, coeff)


def test_round_trip_through_text():
    rng = rng_for(103, "unit/parser-round-trip")
    for metric in BATTERY_METRICS:
        for grade in range(metric.dim + 1):
            for _ in range(8):
                field = random_field(rng, metric, grade)
                assert parse_expr(str(field), metric) == field


def test_round_trip_of_zero():
    assert parse_expr(str(Multivector.zero(M13, 3)), M13) == Multivector.zero(M13, 3)


def test_tokenizer_keeps_source_offsets():
    kinds = [(t.kind, t.pos) for t in tokenize("d^ x0 _| |_ dX e[0,1]")]
    assert kinds == [
        ("DEXT", 0),
        ("POLY", 3),
        ("LINT", 6),
        ("RINT", 9),
        ("DTENS", 12),
        ("BLADE", 15),
        ("EOF", 21),
    ]


def test_names_starting_with_underscore_still_tokenize():
    # the contraction glyph _| must win over NAME, but _x alone is a name
    assert [t.kind for t in tokenize("_x _|")] == ["NAME", "LINT", "EOF"]


def test_literals():
    assert parse_expr("3/2", M13) == Multivector.scalar(M13, Fraction(3, 2))
    assert parse_expr("e[]", M13) == Multivector.scalar(M13, 1)
    assert parse_expr("x1", M13) == Multivector.scalar(
        M13, PolyScalar.variable(4, 1)
    )
    assert parse_expr("x2^3", M13) == Multivector.scalar(
        M13, PolyScalar.variable(4, 2, 3)
    )
    assert parse_expr("e[0,2,3]", M13) == b((0, 2, 3))


def test_scaling_and_sums():
    assert parse_expr("2 ^ e[0] - e[0]", M13) == b((0,))
    assert parse_expr("-e[1] + e[1] + e[1]", M13) == b((1,))
    assert parse_expr("(x0 + 1) ^ e[2]", M13) == b((2,), PolyScalar.variable(4, 0)) + b((2,))


def test_product_pins():
    assert parse_expr("e[0] ^ e[1]", M13) == b((0, 1))
    assert parse_expr("e[0] . e[0]", M13) == Multivector.scalar(M13, -1)
    assert parse_expr("e[0] _| e[0,1]", M13) == b((1,))
    assert parse_expr("e[0,1] |_ e[1]", M13) == b((0,), -1)
    assert parse_expr("hodge(e[0])", M13) == b((1, 2, 3), -1)
    assert parse_expr("invhodge(hodge(x0 ^ e[1,2]))", M13) == b(
        (1, 2), PolyScalar.variable(4, 0)
    )


def test_derivative_pins():
    assert parse_expr("d^ (x0 ^ e[1])", M13) == b((0, 1), -1)
    assert parse_expr("d_| (x0 ^ e[0,1])", M13) == b((1,), -1)
    assert parse_expr("d^ ( d^ (x0^2 ^ x1 ^ e[2]) )", M13).is_zero()


def test_term_operators_associate_left():
    # (e0 ^ e1) _| e012, not e0 ^ (e1 _| e012)
    assert parse_expr("e[0] ^ e[1] _| e[0,1,2]", M13) == b((2,), -1)


def test_offsets_on_errors():
    with pytest.raises(ExprError, match="unknown token '@'") as err:
        parse_expr("e[0] @ e[1]", M13)
    assert err.value.offset == 5
    with pytest.raises(ExprError, match="strictly increasing") as err:
        parse_expr("e[1,0]", M13)
    assert err.value.offset == 0
    with pytest.raises(ExprError, match="coordinate x9 out of range"):
        parse_expr("x9", M13)
    with pytest.raises(ExprError, match="blade index 7 out of range"):
        parse_expr("e[7]", M13)
    with pytest.raises(ExprError, match="nonnegative"):
        parse_expr("e[-1]", M13)
    with pytest.raises(ExprError, match="trailing input") as err:
        parse_expr("1 1", M13)
    assert err.value.offset == 2
    with pytest.raises(ExprError, match="end of input"):
        parse_expr("1 +", M13)
    with pytest.raises(ExprError, match="unknown name 'foo'"):
        parse_expr("foo", M13)
    with pytest.raises(ExprError, match="bad blade literal"):
        parse_expr("e[0, b]", M13)


def test_grade_mismatch_reported_at_operator():
    with pytest.raises(ExprError) as err:
        parse_expr("e[0] + e[0,1]", M13)
    assert err.value.offset == 5


def test_unclosed_call():
    with pytest.raises(ExprError, match="expected '\\)'") as err:
        parse_expr("hodge(e[0]", M13)
    assert err.value.offset == 10


DEEP = {
    "unary minus": "-" * 5000 + "1",
    "parentheses": "(" * 3000 + "e[1]" + ")" * 3000,
    "d^ prefixes": "d^ " * 3000 + "x0",
    "hodge calls": "hodge(" * 3000 + "e[1]" + ")" * 3000,
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_nesting_past_the_cap_is_a_parse_error(text):
    with pytest.raises(ExprError, match=f"nested deeper than {MAX_NESTING}") as err:
        parse_expr(text, M13)
    assert 0 < err.value.offset < len(text)


def test_nesting_at_the_cap_still_parses():
    assert parse_expr("-" * MAX_NESTING + "1", M13) == Multivector.scalar(M13, 1)
    assert parse_expr("(" * MAX_NESTING + "e[1]" + ")" * MAX_NESTING, M13) == b((1,))
    assert parse_expr("d^ " * MAX_NESTING + "x0", M13).is_zero()
    nested = "-(" * (MAX_NESTING // 2) + "e[1]" + ")" * (MAX_NESTING // 2)
    assert parse_expr(nested, M13) == b((1,))
    with pytest.raises(ExprError, match="nested deeper"):
        parse_expr("-" + nested, M13)


SYMBOLS = (
    FieldSymbol("A", 1, "dynamical"),
    FieldSymbol("J", 1, "source"),
)


def test_lagrangian_matches_builtin_construction():
    L = parse_lagrangian("-1/2*(d^A . d^A) + (J . A)", SYMBOLS)
    assert L == build_lagrangian(MaxwellConfig(M13, 2))


def test_lagrangian_with_all_term_forms():
    L = parse_lagrangian(
        "-1/2*(d^A . d^A) + (J . A) - 2*(A . A) - 1*(d_|A . d_|A)", SYMBOLS
    )
    coeffs = [t[0] for t in L.terms]
    assert coeffs == [Fraction(-1, 2), 1, -2, -1]
    assert L.terms[3][1][0] is DerivOp.INT


def test_lagrangian_tensor_slots():
    a = FieldSymbol("a", 0, "dynamical")
    rho = FieldSymbol("rho", 0, "source")
    L = parse_lagrangian("1/2*(dX a . dX a) + (rho . a)", [a, rho])
    assert L.terms[0][1] == (DerivOp.TENSOR, a)


def test_lagrangian_unknown_symbol():
    with pytest.raises(ExprError, match=r"unknown field symbol 'B' \(declared: A, J\)"):
        parse_lagrangian("(B . B)", SYMBOLS)


def test_lagrangian_coefficient_needs_star():
    with pytest.raises(ExprError, match="expected '\\*'"):
        parse_lagrangian("1/2(A . A)", SYMBOLS)


def test_lagrangian_slot_grade_mismatch():
    with pytest.raises(ExprError):
        parse_lagrangian("(d^A . A)", SYMBOLS)


def test_lagrangian_trailing_garbage():
    with pytest.raises(ExprError, match="trailing input"):
        parse_lagrangian("(A . A) (", SYMBOLS)


@pytest.mark.parametrize("text", [None, b"e[0]", 7, ["e[0]"]], ids=repr)
@pytest.mark.parametrize("parse", [lambda text: parse_expr(text, M13),
                                   lambda text: parse_lagrangian(text, {})],
                         ids=["parse_expr", "parse_lagrangian"])
def test_text_that_is_not_a_str_fails_at_offset_zero(parse, text):
    with pytest.raises(ExprError, match=f"expected text, got {type(text).__name__}") as err:
        parse(text)
    assert err.value.offset == 0


# -- the single-scan tokenizer and the trusted literals ------------------------------

def loop_tokenize(text):
    """The one-``match``-per-position tokenizer that ``tokenize`` replaced, kept as its oracle."""
    tokens, pos = [], 0
    while pos < len(text):
        m = parser._TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprError(f"unknown token {text[pos]!r}", pos)
        if m.lastgroup != "WS":
            kind = m.lastgroup
            if kind == "OP":
                kind = m.group()
            tokens.append(parser.Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(parser.Token("EOF", "", len(text)))
    return tokens


def tokens_or_error(tokenizer, text):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenizer(text)]
    except ExprError as exc:
        return (str(exc), exc.offset)


# token pieces, whitespace runs, and characters no token matches (ASCII and not)
_PIECES = ["e[0,1]", "e[", "]", "x0", "x12^3", "x", "^", "3/4", "7", "/", "d^", "d_|", "dX",
           "_|", "|_", "|", "_", "hodge", "(", ")", "+", "-", "*", ".", " ", "   ", "\t\n",
           "\xa0", "#", "@", "!", "\u0661", "\xe9", "e[\u0661]", "x\u0662", "$"]


def test_single_scan_tokenizer_matches_the_loop():
    rng = random.Random("unit/parser-tokenize")
    texts = ["", " ", "\t \n", "#", "e[0", "x", "d", "1/", "e[0] # e[1]"]
    texts += ["".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 12)))
              for _ in range(3000)]
    errors = 0
    for text in texts:
        expected = tokens_or_error(loop_tokenize, text)
        assert tokens_or_error(tokenize, text) == expected, text
        errors += isinstance(expected, tuple)
    assert 300 < errors < len(texts) - 300  # both outcomes are well covered


@pytest.mark.parametrize("text", ["x\u0661", "\u0661/2", "e[\u0661]", "x1^\u0662", "e[0,\u0661]",
                                  "e[\xa0]", "e[0,\u2003 1]"])
def test_expressions_take_only_ascii_digits(text):
    with pytest.raises(ExprError, match="unknown token|bad blade literal"):
        parse_expr(text, M13)


@pytest.mark.parametrize("text, expected", [
    ("0", lambda m: Multivector.scalar(m, 0)),
    ("4/2", lambda m: Multivector.scalar(m, Fraction(4, 2))),
    ("0/5", lambda m: Multivector.scalar(m, Fraction(0))),
    ("3/6", lambda m: Multivector.scalar(m, Fraction(3, 6))),
    ("x0^0", lambda m: Multivector.scalar(m, PolyScalar.variable(m.dim, 0, 0))),
    ("x0", lambda m: Multivector.scalar(m, PolyScalar.variable(m.dim, 0))),
    ("x1^3", lambda m: Multivector.scalar(m, PolyScalar.variable(m.dim, 1, 3))),
    ("e[]", lambda m: Multivector.blade(m, ())),
    ("e[ ]", lambda m: Multivector.blade(m, ())),
    ("e[0]", lambda m: Multivector.blade(m, (0,))),
    ("e[ 0 , 1 ]", lambda m: Multivector.blade(m, (0, 1))),
    ("e[1]", lambda m: Multivector.blade(m, (1,))),
])
@pytest.mark.parametrize("metric", [Metric(1, 1), M13, Metric(3, 5)], ids=str)
def test_literals_equal_the_public_constructors(metric, text, expected):
    value, want = parse_expr(text, metric), expected(metric)

    def types(mv):
        return {k: (type(c), type(c) is PolyScalar and {e: type(p) for e, p in c.terms.items()})
                for k, c in mv.terms.items()}

    assert value == want and value.grade == want.grade
    assert value.terms == want.terms and types(value) == types(want)


def test_parsing_builds_through_no_validating_constructor(monkeypatch):
    built = []
    for cls in (PolyScalar, Multivector):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(type(self)) or init(self, *args))
    Multivector(M13, 1), PolyScalar(4)
    assert built == [Multivector, PolyScalar]  # the wrappers do count
    built.clear()
    for text in ("0", "4/2", "x0^0", "e[]", "-3/2 ^ x1^2 ^ e[0,2] + x3 ^ e[1,3]",
                 "(x0 ^ e[0]) . (x1 ^ e[0])", "hodge(e[0]) + invhodge(e[1])",
                 "d^ (x0 ^ x1 ^ e[1]) _| e[0,1] |_ e[]", "d_| (x2^2 ^ e[0,2])"):
        parse_expr(text, M13)
    assert built == []
