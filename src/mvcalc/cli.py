"""Command line entry points.

Three subcommands:

    derive  build the field equations of a quadratic density, either
            from a preset (maxwell, electrostatics, dual) or from an
            explicit density given with --lagrangian/--symbols
    verify  run the property suites and report per-property results
            (``mvcalc.verify`` loads only for this subcommand)
    eval    evaluate a multivector expression over a chosen metric

Exit codes: 0 on success, 1 when verification finds a failing property,
2 on usage or parse errors (diagnostics go to stderr).  Output for a
fixed invocation is byte-identical across runs.

How ``run`` parses a request: the parser is built once per process and
shared.  When the first argument is exactly a subcommand name, the rest
is read from that subcommand parser's own store actions: exact option
strings each followed by a value that does not start with ``-``, and
positionals, each value through its action's ``type`` and ``choices``,
every required argument present.  Anything else (``-h``, ``--lag``,
``--k=1``, ``--``, ``-1``, a missing or extra argument, a refused value)
makes the reader decline, and the rest goes to that subcommand's parser
(``parse_known_args``), the same call the top-level parser would make.
An argv that does not start with a subcommand, and one whose rest that
parser leaves arguments from, goes through the top-level parser.  So
argparse prints every error and all help, and every exit code and byte
of stdout and stderr is what argparse gives for the full parse.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from . import eqdoc
from .blades import AlgebraError, GradeError, Metric
from .em import MaxwellConfig, derive_equations, dual_theory
from .parser import ExprError, parse_expr, parse_lagrangian
from .poly import digit_limit
from .variational import FieldSymbol, euler_lagrange

# the sorted keys of ``verify.SUITES``, spelled out so that the parser does not load ``verify``
_SUITE_NAMES = ("algebra", "calculus", "em", "variational")

_PRESET_NAMES = {
    "maxwell": ("A", "J"),
    "electrostatics": ("phi", "rho"),
}


def _rational(text: str) -> Fraction:
    """A --m/--xi value, refused past the digit limit of ``poly.digit_limit``.

    ``Fraction`` already refuses a digit run past the limit, but an
    exponent lets a short literal such as ``1e999999999`` stand for a
    number of any size, so the exponent is bounded before the number is
    built.
    """
    if not text.strip().isascii():  # Fraction reads every Unicode digit
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")
    limit = digit_limit()
    too_long = f"rational number longer than {limit} digits"
    exponent = re.search(r"[eE][-+]?([0-9_]+)\s*$", text)
    if exponent is not None:
        shift = exponent[1].replace("_", "").lstrip("0")
        if len(shift) > len(str(limit)) or int(shift or 0) > limit:
            raise argparse.ArgumentTypeError(too_long)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        # int() inside Fraction refuses a digit run past the limit
        message = too_long if len(text) > limit else f"not a rational number: {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    big = max(abs(value.numerator), value.denominator)
    if big.bit_length() > 3 * limit and big >= 10**limit:  # 2^(3 limit) < 10^limit
        raise argparse.ArgumentTypeError(too_long)
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for the three subcommands (``run`` shares one)."""
    parser = argparse.ArgumentParser(
        prog="mvcalc",
        description="exterior-algebra field equations over flat space-times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser(
        "derive", help="derive the field equations of a quadratic density"
    )
    derive.add_argument("--k", type=int, required=True, help="number of time axes")
    derive.add_argument("--n", type=int, required=True, help="number of space axes")
    derive.add_argument("--r", type=int, help="grade of the field strength")
    derive.add_argument(
        "--preset",
        choices=("maxwell", "electrostatics", "dual"),
        default="maxwell",
        help="theory template (default: maxwell)",
    )
    derive.add_argument("--m", type=_rational, default=Fraction(0), help="mass parameter")
    derive.add_argument(
        "--xi", type=_rational, default=None, help="gauge-fixing parameter"
    )
    derive.add_argument(
        "--lagrangian",
        help="explicit density such as '1/2*(d^A . d^A) + (J . A)'; overrides --preset",
    )
    derive.add_argument(
        "--symbols",
        help="field declarations for --lagrangian, as name:grade:role,...",
    )
    derive.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="run the property suites")
    verify.add_argument(
        "--suite",
        choices=_SUITE_NAMES + ("all",),
        default="all",
        help="which suite to run (default: all)",
    )
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument(
        "--trials", type=int, default=40, help="randomized cases per sweep point"
    )

    evaluate = sub.add_parser("eval", help="evaluate a multivector expression")
    evaluate.add_argument("expr", help="expression such as 'd^ (x0 ^ e[1]) _| e[0,1]'")
    evaluate.add_argument("--k", type=int, required=True, help="number of time axes")
    evaluate.add_argument("--n", type=int, required=True, help="number of space axes")
    evaluate.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _parse_symbol_decls(text: str) -> dict[str, FieldSymbol]:
    out: dict[str, FieldSymbol] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [piece.strip() for piece in chunk.split(":")]
        if len(parts) != 3:
            raise AlgebraError(
                f"bad symbol declaration {chunk!r}; expected name:grade:role"
            )
        name, grade_text, role = parts
        try:
            if not grade_text.isascii():  # int() reads every Unicode digit
                raise ValueError
            grade = int(grade_text)
        except ValueError:
            raise AlgebraError(f"bad grade in symbol declaration {chunk!r}") from None
        if name in out:
            raise AlgebraError(f"field symbol {name!r} declared twice")
        out[name] = FieldSymbol(name, grade, role)
    return out


def _cmd_derive(args) -> int:
    metric = Metric(args.k, args.n)
    if args.lagrangian is not None:
        symbols = _parse_symbol_decls(args.symbols or "")
        density = parse_lagrangian(args.lagrangian, symbols)
        dynamical = density.dynamical
        if dynamical is not None and dynamical.grade > metric.dim:
            raise GradeError(f"dynamical grade {dynamical.grade} exceeds dimension {metric.dim}")
        eq = euler_lagrange(density)
    else:
        if args.r is None:
            raise AlgebraError("--r is required when using a preset")
        if args.preset == "dual":
            if args.m or args.xi is not None:
                raise AlgebraError("the dual preset takes neither --m nor --xi")
            eq, _ = dual_theory(metric, args.r + 1)
        else:
            cfg = MaxwellConfig(metric, args.r, mass=args.m, xi=args.xi)
            eq = derive_equations(cfg, *_PRESET_NAMES[args.preset])
    if args.format == "json":
        print(eqdoc.dumps(eq, metric))
    else:
        print(eq.render())
    return 0


def _cmd_verify(args) -> int:
    from .verify import format_report, run_suites

    outcomes = run_suites(args.suite, seed=args.seed, trials=args.trials)
    print(format_report(outcomes))
    return 0 if all(item.ok for item in outcomes) else 1


def _cmd_eval(args) -> int:
    value = parse_expr(args.expr, Metric(args.k, args.n))
    print(eqdoc.dumps_value(value) if args.format == "json" else str(value))
    return 0


@functools.cache
def _arg_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The parser every ``run`` call shares, built on the first call, and its subcommands.

    Sharing is safe: ``parse_args`` returns a new namespace each time and
    never changes the parser, the defaults are immutable, and errors
    leave through SystemExit without keeping state.  The subcommand map
    is read from the ``choices`` of the parser's one positional (argparse
    has no public accessor for it) and maps each name to its parser and
    reader table, so clearing this cache resets all three.
    """
    parser = build_arg_parser()
    (action,) = parser._subparsers._group_actions
    return parser, {name: (sub, _reader_table(sub)) for name, sub in action.choices.items()}


def _reader_table(sub: argparse.ArgumentParser) -> tuple:
    """(option string -> store action, positionals, required dests, defaults) of ``sub``."""
    stores = [a for a in sub._actions if type(a) is argparse._StoreAction]
    # argparse passes an unseen str default through ``type``; these have none to pass
    assert all(a.type is None for a in stores if isinstance(a.default, str))
    return ({option: a for a in stores for option in a.option_strings},
            [a for a in stores if not a.option_strings],
            {a.dest for a in sub._actions if a.required},
            {a.dest: a.default for a in sub._actions
             if argparse.SUPPRESS not in (a.dest, a.default)})


def _read(argv: list, options: dict, positionals: list, required: set, defaults: dict):
    """The namespace of a well-formed subcommand request, or None to leave it to argparse."""
    if not all(isinstance(token, str) for token in argv):
        return None
    values = {}
    tokens, free = iter(argv), iter(positionals)
    for token in tokens:
        if token.startswith("-"):
            action, token = options.get(token), next(tokens, "-")  # no value declines as "-"
            if action is None or token.startswith("-"):
                return None
        elif (action := next(free, None)) is None:
            return None
        try:
            value = token if action.type is None else action.type(token)
        except (ValueError, TypeError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**{**defaults, **values}) if required <= values.keys() else None


def _parse(argv: list) -> argparse.Namespace:
    """The namespace of one request; see the module docstring for the three paths."""
    parser, subcommands = _arg_parser()
    entry = subcommands.get(argv[0]) if argv else None
    if entry is not None:
        sub, table = entry
        args, leftover = _read(argv[1:], *table), None
        if args is None:
            args, leftover = sub.parse_known_args(argv[1:])
        if not leftover:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)  # prints the top-level usage and error


def run(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    handlers = {"derive": _cmd_derive, "verify": _cmd_verify, "eval": _cmd_eval}
    try:
        return handlers[args.command](args)
    except ExprError as exc:
        print(f"error: {exc} (at offset {exc.offset})", file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    sys.exit(run())
