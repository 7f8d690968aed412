"""Command line entry points.

Three subcommands:

    derive  build the field equations of a quadratic density, either
            from a preset (maxwell, electrostatics, dual) or from an
            explicit density given with --lagrangian/--symbols
    verify  run the property suites and report per-property results
            (``mvcalc.verify`` loads only for this subcommand)
    eval    evaluate a multivector expression over a chosen metric

Exit codes: 0 on success, 1 when verification finds a failing property,
2 on usage or parse errors and on a request that runs out of memory
(diagnostics go to stderr).  Output for a fixed invocation is
byte-identical across runs.

How ``run`` parses a request: the parsers are built from one table of
each subcommand's arguments (``_SUBCOMMANDS``), once per process, and
shared.  When the first argument is exactly a subcommand name, the rest
is read from that table: exact option strings each followed by a value
that does not start with ``-``, and positionals, each value through its
argument's ``type`` and ``choices``, every required argument present.
Anything else (``-h``, ``--lag``, ``--k=1``, ``--``, ``-1``, a missing or
extra argument, a refused value) makes the reader decline, and the rest
goes to that subcommand's parser (``parse_known_args``), the same call
the top-level parser would make.  An argv that does not start with a
subcommand, and one whose rest that parser leaves arguments from, goes
through the top-level parser.  So argparse prints every error and all
help, and every exit code and byte of stdout and stderr is what argparse
gives for the full parse.
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
from .indexes import integer
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


_METRIC = (("--k", dict(type=int, required=True, help="number of time axes")),
           ("--n", dict(type=int, required=True, help="number of space axes")))
_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))

# each subcommand's help and its arguments, as (name, add_argument keywords) in help order;
# the parsers are built from this table and ``_read`` reads requests from it
_SUBCOMMANDS = {
    "derive": ("derive the field equations of a quadratic density", (
        *_METRIC,
        ("--r", dict(type=int, help="grade of the field strength")),
        ("--preset", dict(choices=("maxwell", "electrostatics", "dual"), default="maxwell",
                          help="theory template (default: maxwell)")),
        ("--m", dict(type=_rational, default=Fraction(0), help="mass parameter")),
        ("--xi", dict(type=_rational, help="gauge-fixing parameter")),
        ("--lagrangian", dict(help="explicit density such as '1/2*(d^A . d^A) + (J . A)'; "
                                   "overrides --preset")),
        ("--symbols", dict(help="field declarations for --lagrangian, as name:grade:role,...")),
        _FORMAT)),
    "verify": ("run the property suites", (
        ("--suite", dict(choices=_SUITE_NAMES + ("all",), default="all",
                         help="which suite to run (default: all)")),
        ("--seed", dict(type=int, default=42)),
        ("--trials", dict(type=int, default=40, help="randomized cases per sweep point")))),
    "eval": ("evaluate a multivector expression", (
        ("expr", dict(help="expression such as 'd^ (x0 ^ e[1]) _| e[0,1]'")),
        *_METRIC, _FORMAT)),
}


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A new top-level parser and its subcommand parsers, by name, from ``_SUBCOMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="mvcalc", description="exterior-algebra field equations over flat space-times")
    sub, subparsers = parser.add_subparsers(dest="command", required=True), {}
    for name, (text, arguments) in _SUBCOMMANDS.items():
        subparsers[name] = sub.add_parser(name, help=text)
        for flag, keywords in arguments:
            subparsers[name].add_argument(flag, **keywords)
    return parser, subparsers


def build_arg_parser() -> argparse.ArgumentParser:
    """A new parser for the three subcommands (``run`` shares one)."""
    return _build()[0]


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
        if dynamical is not None:
            integer(dynamical.grade, "dynamical grade", 0, metric.dim, GradeError)
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
    sends each name to its parser and reader table, so clearing this
    cache resets all three.
    """
    parser, subparsers = _build()
    return parser, {name: (sub, _reader_table(name)) for name, sub in subparsers.items()}


def _reader_table(name: str) -> tuple:
    """(option string -> entry, positional entries, required dests, defaults) of a subcommand.

    An entry is the (dest, type, choices) of one argument; each name here is its dest
    without the leading dashes, as argparse derives it.
    """
    arguments = _SUBCOMMANDS[name][1]
    # argparse passes an unseen str default through ``type``; these have none to pass
    assert not any(isinstance(kw.get("default"), str) and "type" in kw for _, kw in arguments)
    entries = {flag: argparse.Namespace(dest=flag.lstrip("-"), type=kw.get("type"),
                                        choices=kw.get("choices")) for flag, kw in arguments}
    return ({flag: entry for flag, entry in entries.items() if flag.startswith("-")},
            [entry for flag, entry in entries.items() if not flag.startswith("-")],
            {entries[flag].dest for flag, kw in arguments if kw.get("required", flag[0] != "-")},
            {entries[flag].dest: kw.get("default") for flag, kw in arguments})


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
    except MemoryError:  # a backstop: no traceback, and exit 1 stays a failed property's
        print("error: out of memory", file=sys.stderr)
        return 2


def run_main() -> None:
    sys.exit(run())
