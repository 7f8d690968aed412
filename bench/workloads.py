"""The benchmark's three workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up
that ``setup_s`` measures), runs one pass over them with ``run_pass``
while appending one latency per op, and checks a pass's outputs with
``check`` outside the timed region, returning the number of ops whose
output was wrong.  ``passes`` is the fixed number of timed passes a run
makes, the same on every commit.

* ``verify-all`` is the heaviest user and CI job: the full property
  suites, where ``poly`` and ``Fraction`` dominate and ``blades`` sees
  hundreds of thousands of tiny single-blade values.
* ``dense-products`` is the blade kernel on few calls with large dense
  operands and non-integral rational coefficients; it bypasses ``poly``
  entirely, so a per-call or per-metric cost that only pays off on large
  operands shows against ``verify-all``.
* ``cli-requests`` is the only workload that reaches ``parser``,
  ``eqdoc``, ``em`` and ``cli``; it carries derive and eval latency.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import traceback
from fractions import Fraction
from numbers import Rational
from time import perf_counter

import oracle


# -- verify-all ----------------------------------------------------------------

SEED42_SUMMARY = "SUMMARY: properties=36 passed=36 failed=0 cases=72071"


def check_verify_report(report: str, cases: int, seed: int, reference: str | None) -> list[str]:
    """Problems with one verify pass's report; empty when it is right.

    Every property passes, the summary agrees with the cases the
    benchmark counted, the report is byte-identical to the first pass,
    and at seed 42 the summary is the documented one.
    """
    problems = []
    lines = report.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines[:-1]):
        problems.append("a property did not pass")
    summary = lines[-1] if lines else ""
    expected = f"SUMMARY: properties=36 passed=36 failed=0 cases={cases}"
    if summary != expected:
        problems.append(f"summary {summary!r}, expected {expected!r}")
    if seed == 42 and summary != SEED42_SUMMARY:
        problems.append(f"seed-42 summary {summary!r}, expected {SEED42_SUMMARY!r}")
    if reference is not None and report != reference:
        problems.append("report differs from the first pass")
    return problems


class VerifyAll:
    """``run_suites("all", seed, trials=50)``; one op is one property case."""

    name = "verify-all"
    trials = 50
    passes = 3

    def __init__(self, seed: int):
        from mvcalc import verify

        self.verify = verify
        self.seed = seed
        self.reference = None
        self.property_s: dict[str, float] = {}
        self.property_cases: dict[str, int] = {}

    def run_pass(self, latencies: list, tracer=None):
        suites = self.verify.SUITES
        originals = [(suite, name, fn) for suite, props in suites.items()
                     for name, fn in props.items()]
        property_s: dict[str, float] = {}
        for suite, name, fn in originals:
            suites[suite][name] = _timed_cases(
                fn, f"{suite}.{name}", latencies, property_s, self.property_cases, tracer)
        try:
            outcomes = self.verify.run_suites("all", seed=self.seed, trials=self.trials)
            report = self.verify.format_report(outcomes)
        finally:
            for suite, name, fn in originals:
                suites[suite][name] = fn
        self.property_s = property_s
        return report, len(latencies)

    def check(self, outputs) -> int:
        report, cases = outputs
        problems = check_verify_report(report, cases, self.seed, self.reference)
        if self.reference is None:
            self.reference = report
        return cases if problems else 0


def _timed_cases(prop, key, latencies, property_s, property_cases, tracer):
    """The property's case generator, timing each case it yields."""

    def cases(rng, trials):
        if tracer is not None:
            tracer.begin(key)
        it = prop(rng, trials)
        total = 0.0
        count = 0
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                total += perf_counter() - start
                break
            elapsed = perf_counter() - start
            latencies.append(elapsed)
            total += elapsed
            count += 1
            yield item
        property_s[key] = total
        property_cases[key] = count

    return cases


# -- dense-products ---------------------------------------------------------------

PRODUCTS = ("wedge", "left_contract", "right_contract", "hodge", "inv_hodge", "dot")
BINARY = {"wedge", "left_contract", "right_contract", "dot"}


# Grade pairs per product kind, all valid from dimension 6 up; None marks a unary product.
_GRADES = {
    "wedge": [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4)],
    "left_contract": [(a, a + d) for a in (1, 2, 3) for d in range(4)],
    "right_contract": [(a + d, a) for a in (1, 2, 3) for d in range(4)],
    "hodge": [(g, None) for g in range(1, 6)],
    "inv_hodge": [(g, None) for g in range(1, 6)],
    "dot": [(g, g) for g in range(1, 5)],
}
# The share of a grade's blades an operand carries.
DENSITIES = (0.25, 0.5, 1.0)
# Every seed runs the same multiset of op shapes, so a pass costs about the
# same on every seed; the seed picks the order, the signature and the operands.
SHAPES = [(kind, dim, ga, gb, density) for kind in PRODUCTS for dim in (6, 7, 8)
          for ga, gb in _GRADES[kind] for density in DENSITIES]


def _non_integral(rng) -> Fraction:
    den = rng.randint(2, 7)
    num = rng.choice([v for v in range(-3 * den, 3 * den + 1) if v % den])
    return Fraction(num, den)


def _dense_terms(rng, dim: int, grade: int, density: float) -> dict:
    blades = list(itertools.combinations(range(dim), grade))
    count = max(1, round(density * len(blades)))
    return {I: _non_integral(rng) for I in sorted(rng.sample(blades, count))}


def expected_product(kind: str, k: int, dim: int, a: dict, ga: int, b: dict | None, gb):
    """Oracle (grade, terms) of a product; a scalar for ``dot``."""
    if kind == "wedge":
        return ga + gb, oracle.wedge(a, b)
    if kind == "left_contract":
        return gb - ga, oracle.left_contract(k, a, b)
    if kind == "right_contract":
        return ga - gb, oracle.right_contract(k, a, b)
    if kind == "hodge":
        return dim - ga, oracle.hodge(k, dim, a)
    if kind == "inv_hodge":
        return dim - ga, oracle.inv_hodge(k, dim, a)
    return oracle.dot(k, a, b)


def product_matches(expected, result) -> bool:
    """Exact rational agreement with the oracle, grade included."""
    if not isinstance(expected, tuple):
        return isinstance(result, Rational) and result == expected
    grade, terms = expected
    return (
        getattr(result, "grade", None) == grade
        and all(isinstance(c, Rational) for c in result.terms.values())
        and dict(result.terms) == terms
    )


class DenseProducts:
    """Seeded products of dense constant-coefficient fields in dimensions 6-8."""

    name = "dense-products"
    passes = 6
    ops_per_pass = 2000
    pool_size = 3

    def __init__(self, seed: int):
        from mvcalc.blades import Metric, Multivector

        rng = random.Random(f"dense-products:{seed}")
        pools: dict[tuple, list] = {}

        def operand(k, dim, grade, density):
            pool = pools.setdefault((k, dim, grade, density), [])
            slot = rng.randrange(self.pool_size)
            if slot >= len(pool):
                terms = _dense_terms(rng, dim, grade, density)
                pool.append((Multivector(Metric(k, dim - k), grade, terms), terms))
                return pool[-1]
            return pool[slot]

        shapes = [SHAPES[i % len(SHAPES)] for i in range(self.ops_per_pass)]
        rng.shuffle(shapes)
        self.ops = []
        for kind, dim, ga, gb, density in shapes:
            k = rng.randint(0, 2)
            a = operand(k, dim, ga, density)
            b = operand(k, dim, gb, density) if kind in BINARY else (None, None)
            self.ops.append((kind, k, dim, ga, gb, a, b))
        self._expected: list = [None] * len(self.ops)

    def run_pass(self, latencies: list, tracer=None):
        results = []
        for kind, _, _, _, _, (a, _), (b, _) in self.ops:
            if tracer is not None:
                tracer.begin(kind)
            method = getattr(a, kind)
            args = () if b is None else (b,)
            start = perf_counter()
            result = method(*args)
            latencies.append(perf_counter() - start)
            results.append(result)
        return results

    def check(self, outputs) -> int:
        failed = 0
        for i, result in enumerate(outputs):
            if self._expected[i] is None:
                kind, k, dim, ga, gb, (_, a), (_, b) = self.ops[i]
                self._expected[i] = expected_product(kind, k, dim, a, ga, b, gb)
            failed += not product_matches(self._expected[i], result)
        return failed


# -- cli-requests --------------------------------------------------------------------

README_REQUESTS = [
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

# Documented failure modes; each must exit 2 with a diagnostic and no traceback.
MALFORMED_REQUESTS = [
    ["eval", "e[1,0]", "--k", "1", "--n", "3"],
    ["eval", "foo ^ e[0]", "--k", "1", "--n", "3"],
    ["eval", "e[0] ^", "--k", "1", "--n", "3"],
    ["eval", "x9 ^ e[0]", "--k", "1", "--n", "3"],
    ["eval", "e[0] + e[0,1]", "--k", "1", "--n", "3"],
    ["eval", "e[0] . e[0,1]", "--k", "2", "--n", "2"],
    ["eval", "(e[0] ^ e[1]", "--k", "0", "--n", "4"],
    ["eval", "e[0] # e[1]", "--k", "1", "--n", "3"],
    ["eval", "e[0]", "--n", "3"],
    ["derive", "--k", "1", "--n", "3"],
    ["derive", "--k", "1", "--n", "3", "--r", "9"],
    ["derive", "--k", "-1", "--n", "3", "--r", "1"],
    ["derive", "--k", "1", "--n", "3", "--r", "1", "--xi", "1"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--xi", "0"],
    ["derive", "--k", "1", "--n", "3", "--preset", "dual", "--r", "1", "--m", "1"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "abc"],
    ["derive", "--k", "1", "--n", "3", "--r", "2", "--format", "xml"],
    ["derive", "--k", "1", "--n", "3", "--lagrangian", "(B . B)", "--symbols", "A:1:dynamical"],
    ["derive", "--k", "1", "--n", "3", "--lagrangian", "1/2*(d^A . d^A)",
     "--symbols", "A:x:dynamical"],
    ["derive", "--k", "1", "--n", "3", "--lagrangian", "1/2*(d^A . A)",
     "--symbols", "A:1:dynamical"],
    ["frobnicate"],
]

_NAMES = (("A", "J"), ("a", "rho"), ("B", "K"), ("phi", "src"))
_RATIONALS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3),
              Fraction(5, 4), Fraction(3))


class Request:
    __slots__ = ("kind", "argv", "payload")

    def __init__(self, kind: str, argv: list, payload):
        self.kind, self.argv, self.payload = kind, argv, payload


def _metric_args(rng, dim: int) -> tuple[int, int, list]:
    k = rng.randint(0, dim)
    return k, dim - k, ["--k", str(k), "--n", str(dim - k)]


def _format_args(rng, fmt: str) -> list:
    return ["--format", fmt] if fmt == "json" or rng.random() < 0.3 else []


def _preset_request(rng, preset: str, dim: int, fmt: str) -> Request:
    k, n, argv = _metric_args(rng, dim)
    argv = ["derive"] + argv
    if preset != "maxwell" or rng.random() < 0.3:
        argv += ["--preset", preset]
    mass = xi = None
    if preset == "dual":
        r = rng.randint(0, dim - 1)
    else:
        r = rng.randint(1, dim)
        if rng.random() < 0.5:
            mass = rng.choice(_RATIONALS)
            argv += ["--m", str(mass)]
        if r >= 2 and rng.random() < 0.5:
            xi = rng.choice(_RATIONALS)
            argv += ["--xi", str(xi)]
    argv += ["--r", str(r)] + _format_args(rng, fmt)
    return Request("derive-preset", argv,
                   ("preset", (preset, r, mass or Fraction(0), xi), k, n, fmt))


def _density_request(rng, route: str, dim: int, fmt: str) -> Request:
    k, n, argv = _metric_args(rng, dim)
    field, source = rng.choice(_NAMES)
    s = rng.randint(0, min(dim, 3))
    if route == "tensor":
        kinds = ["tensor"]
    else:
        kinds = ["ext"] + (["int"] if s >= 1 and rng.random() < 0.5 else [])
    if rng.random() < 0.4:
        kinds.append("mass")
    kinds.append("source")
    rng.shuffle(kinds)
    slots = {"ext": f"(d^{field} . d^{field})", "int": f"(d_|{field} . d_|{field})",
             "tensor": f"(dX {field} . dX {field})", "mass": f"({field} . {field})",
             "source": f"({source} . {field})"}
    terms, text = [], ""
    for pos, kind in enumerate(kinds):
        c = rng.choice(_RATIONALS) * rng.choice((1, -1))
        terms.append((kind, c))
        sign = "-" if c < 0 else ("" if pos == 0 else "+")
        factor = "" if abs(c) == 1 and rng.random() < 0.5 else f"{abs(c)}*"
        text += (" " if pos else "") + (f"{sign} " if pos else sign) + factor + slots[kind]
    symbols = f"{field}:{s}:dynamical,{source}:{s}:source"
    argv = ["derive"] + argv + ["--lagrangian", text, "--symbols", symbols] + _format_args(rng, fmt)
    return Request(f"derive-{route}", argv,
                   ("density", (route, field, source, s, terms), k, n, fmt))


def _leaf(rng, grade: int, dim: int):
    def coeff():
        if rng.random() < 0.5:
            return ("x", rng.randrange(dim), rng.randint(1, 2))
        return ("num", rng.choice(_RATIONALS))

    if grade == 0:
        if rng.random() < 0.3:
            return ("^", ("num", rng.choice(_RATIONALS)), ("x", rng.randrange(dim), 1))
        return coeff()
    blades = list(itertools.combinations(range(dim), grade))
    node = None
    for I in rng.sample(blades, min(len(blades), rng.randint(1, 3))):
        term = ("^", coeff(), ("blade", I))
        node = term if node is None else ("+", node, term)
    return node


def _expression(rng, grade: int, dim: int, depth: int):
    if depth <= 0:
        return _leaf(rng, grade, dim)
    ops = ["+", "-", "^", "_|", "|_", "neg", "hodge", "invhodge"]
    if grade >= 1:
        ops.append("d^")
    if grade <= dim - 1:
        ops.append("d_|")
    if grade == 0:
        ops.append(".")
    op = rng.choice(ops)
    sub = depth - 1
    if op in ("+", "-"):
        return (op, _expression(rng, grade, dim, sub), _expression(rng, grade, dim, sub))
    if op == "^":
        g1 = rng.randint(0, grade)
        return (op, _expression(rng, g1, dim, sub), _expression(rng, grade - g1, dim, sub))
    if op == "_|":
        h = rng.randint(0, dim - grade)
        return (op, _expression(rng, h, dim, sub), _expression(rng, h + grade, dim, sub))
    if op == "|_":
        h = rng.randint(0, dim - grade)
        return (op, _expression(rng, grade + h, dim, sub), _expression(rng, h, dim, sub))
    if op == ".":
        h = rng.randint(0, dim)
        return (op, _expression(rng, h, dim, sub), _expression(rng, h, dim, sub))
    if op == "neg":
        return (op, _expression(rng, grade, dim, sub))
    if op in ("hodge", "invhodge"):
        return (op, _expression(rng, dim - grade, dim, sub))
    return (op, _expression(rng, grade + (-1 if op == "d^" else 1), dim, sub))


def _eval_request(rng, depth: int, dim: int, fmt: str) -> Request:
    k, n, argv = _metric_args(rng, dim)
    node = _expression(rng, rng.randint(0, dim), dim, depth)
    fmt_args = _format_args(rng, fmt)
    text = oracle.expr_text(node)
    # an expression that starts with '-' must follow '--' or it reads as an option
    argv = argv + fmt_args + ["--", text] if text.startswith("-") else [text] + argv + fmt_args
    return Request("eval", ["eval"] + argv, ("eval", node, k, n, fmt))


def expected_stdout(request: Request) -> str | None:
    """Golden stdout of a request; None for a malformed one."""
    kind, *rest = request.payload
    if kind == "golden":
        return rest[0]
    if kind == "malformed":
        return None
    spec, k, n, fmt = rest
    if kind == "eval":
        return oracle.eval_output(spec, k, n, fmt)
    if kind == "preset":
        eq = oracle.preset_equation(*spec)
    else:
        eq = oracle.density_equation(*spec)
    return oracle.derive_output(eq, k, n, fmt)


def request_matches(request: Request, expected: str | None, outcome, eqdoc) -> bool:
    """Output check of one request against its golden."""
    code, out, err = outcome
    if expected is None:
        return code == 2 and not out and err.strip() != "" and "Traceback" not in err
    if code != 0 or err or out != expected:
        return False
    if request.argv[0] == "derive" and out.startswith("{"):
        text = oracle.doc_text(json.loads(out))
        eq, metric = eqdoc.loads(out)
        return eq.render() == text and eqdoc.dumps(eq, metric) + "\n" == out
    return True


def call_cli(cli, argv: list):
    """(exit code, stdout, stderr) of one in-process ``mvcalc`` invocation."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an unexpected crash is a failed request, not a harness error
            traceback.print_exc()
            code = None
    return code, stdout.getvalue(), stderr.getvalue()


# Every seed sends the same multiset of request shapes (builder, variant,
# dimension 1-8, text or JSON), so a pass costs about the same on every
# seed; the seed picks the metric split, the parameters, the densities,
# the expressions and the order.  With the README examples and each
# malformed request three times, a pass is 1,511 requests: 4% malformed,
# 29% presets, 19% custom densities and 48% eval.
REQUEST_SHAPES = [
    (_preset_request, ("maxwell", "electrostatics", "dual"), 9),
    (_density_request, ("exterior", "tensor"), 9),
    (_eval_request, (1, 2, 3), 15),
]


class CliRequests:
    """A seeded stream of ``cli.run(argv)`` calls with captured output."""

    name = "cli-requests"
    passes = 8

    def __init__(self, seed: int):
        from mvcalc import cli, eqdoc

        self.cli, self.eqdoc = cli, eqdoc
        rng = random.Random(f"cli-requests:{seed}")
        requests = [Request("readme", argv, ("golden", out)) for argv, out in README_REQUESTS]
        requests += [Request("malformed", argv, ("malformed",)) for argv in MALFORMED_REQUESTS] * 3
        for build, variants, repeat in REQUEST_SHAPES:
            for _ in range(repeat):
                for variant in variants:
                    for dim in range(1, 9):
                        for fmt in ("text", "json"):
                            requests.append(build(rng, variant, dim, fmt))
        rng.shuffle(requests)
        self.requests = requests
        self._expected: dict[int, str | None] = {}

    def run_pass(self, latencies: list, tracer=None):
        outcomes = []
        for request in self.requests:
            if tracer is not None:
                tracer.begin(request.kind)
            start = perf_counter()
            outcome = call_cli(self.cli, request.argv)
            latencies.append(perf_counter() - start)
            outcomes.append(outcome)
        return outcomes

    def check(self, outputs) -> int:
        failed = 0
        for i, (request, outcome) in enumerate(zip(self.requests, outputs)):
            if i not in self._expected:
                self._expected[i] = expected_stdout(request)
            failed += not request_matches(request, self._expected[i], outcome, self.eqdoc)
        return failed


WORKLOADS = {cls.name: cls for cls in (VerifyAll, DenseProducts, CliRequests)}
