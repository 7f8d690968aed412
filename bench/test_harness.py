"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench -p 'test_*.py'

They sit outside the repository's pytest gate (which collects only
tests/), so no timing code can make that gate flaky.
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import pace  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mvcalc import cli, eqdoc  # noqa: E402
from mvcalc.blades import Metric, Multivector  # noqa: E402
from mvcalc.poly import PolyScalar  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        with self.assertRaises(ValueError):
            stats.percentile(range(999), 99)
        self.assertEqual(stats.percentile(range(1000), 99), 989)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3] * 5, 50), 3)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_span_tree(self):
        # outer(14) -> 2 x middle(5) -> inner(3); selves 4, 2 x 2, 2 x 3
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def work(seconds):
            clock.now += seconds

        inner = tracer.wrap("inner", lambda: work(3))

        def middle_body():
            work(1)
            inner()
            work(1)

        middle = tracer.wrap("middle", middle_body)

        def outer_body():
            work(1)
            middle()
            work(2)
            middle()
            work(1)

        tracer.begin("case")
        tracer.wrap("outer", outer_body)()
        totals = tracer.totals()
        self.assertEqual(totals["outer"], [1, 4.0, 14.0])
        self.assertEqual(totals["middle"], [2, 4.0, 10.0])
        self.assertEqual(totals["inner"], [2, 6.0, 6.0])
        self.assertEqual(sum(self_s for _, self_s, _ in totals.values()), 14.0)
        self.assertEqual(list(tracer.groups["case"]), ["inner", "middle", "outer"])

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock)

        def fail():
            clock.now += 2
            raise ZeroDivisionError

        with self.assertRaises(ZeroDivisionError):
            tracer.wrap("fail", fail)()
        self.assertEqual(tracer.totals()["fail"], [1, 2.0, 2.0])
        self.assertEqual(tracer._child_time, [2.0])


class PacerTest(unittest.TestCase):
    def test_chunks_scale_by_the_kernel_time_beside_them(self):
        # chunk 1: two ops then a kernel at twice REF_S; chunk 2: one op,
        # closed by finish() with a kernel at REF_S
        clock = FakeClock()
        kernels = iter([2 * pace.REF_S, pace.REF_S])

        def kernel_s(clk):
            seconds = next(kernels)
            clock.now += seconds  # the kernel's own time is not pass time
            return seconds

        pacer = pace.Pacer(clock, kernel_s)
        for op_s in (0.01, pace.CHUNK_S):
            clock.now += op_s
            pacer.append(op_s)
        clock.now += 0.02
        pacer.append(0.02)
        clock.now += 0.005  # work after the last op belongs to the pass
        pacer.finish()
        self.assertEqual(list(pacer.latencies), [0.005, pace.CHUNK_S / 2, 0.02])
        self.assertAlmostEqual(pacer.raw_wall_s, 0.01 + pace.CHUNK_S + 0.025)
        self.assertAlmostEqual(pacer.wall_s, (0.01 + pace.CHUNK_S) / 2 + 0.025)
        self.assertEqual(len(pacer), 3)

    def test_reference_kernel_is_the_swap_count_wedge(self):
        self.assertEqual(pace.reference(), oracle.wedge(pace._A, pace._B))


class InstallTest(unittest.TestCase):
    def test_wraps_aliases_and_imported_names_then_restores(self):
        from mvcalc import blades, calculus, indexes

        originals = (PolyScalar.__mul__, indexes.merge_signature)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIs(PolyScalar.__rmul__, PolyScalar.__mul__)
            self.assertIsNot(PolyScalar.__mul__, originals[0])
            self.assertIs(blades.merge_signature, indexes.merge_signature)
            self.assertIs(calculus.merge_signature, indexes.merge_signature)
            x = PolyScalar.variable(2, 0)
            2 * x * x
            e0 = Multivector.blade(Metric(1, 1), (0,))
            e0.wedge(Multivector.blade(Metric(1, 1), (1,)))
        finally:
            tracer.uninstall()
        totals = tracer.totals()
        self.assertEqual(totals["poly.mul"][0], 2)
        self.assertEqual(totals["indexes.merge_signature"][0], 1)
        self.assertEqual(tracer.counters["blades.wedge.terms_out"], 1)
        self.assertIs(PolyScalar.__mul__, originals[0])
        self.assertIs(PolyScalar.__rmul__, originals[0])
        self.assertIs(calculus.merge_signature, originals[1])


class ProductOracleTest(unittest.TestCase):
    def setUp(self):
        self.k, self.dim = 1, 4
        metric = Metric(self.k, self.dim - self.k)
        self.a = {(0, 1): Fraction(3, 2), (1, 2): Fraction(-2, 5)}
        self.b = {(2, 3): Fraction(1, 3), (0, 3): Fraction(5, 7)}
        self.result = Multivector(metric, 2, self.a).wedge(Multivector(metric, 2, self.b))
        self.expected = workloads.expected_product("wedge", self.k, self.dim, self.a, 2, self.b, 2)

    def test_accepts_the_right_product(self):
        self.assertTrue(self.expected[1])
        self.assertTrue(workloads.product_matches(self.expected, self.result))

    def test_flags_a_flipped_sign(self):
        terms = dict(self.result.terms)
        key = next(iter(terms))
        terms[key] = -terms[key]
        corrupt = SimpleNamespace(grade=self.result.grade, terms=terms)
        self.assertFalse(workloads.product_matches(self.expected, corrupt))

    def test_flags_a_dropped_term(self):
        terms = dict(self.result.terms)
        terms.pop(next(iter(terms)))
        corrupt = SimpleNamespace(grade=self.result.grade, terms=terms)
        self.assertFalse(workloads.product_matches(self.expected, corrupt))

    def test_flags_a_float_coefficient(self):
        grade, terms = workloads.expected_product(
            "wedge", 0, 2, {(0,): Fraction(1, 2)}, 1, {(1,): Fraction(1)}, 1)
        self.assertFalse(workloads.product_matches(
            (grade, terms), SimpleNamespace(grade=2, terms={(0, 1): 0.5})))

    def test_matches_mvcalc_on_every_product_kind(self):
        metric = Metric(self.k, self.dim - self.k)
        a, b = Multivector(metric, 2, self.a), Multivector(metric, 2, self.b)
        for kind in workloads.PRODUCTS:
            args = () if kind not in workloads.BINARY else (b,)
            expected = workloads.expected_product(kind, self.k, self.dim, self.a, 2,
                                                  self.b if args else None, 2)
            self.assertTrue(workloads.product_matches(expected, getattr(a, kind)(*args)), kind)


class CliOracleTest(unittest.TestCase):
    def outcome(self, argv):
        return workloads.call_cli(cli, argv)

    def check(self, request, outcome):
        return workloads.request_matches(
            request, workloads.expected_stdout(request), outcome, eqdoc)

    def test_readme_goldens_match_the_closed_forms(self):
        eq = oracle.preset_equation("maxwell", 2, Fraction(1), Fraction(1, 2))
        self.assertEqual(oracle.derive_output(eq, 1, 3, "text"), workloads.README_REQUESTS[3][1])
        eq = oracle.density_equation("tensor", "a", "rho", 0, [("tensor", Fraction(1, 2)),
                                                                ("source", Fraction(1))])
        self.assertEqual(oracle.derive_output(eq, 0, 3, "text"), workloads.README_REQUESTS[5][1])
        node = ("d^", ("^", ("x", 0, 1), ("blade", (1,))))
        self.assertEqual(oracle.expr_text(node), "d^ ((x0 ^ e[1]))")
        self.assertEqual(oracle.eval_output(node, 1, 3, "json"), workloads.README_REQUESTS[7][1])

    def test_flags_a_flipped_sign_and_a_dropped_term(self):
        argv = ["derive", "--k", "1", "--n", "3", "--r", "2", "--m", "1", "--xi", "1/2"]
        request = workloads.Request("derive-preset", argv, (
            "preset", ("maxwell", 2, Fraction(1), Fraction(1, 2)), 1, 3, "text"))
        code, out, err = self.outcome(argv)
        self.assertTrue(self.check(request, (code, out, err)))
        self.assertFalse(self.check(request, (code, out.replace("+ 2 *", "- 2 *"), err)))
        self.assertFalse(self.check(request, (code, out.replace(" + A", ""), err)))

    def test_flags_a_corrupted_json_document(self):
        argv = ["derive", "--k", "1", "--n", "3", "--r", "2", "--format", "json"]
        request = workloads.Request("derive-preset", argv, (
            "preset", ("maxwell", 2, Fraction(0), None), 1, 3, "json"))
        code, out, err = self.outcome(argv)
        self.assertTrue(self.check(request, (code, out, err)))
        self.assertFalse(self.check(request, (code, out.replace('"1"', '"-1"', 1), err)))

    def test_flags_a_wrong_exit_code(self):
        good = workloads.Request("readme", workloads.README_REQUESTS[0][0],
                                 ("golden", workloads.README_REQUESTS[0][1]))
        code, out, err = self.outcome(good.argv)
        self.assertTrue(self.check(good, (code, out, err)))
        self.assertFalse(self.check(good, (1, out, err)))
        bad = workloads.Request("malformed", workloads.MALFORMED_REQUESTS[0], ("malformed",))
        code, out, err = self.outcome(bad.argv)
        self.assertTrue(self.check(bad, (code, out, err)))
        self.assertFalse(self.check(bad, (1, out, err)))
        self.assertFalse(self.check(bad, (2, out, "Traceback (most recent call last):\n")))

    def test_every_malformed_request_exits_2(self):
        for argv in workloads.MALFORMED_REQUESTS:
            request = workloads.Request("malformed", argv, ("malformed",))
            self.assertTrue(self.check(request, self.outcome(argv)), argv)

    def test_generated_requests_match_their_oracle(self):
        requests = workloads.CliRequests(3).requests
        kinds = set()
        for request in requests[:200]:
            kinds.add(request.kind)
            self.assertTrue(self.check(request, self.outcome(request.argv)), request.argv)
        self.assertTrue({"readme", "derive-preset", "derive-exterior", "derive-tensor", "eval",
                         "malformed"} <= kinds)


class VerifyOracleTest(unittest.TestCase):
    def report(self, cases=5, status="PASS"):
        lines = [f"{status} algebra/p{i}: cases=1 failures=0" for i in range(36)]
        return "\n".join(lines + [f"SUMMARY: properties=36 passed=36 failed=0 cases={cases}"])

    def test_accepts_a_passing_report(self):
        self.assertEqual(workloads.check_verify_report(self.report(), 5, 1, None), [])

    def test_flags_a_failed_property_and_a_wrong_count(self):
        self.assertTrue(workloads.check_verify_report(self.report(status="FAIL"), 5, 1, None))
        self.assertTrue(workloads.check_verify_report(self.report(), 6, 1, None))
        self.assertTrue(workloads.check_verify_report(self.report(), 5, 42, None))

    def test_flags_a_report_that_changed_between_passes(self):
        self.assertTrue(workloads.check_verify_report(self.report(), 5, 1, self.report(4)))


if __name__ == "__main__":
    unittest.main()
