"""Per-layer spans around calls into mvcalc's public functions.

The tracer wraps each function named in ``LAYER_FUNCTIONS`` from the
outside: on its defining module, on every mvcalc module that imported
the name, and on every class attribute bound to it (so aliases such as
``__rmul__ = __mul__`` are covered).  Each wrapped call is one span;
its self time is its duration minus the time covered by the wrapped
calls it made.  One thread runs everything, so child spans never
overlap and a running sum per open span is exact.

Aggregates are kept in memory per group (a verify property, a product
kind or a request kind) and read out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# metric name -> (defining module, attribute path)
LAYER_FUNCTIONS = {
    "indexes.merge_signature": ("mvcalc.indexes", "merge_signature"),
    "indexes.sort_signature": ("mvcalc.indexes", "sort_signature"),
    "indexes.complement": ("mvcalc.indexes", "complement"),
    "indexes.subtract": ("mvcalc.indexes", "subtract"),
    "blades.construct": ("mvcalc.blades", "Multivector.__init__"),
    "blades.wedge": ("mvcalc.blades", "Multivector.wedge"),
    "blades.left_contract": ("mvcalc.blades", "Multivector.left_contract"),
    "blades.right_contract": ("mvcalc.blades", "Multivector.right_contract"),
    "blades.hodge": ("mvcalc.blades", "Multivector.hodge"),
    "blades.inv_hodge": ("mvcalc.blades", "Multivector.inv_hodge"),
    "blades.dot": ("mvcalc.blades", "Multivector.dot"),
    "blades.add": ("mvcalc.blades", "Multivector.__add__"),
    "blades.scale": ("mvcalc.blades", "Multivector.__mul__"),
    "poly.construct": ("mvcalc.poly", "PolyScalar.__init__"),
    "poly.mul": ("mvcalc.poly", "PolyScalar.__mul__"),
    "poly.add": ("mvcalc.poly", "PolyScalar.__add__"),
    "poly.partial": ("mvcalc.poly", "PolyScalar.partial"),
    "matrices.construct": ("mvcalc.matrices", "MvMatrix.__init__"),
    "matrices.matmul": ("mvcalc.matrices", "MvMatrix.matmul"),
    "matrices.mat_vec": ("mvcalc.matrices", "mat_vec"),
    "matrices.vec_mat": ("mvcalc.matrices", "vec_mat"),
    "calculus.ext_deriv": ("mvcalc.calculus", "ext_deriv"),
    "calculus.int_deriv": ("mvcalc.calculus", "int_deriv"),
    "calculus.tensor_deriv": ("mvcalc.calculus", "tensor_deriv"),
    "calculus.laplacian": ("mvcalc.calculus", "laplacian"),
    "calculus.matrix_divergence": ("mvcalc.calculus", "matrix_divergence"),
    "randgen.random_field": ("mvcalc.randgen", "random_field"),
    "variational.vderiv": ("mvcalc.variational", "vderiv"),
    "variational.euler_lagrange_exterior": ("mvcalc.variational", "euler_lagrange_exterior"),
    "variational.euler_lagrange_tensor": ("mvcalc.variational", "euler_lagrange_tensor"),
    "variational.tensor_slot_matrix": ("mvcalc.variational", "tensor_slot_matrix"),
    "variational.FormalExpr.evaluate": ("mvcalc.variational", "FormalExpr.evaluate"),
    "variational.LagrangianDensity.value": ("mvcalc.variational", "LagrangianDensity.value"),
    "em.derive_equations": ("mvcalc.em", "derive_equations"),
    "em.dual_theory": ("mvcalc.em", "dual_theory"),
    "em.wave_form": ("mvcalc.em", "wave_form"),
    "parser.parse_expr": ("mvcalc.parser", "parse_expr"),
    "parser.parse_lagrangian": ("mvcalc.parser", "parse_lagrangian"),
    "eqdoc.dumps": ("mvcalc.eqdoc", "dumps"),
    "eqdoc.loads": ("mvcalc.eqdoc", "loads"),
    "cli.run": ("mvcalc.cli", "run"),
}


# -- observers: counts taken at the boundary for the layer ratios -------------


def _merge_nonzero(counters, args, result):
    counters["indexes.merge_signature.nonzero"] += result[0] != 0


def _wedge_terms(counters, args, result):
    counters["blades.wedge.pairs"] += len(args[0].terms) * len(args[1].terms)
    counters["blades.wedge.terms_out"] += len(result.terms)


def _poly_mul_terms(counters, args, result):
    if result is NotImplemented:
        return
    other = args[1]
    counters["poly.mul.pairs"] += len(args[0].terms) * (
        len(other.terms) if hasattr(other, "terms") else int(bool(other)))
    counters["poly.mul.terms_out"] += len(result.terms)


def _partial_nonzero(counters, args, result):
    counters["poly.partial.nonzero"] += bool(result)


def _parsed_chars(counters, args, result):
    counters["parser.chars"] += len(args[0])


OBSERVERS = {
    "indexes.merge_signature": _merge_nonzero,
    "blades.wedge": _wedge_terms,
    "poly.mul": _poly_mul_terms,
    "poly.partial": _partial_nonzero,
    "parser.parse_expr": _parsed_chars,
    "parser.parse_lagrangian": _parsed_chars,
}


class Tracer:
    """Span aggregates per group: name -> [calls, self seconds, total seconds]."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.groups: dict[str, dict[str, list]] = {}
        self.counters: Counter = Counter()
        self.current: dict[str, list] = self.groups.setdefault("", {})
        # child time accumulated by each open span; the bottom entry is
        # the caller outside any span
        self._child_time = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, group: str) -> None:
        """Attribute the spans that follow to ``group``."""
        self.current = self.groups.setdefault(group, {})

    def reset(self) -> None:
        self.groups.clear()
        self.counters.clear()
        self.current = self.groups.setdefault("", {})

    def wrap(self, name: str, fn, observe=None):
        clock = self.clock
        child_time = self._child_time
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                record = tracer.current.get(name)
                if record is None:
                    record = tracer.current[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed - children
                record[2] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result

        return span

    # -- installing on mvcalc ------------------------------------------------

    def install(self) -> None:
        """Wrap every function of LAYER_FUNCTIONS wherever mvcalc binds it."""
        for name, (module_name, path) in LAYER_FUNCTIONS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            if outer:
                targets = [owner]
            else:
                targets = [mod for mod_name, mod in sys.modules.items()
                           if mod is not None and (mod_name == "mvcalc" or mod_name.startswith("mvcalc."))]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -- read-out ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """Aggregates summed over groups: name -> [calls, self_s, total_s]."""
        out: dict[str, list] = {}
        for records in self.groups.values():
            for name, (calls, self_s, total_s) in records.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += total_s
        return out


def ratios(totals: dict, counters: dict) -> dict[str, float]:
    """Layer ratios from span counts and observer counters (0.0 when unreached)."""
    def share(num, den):
        return num / den if den else 0.0

    parser_self = sum(totals.get(n, (0, 0.0))[1]
                      for n in ("parser.parse_expr", "parser.parse_lagrangian"))
    return {
        "indexes.merge_signature.nonzero_ratio": share(
            counters["indexes.merge_signature.nonzero"],
            totals.get("indexes.merge_signature", (0,))[0]),
        "blades.wedge.terms_out_per_pair": share(
            counters["blades.wedge.terms_out"], counters["blades.wedge.pairs"]),
        "poly.mul.terms_out_per_pair": share(
            counters["poly.mul.terms_out"], counters["poly.mul.pairs"]),
        "poly.partial.nonzero_ratio": share(
            counters["poly.partial.nonzero"], totals.get("poly.partial", (0,))[0]),
        "parser.chars_per_s": share(counters["parser.chars"], parser_self),
    }
