"""The blade-mask tables and the sign rules are defined in ``indexes`` alone.

``mvcalc.indexes`` owns ``_Memo``, the mask tables, the two sign rules,
their per-mask forms and the probe table, and every other module imports
them.  A copy
defined anywhere else would be a second sign implementation, one that the
verify properties on the public index helpers no longer check.  The
ownership tests read the source with ``ast`` and import nothing.  Two
more keep the variational layer on the engine's public products:
``variational`` and ``em`` reach no sign rule and none of the flat-key
helpers of ``poly``.  The last tests check the per-mask forms against the
rules on every mask pair of dimensions 1-6, the probe table against a
filter of every mask, and the derivative step table against the rules and
a bit-count oracle on every mask of those dimensions.
"""

import ast
from pathlib import Path

import pytest

from mvcalc import indexes

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"
OWNED = {"_Memo", "_MASK", "_BLADE", "_ABOVE", "_wedge_rule", "_left_rule", "_UPTO", "_FORMS",
         "_SUBSETS", "_STEPS"}


def bound_names(module: str) -> dict[str, int]:
    """Each name a module defines, assigns or imports under an alias, with its line."""
    names = {}
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names[node.id] = node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names[node.attr] = node.lineno
        elif isinstance(node, ast.alias) and node.asname and node.asname != node.name:
            names[node.asname] = node.lineno
    return names


def test_indexes_defines_every_table_and_rule():
    assert OWNED <= set(bound_names("indexes.py"))


OTHERS = sorted(path.name for path in SRC.glob("*.py") if path.name != "indexes.py")


@pytest.mark.parametrize("module", OTHERS)
def test_no_other_module_defines_a_table_or_rule(module):
    found = {name: line for name, line in bound_names(module).items() if name in OWNED}
    assert not found, f"{module} defines {found}"


ENGINE_INTERNALS = {"_left_rule", "_wedge_rule", "_place", "_split", "_AXES", "_GUARD",
                    "_guarded", "_FIELD"}


@pytest.mark.parametrize("module", ["variational.py", "em.py"])
def test_the_variational_layer_reaches_no_sign_rule_or_flat_key_helper(module):
    # a name imported from another module, or read off one as an attribute
    found = {}
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [node.attr] if isinstance(node, ast.Attribute) else [])
        found.update((name, node.lineno) for name in names if name in ENGINE_INTERNALS)
    assert not found, f"{module} reaches {found}"


@pytest.mark.parametrize("rule", ["_wedge_rule", "_left_rule"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_per_mask_forms_agree_with_the_rules(rule, dim):
    # (A, B) gives a term iff A & hB == 0, with hB = B ^ x, mask A ^ B and parity
    # popcount(pA & B) + eA, eA taking A's time-like parity where _FORMS names it
    rule = getattr(indexes, rule)
    part, x, time = indexes._FORMS[rule]
    masks = range(1 << dim)
    for k in range(dim + 1):
        t = (1 << k) - 1
        for a in masks:
            pa, ea = part[a]
            ea += (a & t & time).bit_count()
            for b in masks:
                expected = rule(a, b, t)
                assert (expected is not None) == (a & (b ^ x) == 0), (dim, k, a, b)
                if expected is None:
                    continue
                odd = (pa & b).bit_count() + ea
                for flip in (0, 1):
                    assert (odd + flip & 1, a ^ b) == (expected[0] ^ flip, expected[1]), \
                        (dim, k, a, b, flip)


@pytest.mark.parametrize("rule", ["_wedge_rule", "_left_rule"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_probe_candidates_are_the_masks_a_term_meets(rule, dim):
    # a product probes B = (A & x) | S for S in _SUBSETS[full ^ A, m]: exactly the masks of
    # grade |A & x| + m with A & hB == 0, each once, ascending; none once m passes dim - |A|
    x = indexes._FORMS[getattr(indexes, rule)][1]
    full, masks = (1 << dim) - 1, range(1 << dim)
    for a in masks:
        for m in range(dim + 1):
            candidates = [a & x | s for s in indexes._SUBSETS[full ^ a, m]]
            grade = (a & x).bit_count() + m
            assert candidates == [b for b in masks
                                  if b.bit_count() == grade and a & (b ^ x) == 0], (dim, a, m)


@pytest.mark.parametrize("rule", ["_wedge_rule", "_left_rule"])
@pytest.mark.parametrize("dim", range(1, 7))
def test_derivative_steps_agree_with_the_rules(rule, dim):
    # _STEPS[rule, dim, A]: the (i, odd, mask) of each axis i with a term rule(e_i, e_A), in
    # axis order; the derivative adds axis i's time-like parity where the rule takes it
    left = rule == "_left_rule"
    rule = getattr(indexes, rule)
    for a in range(1 << dim):
        steps = indexes._STEPS[rule, dim, a]
        for k in range(dim + 1):
            t = (1 << k) - 1
            timed = [(i, odd ^ (left and i < k), mask) for i, odd, mask in steps]
            assert timed == [(i, *hit) for i in range(dim)
                             if (hit := rule(1 << i, a, t)) is not None], (dim, k, a)
            # e_i ^ e_A passes e_i over A's axes below i; e_i _| e_A takes e_i over those above
            oracle = [(i, (a >> i + 1).bit_count() + (i < k) & 1, a ^ 1 << i) if left
                      else (i, (a & (1 << i) - 1).bit_count() & 1, a | 1 << i)
                      for i in range(dim) if (a >> i & 1) == left]
            assert timed == oracle, (dim, k, a)
