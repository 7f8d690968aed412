"""Every value class takes its linear rules from one base.

``poly._Linear`` owns immutability, copy and pickle, ``is_zero``, ``+``
with its one merge loop, ``-``, negation, scaling and ``==`` for
``PolyScalar``, ``Multivector``, ``MvMatrix``, ``FormalExpr`` and
``LagrangianDensity``; each class says how it differs only through the
hooks (``_make``, ``_shape``, ``_like``, ``_operand``, ``_scalar``).
The base's ``_like`` builds every result of ``+``, ``-``, negation and
scaling through ``_make`` and ``_shape()``; only ``PolyScalar``, whose
operand may be a bare rational, has its own.  ``blades._Sparse`` alone
says where a flat key's monomial starts (``_shift``).
``PolyScalar`` alone compares and hashes like a rational, and
``LagrangianDensity`` alone adds its symbol checks to ``+``.  One helper,
``blades.require_same_metric``, raises "mixed metrics", and one,
``blades.require``, raises "expected <kind>, got <type>".  Only
``indexes.check_canonical`` raises "strictly increasing", and only
``indexes`` turns an index list into a blade mask.  The base holds the one
``terms`` copy; only the values whose keys are flat keys, packed monomials or
slot pairs override it.  The value classes fill their slots through the slot descriptors, never
``object.__setattr__``.
The source is read with ``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"
BASE = "_Linear"
SHARED = {"__neg__", "__sub__", "is_zero", "__reduce__"}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text())


def classes() -> dict:
    """Class name -> its ClassDef, over every module of the package."""
    return {node.name: node for path in sorted(SRC.glob("*.py")) for node in tree(path.name).body
            if isinstance(node, ast.ClassDef)}


def body_names(cls: ast.ClassDef) -> set:
    """Names a class body defines or assigns."""
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def class_body_names(module: str, name: str) -> set:
    return body_names(next(node for node in tree(module).body
                           if isinstance(node, ast.ClassDef) and node.name == name))


def test_the_base_lives_in_poly_and_holds_the_linear_rules():
    base = class_body_names("poly.py", BASE)
    assert SHARED | {"__add__", "__mul__", "__rmul__", "__eq__", "__hash__", "__setattr__",
                     "__delattr__", "_make", "_shape", "_like", "_operand", "_scalar"} <= base
    assert not {"Frozen", "_Combination"} & set(classes())


@pytest.mark.parametrize("names, owners", [
    (SHARED, set()),
    ({"__eq__", "__hash__"}, {"PolyScalar"}),
    ({"_like"}, {"PolyScalar"}),
    ({"_shift"}, {"_Sparse"}),
], ids=["linear-rules", "equality", "like", "shift"])
def test_no_class_but_the_base_defines_the_shared_rules(names, owners):
    found = {name for name, cls in classes().items() if name != BASE and body_names(cls) & names}
    assert found == owners


def test_one_merge_loop_defines_add():
    defined = {name for name, cls in classes().items()
               if any(isinstance(node, ast.FunctionDef) and node.name == "__add__"
                      for node in cls.body)}
    assert defined == {BASE, "LagrangianDensity"}


@pytest.mark.parametrize("module, name", [("blades.py", "Multivector"),
                                          ("matrices.py", "MvMatrix")])
def test_value_classes_inherit_the_shared_rules(module, name):
    names = class_body_names(module, name)
    assert not names & (SHARED | {"__eq__", "_operand", "_scalar", "_require_same_space",
                                  "_like", "_shift"})


@pytest.mark.parametrize("name, own", [("FormalExpr", set()), ("LagrangianDensity", {"__add__"})])
def test_formal_values_inherit_the_shared_rules(name, own):
    # no class is left between the formal values and the base: they use its default hooks
    cls = classes()[name]
    assert [base.id for base in cls.bases] == [BASE]
    names = body_names(cls)
    hooks = {"_make", "_shape", "_like", "_operand", "_scalar", "__mul__", "__rmul__", "__eq__"}
    assert not names & (SHARED | hooks) and names & {"__add__"} == own


def _mentions(node, text: str = "mixed metrics") -> int:
    """Raise statements under ``node`` whose text includes ``text``."""
    return sum(any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and text in n.value for n in ast.walk(raised))
               for raised in ast.walk(node) if isinstance(raised, ast.Raise))


def test_one_helper_raises_mixed_metrics():
    total = sum(_mentions(tree(path.name)) for path in SRC.glob("*.py"))
    helper = next(node for node in tree("blades.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "require_same_metric")
    assert total == _mentions(helper) == 1


def test_one_helper_raises_strictly_increasing():
    # the constructors, MvMatrix.entry and the parser's blade literals all check through it
    text = "strictly increasing"
    total = sum(_mentions(tree(path.name), text) for path in SRC.glob("*.py"))
    helper = next(node for node in tree("indexes.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "check_canonical")
    assert total == _mentions(helper, text) == 1


@pytest.mark.parametrize("module", ["blades.py", "matrices.py", "parser.py"])
def test_index_lists_become_masks_only_through_indexes(module):
    imported = {alias.name for node in ast.walk(tree(module))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"check_canonical", "_MASK"}


def test_the_base_holds_the_one_terms_copy():
    owners = {name for name, cls in classes().items() if "terms" in body_names(cls)}
    assert owners == {BASE, "PolyScalar", "Multivector", "MvMatrix", "LagrangianDensity"}


def _expects_a_kind(node) -> int:
    """Raise statements under ``node`` whose text is "expected {...}, got ..."."""
    return sum(any(isinstance(n, ast.JoinedStr) and len(n.values) > 2
                   and isinstance(n.values[0], ast.Constant) and n.values[0].value == "expected "
                   and isinstance(n.values[1], ast.FormattedValue)
                   and isinstance(n.values[2], ast.Constant)
                   and n.values[2].value.startswith(", got ") for n in ast.walk(raised))
               for raised in ast.walk(node) if isinstance(raised, ast.Raise))


def test_one_helper_raises_expected_kind():
    total = sum(_expects_a_kind(tree(path.name)) for path in SRC.glob("*.py"))
    helper = next(node for node in tree("blades.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "require")
    assert total == _expects_a_kind(helper) == 1


@pytest.mark.parametrize("module", ["blades.py", "matrices.py", "poly.py", "variational.py"])
def test_slots_are_filled_through_their_descriptors(module):
    generic = [node for node in ast.walk(tree(module)) if isinstance(node, ast.Attribute)
               and node.attr == "__setattr__" and isinstance(node.value, ast.Name)
               and node.value.id == "object"]
    assert not generic
