"""``Multivector`` and ``MvMatrix`` share one copy of their value rules.

``blades._Sparse`` owns immutability, copy and pickle, the same-space
check, the linear structure and equality with its zero rule; each class
keeps its constructor, its trusted builder and its products.  One helper,
``blades.require_same_metric``, raises "mixed metrics".  The source is
read with ``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"
SHARED = {"__setattr__", "__delattr__", "__eq__", "__neg__", "__sub__", "is_zero",
          "_require_same_space"}


def tree(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text())


def class_body_names(module: str, name: str) -> set:
    """Names a class body defines or assigns."""
    cls = next(node for node in tree(module).body
               if isinstance(node, ast.ClassDef) and node.name == name)
    names = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("module, name", [("blades.py", "Multivector"),
                                          ("matrices.py", "MvMatrix")])
def test_value_classes_inherit_the_shared_rules(module, name):
    assert not class_body_names(module, name) & SHARED


def _mentions(node) -> int:
    """Raise statements under ``node`` whose text includes "mixed metrics"."""
    return sum(any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and "mixed metrics" in n.value for n in ast.walk(raised))
               for raised in ast.walk(node) if isinstance(raised, ast.Raise))


def test_one_helper_raises_mixed_metrics():
    total = sum(_mentions(tree(path.name)) for path in SRC.glob("*.py"))
    helper = next(node for node in tree("blades.py").body
                  if isinstance(node, ast.FunctionDef) and node.name == "require_same_metric")
    assert total == _mentions(helper) == 1
