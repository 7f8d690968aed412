"""The blade-mask tables and the sign rules are defined in ``indexes`` alone.

``mvcalc.indexes`` owns ``_Memo``, the mask tables and the three sign
rules, and every other module imports them.  A copy defined anywhere
else would be a second sign implementation, one that the verify
properties on the public index helpers no longer check.  The source is
read with ``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"
OWNED = {"_Memo", "_MASK", "_BLADE", "_ABOVE", "_wedge_rule", "_left_rule", "_right_rule"}


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
