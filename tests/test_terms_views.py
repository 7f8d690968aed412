"""The engine modules read term storage directly, never a ``terms`` view.

``PolyScalar.terms``, ``Multivector.terms`` and ``MvMatrix.terms`` build
a new dict on every access, for callers outside the package; on a
polynomial value each access regroups the flat keys into one PolyScalar
per blade.  A read of ``.terms`` inside the modules that define,
multiply, differentiate, generate, vary or parse those values would
quietly pay for that on every call, so none may appear there; the
properties themselves read the private dicts.  The source is read with
``ast``, so nothing is imported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mvcalc"


@pytest.mark.parametrize("module", ["poly.py", "blades.py", "matrices.py", "calculus.py",
                                    "randgen.py", "variational.py", "em.py", "parser.py"])
def test_core_modules_read_no_terms_view(module):
    tree = ast.parse((SRC / module).read_text())
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert not reads, f"{module} reads .terms on lines {reads}"
