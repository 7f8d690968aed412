"""Every function the benchmark's tracer wraps exists in ``src/mvcalc``.

``bench/tracing.py`` wraps each ``LAYER_FUNCTIONS`` target on its
defining module or class, looked up in that namespace's own ``__dict__``.
A renamed or deleted target would otherwise fail only inside a
``--trace 1`` run.  The table is read from the file's source with
``ast``, so the benchmark is neither imported nor changed here.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layer_functions() -> dict:
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no LAYER_FUNCTIONS table")


def test_every_traced_function_resolves_in_src():
    table = layer_functions()
    assert table
    for name, (module_name, path) in table.items():
        owner = importlib.import_module(module_name)
        assert Path(owner.__file__).resolve().is_relative_to(ROOT / "src"), name
        *outer, attr = path.split(".")
        for part in outer:
            owner = vars(owner).get(part)
            assert owner is not None, f"{name}: no {part} in {module_name}"
        assert callable(vars(owner).get(attr)), f"{name}: {path} is not defined in {module_name}"
