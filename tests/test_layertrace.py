"""The benchmark's layer trace names package functions; each name must resolve."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layertrace.py"


def _traced_names() -> dict:
    """TARGETS of benchmarks/layertrace.py, read from its source without importing it."""
    for node in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{LAYERTRACE.name} defines no TARGETS")


def test_every_traced_name_resolves_on_the_package():
    targets = _traced_names()
    missing = []
    for module, names in targets.items():
        obj_module = importlib.import_module(f"hartreekit.{module}")
        for name in names:
            obj = obj_module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert targets, "no traced names"
    assert not missing, f"traced names that do not resolve: {missing}"
