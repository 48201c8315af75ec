"""The names perfbench's tracer patches still exist in the package.

The tracer looks each name up with getattr when ``--trace 1`` installs it,
so a renamed or deleted function breaks traced runs.  The tracer's source
is parsed, not imported, so no bytecode is written next to it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_table(name):
    """The literal value assigned to module-level `name` in the tracer's source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no {name}")


TRACED = [(module, func) for module, funcs in tracer_table("TRACED").items() for func in funcs]
VALIDATED = [pair for classes in tracer_table("VALIDATED").values() for pair in classes]


@pytest.mark.parametrize("module, func", TRACED)
def test_traced_function_exists(module, func):
    assert callable(getattr(importlib.import_module(f"fxfolio.{module}"), func, None))


@pytest.mark.parametrize("module, cls_name", VALIDATED)
def test_validated_class_defines_post_init(module, cls_name):
    cls = getattr(importlib.import_module(f"fxfolio.{module}"), cls_name)
    assert "__post_init__" in vars(cls)
