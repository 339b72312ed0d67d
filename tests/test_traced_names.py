"""Every function the benchmark's tracer wraps exists in its module.

``Tracer.install`` in ``perfbench/tracing.py`` looks each name up with no
default, so a renamed or deleted function would crash a traced benchmark
run.  The table is read with ``ast``, without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_functions() -> dict:
    for stmt in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"no LAYER_FUNCTIONS table in {TRACING}")


def test_every_traced_function_exists():
    table = _layer_functions()
    assert table
    missing = [f"{module}.{name}" for module, names in table.values() for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
