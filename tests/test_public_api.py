"""The public names: the package's ``__all__`` and every layer that
``perfbench/spans.py`` traces, so a rename or removal fails here and not only
in the traced benchmark phase; the report's shape against its schema; and
the package's runtime imports."""

import ast
import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import tailtest
from tailtest.inference import TestReport
from tailtest.schemas import TEST_REPORT_SCHEMA

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve():
    assert [name for name in tailtest.__all__ if not hasattr(tailtest, name)] == []


def test_traced_functions_exist():
    missing = [f"{module}.{attr}" for _, module, attr in _spans().FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_methods_exist():
    # The tracer wraps a method found in the class's own namespace.
    missing = []
    for _, module, cls, attr in _spans().METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls}.{attr}")
    assert missing == []


def test_report_fields_are_the_schema_keys():
    assert [f.name for f in fields(TestReport)] + ["version"] == TEST_REPORT_SCHEMA["required"]


def test_runtime_imports_are_stdlib_or_numpy():
    # Runtime dependencies stay numpy only; relative imports stay in the package.
    allowed = set(sys.stdlib_module_names) | {"numpy", "tailtest"}
    foreign = []
    for path in sorted(Path(tailtest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
