"""The public names: the package's ``__all__`` and every layer that
``perfbench/spans.py`` traces, so a rename or removal fails here and not only
in the traced benchmark phase."""

import importlib
import importlib.util
from pathlib import Path

import tailtest

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
