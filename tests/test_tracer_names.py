"""Every name the benchmark's tracer wraps still exists in filicert.

The tier-1 suite collects only ``tests/``, so a rename that breaks
``bench/tracing.py`` would otherwise show only in a benchmark run.  The
tracer module is loaded from its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_filicert(monkeypatch):
    tracing = load_tracing(monkeypatch)
    functions = {**tracing.SPAN_FUNCTIONS}
    for module, names in tracing.COUNT_FUNCTIONS.items():
        functions[module] = functions.get(module, ()) + names
    methods = {**tracing.SPAN_METHODS}
    for owner, names in tracing.COUNT_METHODS.items():
        methods[owner] = methods.get(owner, ()) + names
    assert functions and methods
    for module, names in functions.items():
        namespace = importlib.import_module(f"filicert.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"filicert.{module}.{name}"
    for (module, cls_name), names in methods.items():
        cls = getattr(importlib.import_module(f"filicert.{module}"), cls_name)
        for name in names:
            # the tracer patches the class's own attribute, not an inherited one
            assert name in cls.__dict__, f"filicert.{module}.{cls_name}.{name}"
