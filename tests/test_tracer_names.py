"""Every name the benchmark's tracer wraps still exists in filicert.

A rename that breaks ``bench/tracing.py`` also fails ``bench/test_bench.py``
(which the tier-1 suite collects too), with an AttributeError from inside
the tracer; this test names the missing attribute, and checks that each
traced method is the class's own.  The tracer module is loaded from its
file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib

from helpers import load_bench_module


def test_every_traced_name_resolves_in_filicert(monkeypatch):
    tracing = load_bench_module(monkeypatch, "tracing")
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
