"""Outside-in tracer for filicert: spans and counters without touching src/.

The tracer replaces selected public functions and methods of the `filicert`
modules by wrappers while it is installed, and puts the originals back when
it is removed.  A module-level function is replaced by identity in *every*
loaded `filicert.*` namespace, because callers reach the same function
through different names: `cli` binds `derivation_algebra` with
``from .invariants import ...`` while `is_characteristically_nilpotent`
calls it through its own module global.

Span-wrapped callables record (name, start, end, parent) into an in-memory
list; counter-wrapped callables (the Scalar ring operations and other calls
made hundreds of thousands of times) only bump a count, so that the trace
does not swamp what it measures.  A span's self time is its duration minus
the durations of its direct children; the program is single-threaded, so
children never overlap and there is no waiting time to record.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# Spans: module -> public functions, and (module, class) -> methods.
SPAN_FUNCTIONS = {
    "dataio": ("load_corpus", "structure_constants", "certificate_matrix"),
    "lie": ("jacobi_check", "cocycle_check", "is_derivation", "is_ideal",
            "restrict"),
    "linalg": ("span_basis",),
    "deformation": ("run_certificate_checks", "verify_degeneration",
                    "block_spectrum_check", "limit_check",
                    "solve_certificate_cell", "go_cocycle", "deform"),
    "invariants": ("lower_central_series", "derived_series", "is_filiform",
                   "center_dim", "derivation_algebra",
                   "is_characteristically_nilpotent"),
    "cli": ("main", "verify_algebra", "invariant_records",
            "counterexample_lines", "render_verify_text",
            "render_verify_machine", "render_invariants_text",
            "render_invariants_machine"),
}
SPAN_METHODS = {
    ("linalg", "ScalarMatrix"): ("char_poly",),
    ("linalg", "RationalMatrix"): ("nullspace", "row_space_basis"),
    ("invariants", "RationalAlgebra"): ("from_structure",),
}
# Counters: one count per call, no span.
COUNT_FUNCTIONS = {
    "dataio": ("parse_algebra",),
    "lie": ("basis_column",),
}
COUNT_METHODS = {
    ("scalar", "Scalar"): ("__add__", "__radd__", "__mul__", "__rmul__",
                           "exact_div"),
    ("lie", "Cochain2"): ("bracket_eval",),
}


def self_times(spans):
    """Total self time per span name.

    `spans` is a list of (name, start, end, parent) with `parent` the index
    of the enclosing span or -1.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] += (end - start) - child_time[index]
    return dict(totals)


class Tracer:
    """Spans and counters for one traced section of a run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_terms = 0
        self.nullspace_cells = 0
        self.nullspace_rows = 0
        self.nullspace_rank = 0
        self.span_in = 0
        self.span_out = 0
        self.der_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _scalar_mul(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, b):
            tracer.counts["scalar.mul"] += 1
            result = fn(a, b)
            terms = getattr(result, "_terms", None)
            if terms is not None and len(terms) > tracer.max_terms:
                tracer.max_terms = len(terms)
            return result
        return wrapper

    def _nullspace(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(matrix):
            basis = fn(matrix)
            rows, cols = matrix.n_rows, matrix.n_cols
            tracer.nullspace_rows += rows
            tracer.nullspace_cells += rows * cols
            tracer.nullspace_rank += cols - len(basis)
            return basis
        return wrapper

    def _span_basis(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(vectors):
            vectors = list(vectors)
            basis = fn(vectors)
            tracer.span_in += len(vectors)
            tracer.span_out += len(basis)
            return basis
        return wrapper

    def _derivation_algebra(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(algebra):
            tracer.der_keys.add((algebra.dim, tuple(sorted(algebra.table.items()))))
            return fn(algebra)
        return wrapper

    def _wrap(self, module, name, fn, count):
        """The traced replacement of `module.name` (a function or method)."""
        if module == "scalar":
            if name in ("__mul__", "__rmul__"):
                return self._scalar_mul(fn)
            kind = {"__add__": "add", "__radd__": "add"}.get(name, name)
            return self._count(f"scalar.{kind}", fn)
        label = f"{module}.{name}"
        if count:
            return self._count(label, fn)
        extra = {"nullspace": self._nullspace, "span_basis": self._span_basis,
                 "derivation_algebra": self._derivation_algebra}.get(name)
        return self._span(label, extra(fn) if extra else fn)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every traced callable; `remove` undoes it exactly."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        functions = {}
        for table, count in ((SPAN_FUNCTIONS, False), (COUNT_FUNCTIONS, True)):
            for module, names in table.items():
                mod = importlib.import_module(f"filicert.{module}")
                for name in names:
                    original = getattr(mod, name)
                    functions[id(original)] = (original,
                                               self._wrap(module, name, original, count))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "filicert" or n.startswith("filicert.")]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])
        for table, count in ((SPAN_METHODS, False), (COUNT_METHODS, True)):
            for (module, cls_name), names in table.items():
                cls = getattr(importlib.import_module(f"filicert.{module}"), cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(module, name, raw.__func__, count))
                    else:
                        new = self._wrap(module, name, raw, count)
                    self._patch(cls, name, new)

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    own = self_times(tracer.spans)
    calls = Counter(name for name, *_ in tracer.spans)
    calls.update(tracer.counts)

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "dataio.load_corpus.s": s("dataio.load_corpus"),
        "dataio.parse_algebra.calls": n("dataio.parse_algebra"),
        "scalar.mul.calls": n("scalar.mul"),
        "scalar.add.calls": n("scalar.add"),
        "scalar.exact_div.calls": n("scalar.exact_div"),
        "scalar.max_terms": float(tracer.max_terms),
        "lie.jacobi_check.s": s("lie.jacobi_check"),
        "lie.cocycle_check.s": s("lie.cocycle_check"),
        "lie.is_derivation.s": s("lie.is_derivation"),
        "lie.bracket_eval.calls": n("lie.bracket_eval"),
        "lie.basis_column.calls": n("lie.basis_column"),
        "linalg.char_poly.s": s("linalg.char_poly"),
        "linalg.char_poly.calls": n("linalg.char_poly"),
        "linalg.nullspace.s": s("linalg.nullspace"),
        "linalg.nullspace.calls": n("linalg.nullspace"),
        "linalg.nullspace.cells": tracer.nullspace_cells,
        "linalg.nullspace.rank_ratio": ratio(tracer.nullspace_rank, tracer.nullspace_rows),
        "linalg.span_basis.s": s("linalg.span_basis", "linalg.row_space_basis"),
        "linalg.span_basis.calls": n("linalg.span_basis"),
        "linalg.span_basis.useful": ratio(tracer.span_out, tracer.span_in),
        "deformation.run_certificate_checks.s": s("deformation.run_certificate_checks"),
        "deformation.verify_degeneration.s": s("deformation.verify_degeneration"),
        "deformation.block_spectrum_check.s": s("deformation.block_spectrum_check"),
        "deformation.solve_certificate_cell.s": s("deformation.solve_certificate_cell"),
        "invariants.from_structure.s": s("invariants.from_structure"),
        "invariants.series.s": s("invariants.lower_central_series",
                                  "invariants.derived_series", "invariants.is_filiform"),
        "invariants.center_dim.s": s("invariants.center_dim"),
        "invariants.derivation_algebra.s": s("invariants.derivation_algebra"),
        "invariants.derivation_algebra.calls": n("invariants.derivation_algebra"),
        "invariants.der_reuse": ratio(len(tracer.der_keys),
                                      calls.get("invariants.derivation_algebra", 0)),
        "invariants.char_nilpotent.s": s("invariants.is_characteristically_nilpotent"),
        "cli.render.s": s("cli.render_verify_text", "cli.render_verify_machine",
                          "cli.render_invariants_text", "cli.render_invariants_machine"),
    }
    for layer in ("dataio", "lie", "linalg", "deformation", "invariants", "cli"):
        metrics[f"{layer}.self_s"] = s(*(k for k in own if k.startswith(layer + ".")))
    return metrics
