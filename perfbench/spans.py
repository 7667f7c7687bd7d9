"""Span tracing of cohomkit's layers, from outside the package.

The tracer wraps the public functions and methods each layer exposes and
rebinds them under every name a loaded cohomkit module (or ``__main__``)
binds them to, so ``grpcoh.smith_transforms`` and ``ext.solve_mod`` are
traced as well as the defining module's own attribute.  Nothing under
``src/`` changes.

A span records its name, start, end, parent span, the task it ran under,
an optional size count (``cells``: rows x cols of the matrix involved) and
an optional outcome flag (``solve_mod`` found a solution, ``Subspace.add``
grew the space).  Spans stay in memory; ``summarize`` turns them into
per-name totals where self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib.abc
import sys
import time


def _cells_of_first(args, kwargs, result):
    m = args[0]
    return m.rows * m.cols


def _cells_of_result(args, kwargs, result):
    return result.rows * result.cols


def _not_none(result):
    return result is not None


def _truthy(result):
    return bool(result)


def _rank_name(args):
    return "exactmat.rank_gf2" if args[0].modulus == 2 else "exactmat.rank_gfp"


# (module, attribute path, span name or name function, cells, outcome)
LAYERS = (
    ("cohomkit.exactmat", "smith_transforms", "exactmat.smith_transforms", _cells_of_first, None),
    ("cohomkit.exactmat", "RationalMatrix.rref", "exactmat.rref", _cells_of_first, None),
    ("cohomkit.exactmat", "RationalMatrix.rank", "exactmat.rank_q", _cells_of_first, None),
    ("cohomkit.exactmat", "PrimeFieldMatrix.rank", _rank_name, _cells_of_first, None),
    ("cohomkit.exactmat", "solve_mod", "exactmat.solve_mod", _cells_of_first, _not_none),
    ("cohomkit.exactmat", "kernel_mod", "exactmat.kernel_mod", _cells_of_first, None),
    ("cohomkit.grpcoh", "coboundary_matrix", "grpcoh.coboundary_matrix", _cells_of_result, None),
    ("cohomkit.grpcoh", "coboundary", "grpcoh.coboundary", None, None),
    ("cohomkit.grpcoh", "cohomology_group", "grpcoh.cohomology_group", None, None),
    ("cohomkit.grpcoh", "cocycle_space", "grpcoh.cocycle_space", None, None),
    ("cohomkit.grpcoh", "hom_group", "grpcoh.hom_group", None, None),
    ("cohomkit.ext", "build_extension", "ext.build_extension", None, None),
    ("cohomkit.ext", "are_equivalent", "ext.are_equivalent", None, None),
    ("cohomkit.ext", "is_split", "ext.is_split", None, None),
    ("cohomkit.ext", "cocycle_of_section", "ext.cocycle_of_section", None, None),
    ("cohomkit.ext", "h1_h2_correspondence_check", "ext.h1_h2_correspondence_check", None, None),
    ("cohomkit.liealg", "generated_subalgebra", "liealg.generated_subalgebra", None, None),
    ("cohomkit.liealg", "ideal_closure", "liealg.ideal_closure", None, None),
    ("cohomkit.liealg", "Subspace.add", "liealg.subspace_add", None, _truthy),
    ("cohomkit.liecoh", "ce_differential", "liecoh.ce_differential", _cells_of_result, None),
    ("cohomkit.liecoh", "cohomology_report", "liecoh.cohomology_report", None, None),
    ("cohomkit.modular", "algebra_closure", "modular.algebra_closure", None, None),
    ("cohomkit.modular", "commutant", "modular.commutant", None, None),
    ("cohomkit.modular", "tomita", "modular.tomita", None, None),
    ("cohomkit.modular", "modular_flow_defect", "modular.modular_flow_defect", None, None),
    ("cohomkit.modular", "kms_defect", "modular.kms_defect", None, None),
    ("cohomkit.modular", "is_separating", "modular.is_separating", None, None),
    ("cohomkit.spacetime", "wedge_boost_generator", "spacetime.wedge_boost_generator", None, None),
    ("cohomkit.spacetime", "boost_generation_check", "spacetime.boost_generation_check", None, None),
)

LAYER_MODULES = frozenset(entry[0] for entry in LAYERS)

# Prefix of the line a traced CLI child prints its span summary on.
TRACE_MARK = "PERFBENCH_TRACE "

# Span fields, by position in the span list.
NAME, START, END, PARENT, TASK, CELLS, OUTCOME = range(7)


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}   # id(original) -> original
        self._wrappers: dict[int, object] = {}    # id(original) -> wrapper
        self._bound: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._finder = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, cells, outcome):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, clock(), 0.0, stack[-1] if stack else -1, tracer.task, None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if cells is not None:
                rec[CELLS] = cells(args, kwargs, result)
            if outcome is not None:
                rec[OUTCOME] = outcome(result)
            return result

        return traced

    def _patch_module(self, module) -> None:
        for mod_name, path, name, cells, outcome in LAYERS:
            if mod_name != module.__name__:
                continue
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if id(original) in self._wrappers:
                continue
            wrapper = self._wrap(original, name, cells, outcome)
            self._originals[id(original)] = original
            self._wrappers[id(original)] = wrapper
            if parents:  # a method: one class attribute, seen by every caller
                setattr(owner, attr, wrapper)
                self._bound.append((owner, attr, original))
        self._rebind()

    def _rebind(self) -> None:
        """Point every module-level name bound to a wrapped original at its
        wrapper, so imports like ``from .exactmat import solve_mod`` trace."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "__main__" or mod_name.startswith("cohomkit")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    namespace[attr] = wrapper
                    self._bound.append((module, attr, value))

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layers already imported and any imported later."""
        for mod_name in sorted(LAYER_MODULES):
            module = sys.modules.get(mod_name)
            if module is not None:
                self._patch_module(module)
        self._finder = _PatchOnImport(self._patch_module)
        sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        if self._finder is not None:
            sys.meta_path.remove(self._finder)
            self._finder = None
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()
        self._wrappers.clear()
        self._originals.clear()

    # -- results ----------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, self_s, cells, ok (outcome count), and the
        duration of the first call."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            agg = out.get(rec[NAME])
            if agg is None:
                agg = out[rec[NAME]] = {"calls": 0, "self_s": 0.0, "cells": 0, "ok": 0,
                                        "first_call_s": dur}
            agg["calls"] += 1
            agg["self_s"] += dur - child_time[i]
            agg["cells"] += rec[CELLS] or 0
            agg["ok"] += 1 if rec[OUTCOME] else 0
        return out

    def dump(self) -> list[dict]:
        return [{"name": r[NAME], "start": r[START], "end": r[END], "parent": r[PARENT],
                 "task": r[TASK], "cells": r[CELLS], "outcome": r[OUTCOME]}
                for r in self.spans]


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, inner, on_load):
        self._inner = inner
        self._on_load = on_load

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._inner.exec_module(module)
        self._on_load(module)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps a layer module right after it executes, for processes such as
    the CLI that import layers lazily."""

    def __init__(self, on_load):
        self._on_load = on_load

    def find_spec(self, fullname, path, target=None):
        if fullname not in LAYER_MODULES:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, self._on_load)
                return spec
        return None


def merge(into: dict, summary: dict) -> None:
    """Add one summary's totals into another (first_call_s keeps the larger)."""
    for name, agg in summary.items():
        cur = into.get(name)
        if cur is None:
            into[name] = dict(agg)
            continue
        for key in ("calls", "self_s", "cells", "ok"):
            cur[key] += agg[key]
        cur["first_call_s"] = max(cur["first_call_s"], agg["first_call_s"])
