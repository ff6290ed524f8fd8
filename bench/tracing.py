"""Span tracing around the calls into each poretail module.

The tracer replaces every public function of the traced modules with a
timing wrapper, in every poretail namespace that binds it (the CLI imports
functions by name, so patching the defining module alone would miss those
calls). Spans (name, layer, start, end, parent, op) are kept in memory and
written once at the end. Functions called once per pore, table cell or
likelihood evaluation get no span, so tracing stays cheap. A probe
may turn a call's arguments and result into a few numbers kept on its span;
results themselves are not kept, so tracing holds no datasets alive.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Traced module -> its layer name.
TRACED_MODULES = {
    "poretail.cli": "cli",
    "poretail.geometry": "geometry",
    "poretail.threshold": "threshold",
    "poretail.gpd": "gpd",
    "poretail.extremes": "extremes",
    "poretail.reports": "reports",
    "poretail.equivalence": "equivalence",
    "poretail.synthetic": "synthetic",
}

# Helpers called once per pore, table cell or likelihood evaluation. Their
# time stays in the caller's span; only gpd_nll is counted.
PER_ELEMENT = {
    "poretail.geometry": {"equiv_diameter", "aspect_ratio", "sphericity", "sphere_surface_area", "make_pore_record"},
    "poretail.gpd": {"gpd_nll", "gpd_cdf"},
    "poretail.reports": {"fmt", "provenance_lines"},
}
COUNTED = {"gpd.gpd_nll"}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str
    info: dict | None = None


Probe = Callable[[tuple, dict, object], dict]


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self, probes: dict[str, Probe] | None = None) -> None:
        self.probes = probes or {}
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _spanned(self, layer: str, name: str, func):
        spans, stack, probe = self.spans, self._stack, self.probes.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module, everywhere they are bound."""
        replacements = {}
        for module_name, layer in TRACED_MODULES.items():
            module = sys.modules[module_name]
            for name, func in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(func) or func.__module__ != module_name:
                    continue
                qualified = f"{layer}.{name}"
                if qualified in COUNTED:
                    replacements[func] = self._counted(qualified, func)
                elif name not in PER_ELEMENT.get(module_name, ()):
                    replacements[func] = self._spanned(layer, qualified, func)
        for module_name, module in list(sys.modules.items()):
            if module_name != "poretail" and not module_name.startswith("poretail."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patches.append((module, name, value))
                    setattr(module, name, replacements[value])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def outermost(self, name: str) -> list[Span]:
        """Spans of `name` not nested in another span of the same name."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                out.append(span)
        return out

    def total(self, name: str) -> float:
        return sum(span.end - span.start for span in self.outermost(name))

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span duration minus the time of its child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Counter[str] = Counter()
        for span, covered in zip(self.spans, child_time):
            totals[span.layer] += (span.end - span.start) - covered
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "layer": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "op": span.op,
                    "info": span.info,
                }
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
