"""Span tracing of genhurwitz's layers from outside the program.

`Tracer.install()` wraps every public function of each layer module (the
plain functions named in its `__all__`) plus the `Polynomial` arithmetic
operators, and rebinds each wrapper at every module name that held the
original, so calls between modules and within one module are both seen;
`uninstall()` restores the originals.
The package re-exports `classify` over the submodule of the same name,
so modules are reached through `sys.modules`, never as attributes.

Each call becomes a span (id, parent id, name, start, end, request id)
kept in memory; `summary()` derives self times and counts from them and
`write()` dumps them as JSON lines.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import statistics
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "classify", "stieltjes", "minors", "polyalg", "oracle",
          "simatrix")
# Polynomial operators, reported under the polyalg layer
OPERATORS = {"__mul__": "polyalg.mul", "__divmod__": "polyalg.divmod"}

CLASSIFY = "classify.classify"
SWEEP = "minors.leading_principal_minors"
FALLBACK = "minors.exact_det"
BITS_LAYER = "minors."


def max_bits(value) -> int:
    """Largest numerator or denominator bit length of the Fractions in value."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((max_bits(v) for v in value), default=0)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((max_bits(getattr(value, f.name))
                    for f in dataclasses.fields(value)), default=0)
    return 0


def label_key(report) -> str:
    """`classify.p50_ms.<key>`: the label, with the SI type where it splits."""
    return f"{report.label}-{report.si_type}" if report.si_type else report.label


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, request)
        self.stack = [0]         # open span ids; 0 is the root
        self.request = 0
        self.bits = 0
        self.labels = {}         # classify span id -> label key
        self._ids = itertools.count(1)
        self._installed = None

    def _wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self.stack, self._ids
        minors = name.startswith(BITS_LAYER)
        classify = name == CLASSIFY

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.request))
            if minors:
                self.bits = max(self.bits, max_bits(result))
            if classify:
                self.labels[sid] = label_key(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _bindings(self):
        """(namespace, name, original, wrapper) for every name bound to a
        traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "genhurwitz" or n.startswith("genhurwitz.")]
        targets = {}     # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules.get(f"genhurwitz.{layer}")
            if mod is None:
                continue
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) \
                        and fn.__module__ == mod.__name__:
                    targets[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        poly = sys.modules["genhurwitz.polyalg"].Polynomial
        for dunder, name in OPERATORS.items():
            fn = vars(poly)[dunder]
            targets[id(fn)] = self._wrap(name, fn)
        # __rmul__ is bound to the same function as __mul__
        return [(ns, attr, value, targets[id(value)])
                for ns in modules + [poly]
                for attr, value in list(vars(ns).items())
                if id(value) in targets and targets[id(value)].__wrapped__ is value]

    def install(self) -> None:
        if self._installed is None:
            self._installed = self._bindings()
        for ns, attr, _, traced in self._installed:
            setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._installed:
            setattr(ns, attr, original)

    def summary(self, ops: int) -> dict:
        """Per-function calls and self time, plus the derived ratios."""
        child = defaultdict(float)
        name_of = {0: None}
        for sid, parent, name, start, end, _ in self.spans:
            child[parent] += end - start
            name_of[sid] = name
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        stalled, recursed = set(), set()
        for sid, parent, name, start, end, _ in self.spans:
            calls[name] += 1
            self_ms[name] += (end - start - child[sid]) * 1e3
            if name == FALLBACK and name_of[parent] == SWEEP:
                stalled.add(parent)
            if name == CLASSIFY and name_of[parent] == CLASSIFY:
                recursed.add(parent)
        top = [(sid, end - start) for sid, parent, name, start, end, _
               in self.spans if name == CLASSIFY and name_of[parent] != CLASSIFY]
        by_label = defaultdict(list)
        for sid, seconds in top:
            if sid in self.labels:       # a call that raised has no label
                by_label[self.labels[sid]].append(seconds * 1e3)
        return {
            "ops": ops,
            "calls": dict(calls),
            "self_ms": dict(self_ms),
            "sweeps_stalled": len(stalled),
            "classify_top": len(top),
            "classify_reflected": sum(1 for sid, _ in top if sid in recursed),
            "classify_p50_ms": {k: statistics.median(v)
                                for k, v in by_label.items()},
            "max_bits": self.bits,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end,
                                     "request": request}) + "\n")
