"""Instrumentation installed from outside grclab by swapping module attributes.

An *op* is one call into ``risk.monte_carlo_expected_excess``: one CSV row
of a sweep, or one Monte Carlo estimate inside a verify suite.  Untraced
passes install only the op timer.  Traced passes also wrap every public
function of each grclab module, and ``numpy.linalg.eigh``, and record one
span per call in flat arrays (name, start, end, parent span, op id).  Self
times are derived from the spans once the run has ended.

grclab modules import each other's functions by name, so a wrapper must
replace every module attribute that holds the original function object,
not only the attribute of the defining module.  Calls inside one module
go through its globals, which are the same attributes.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("sampler", "regularizers", "risk", "theory", "oracle", "estimators", "model", "cli")
OP_NAME = "risk.monte_carlo_expected_excess"
EIGH_NAME = "linalg.eigh"
DRAW_NAMES = ("sampler.sample_gaussian_design", "sampler.sample_one_hot_design")

clock = time.perf_counter


def public_functions(modules: dict) -> dict:
    """Map each public function defined in a grclab layer to ``layer.name``."""
    found = {}
    for layer in LAYERS:
        module = modules[layer]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[value] = f"{layer}.{attr}"
    return found


class Spans:
    """Spans of traced calls, kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        # Per-pass counters of the design draws, reset by the worker.
        self.draw_bytes = 0
        self.draw_seeds: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)
        count_draw = name in DRAW_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_draw:
                self._count_draw(*args, **kwargs)
            idx = len(start)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count_draw(self, s, n, seed):
        self.draw_bytes += int(n) * s.d * 8
        self.draw_seeds.add(seed)

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - children


class Instruments:
    """Installs and removes the op timer and, for traced passes, the spans."""

    def __init__(self, grclab_package, modules: dict, linalg):
        self._namespaces = [grclab_package] + [modules[layer] for layer in LAYERS]
        self._functions = public_functions(modules)
        self._linalg = linalg
        self._signature = inspect.signature(modules["risk"].monte_carlo_expected_excess)
        self._patched: list = []
        self.ops: list[dict] = []
        self.spans = Spans()

    def install(self, traced: bool) -> None:
        replacements = {}
        for fn, name in self._functions.items():
            wrapped = self.spans.wrap(name, fn) if traced else fn
            if name == OP_NAME:
                wrapped = self._op_timer(wrapped)
            if wrapped is not fn:
                replacements[fn] = wrapped
        for namespace in self._namespaces:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in replacements:
                    self._patch(namespace, attr, replacements[value])
        if traced:
            self._patch(self._linalg, "eigh", self.spans.wrap(EIGH_NAME, self._linalg.eigh))

    def _patch(self, namespace, attr, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _op_timer(self, fn):
        ops, spans, signature = self.ops, self.spans, self._signature

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            record = {"reps": int(bound.arguments["reps"]), "n": int(bound.arguments["n"])}
            ops.append(record)
            spans.op_id = len(ops) - 1
            record["start"] = clock()
            try:
                estimate, decomp = fn(*args, **kwargs)
            except Exception as exc:
                record["end"] = clock()
                record["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                spans.op_id = -1
            record["end"] = clock()
            values = (estimate.mean, estimate.std_error, decomp.bias, decomp.variance)
            record["values"] = values
            if not all(math.isfinite(v) for v in values):
                record["error"] = f"non-finite result {values}"
            return estimate, decomp

        return timed
