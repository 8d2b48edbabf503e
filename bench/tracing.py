"""In-memory span tracing of the package's public functions.

The tracer never edits the package: ``install`` replaces, in every loaded
``borninfeld`` module namespace, each reference to a public function of a
layer module with a wrapper, and ``uninstall`` puts the originals back.
References bound by ``from .x import f`` are replaced too, so calls between
modules are seen wherever they are made.  Functions whose names start with an
underscore are not wrapped; their time counts as self time of the public
caller.

Each wrapper records one span (name, start, end, parent) in flat arrays and
the per-name aggregates are computed once, at the end, by ``aggregate``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

LAYERS = ("cli", "field", "quad", "radial", "conditions", "core")
PACKAGE = "borninfeld"


def public_functions(module) -> dict[str, types.FunctionType]:
    """Public functions defined in ``module`` (not re-exported imports)."""
    return {
        name: value
        for name, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and not name.startswith("_")
        and value.__module__ == module.__name__
    }


class Tracer:
    """Records spans of wrapped calls; ``hooks`` add counters on return.

    ``hooks`` maps a span name such as ``"field.minimize_energy"`` to a
    callable ``hook(counters, args, result)`` run after the span closes.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = self.hooks.get(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer module."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for fname, fn in public_functions(module).items():
                    self._wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every attribute ``install`` replaced."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict[str, dict[str, float]]:
        return aggregate(
            [self.names[i] for i in self.span_name],
            self.span_parent,
            self.span_start,
            self.span_end,
        )


def aggregate(names, parents, starts, ends) -> dict[str, dict[str, float]]:
    """Per-name call count, total time and self time of a span list.

    Span i has name ``names[i]`` and parent index ``parents[i]`` (-1 for a
    root).  Its self time is its duration minus the durations of its direct
    children, which nest inside it.
    """
    n = len(names)
    durations = [ends[i] - starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_time[parents[i]] += durations[i]
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        entry = out.setdefault(names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += durations[i]
        entry["self_s"] += durations[i] - child_time[i]
    return out
