"""In-memory span recorder and the wrapping that feeds it.

A span is one call into a layer: name, start, end, parent span and the
operation it belongs to.  Spans are kept in a list while the benchmark runs
and written out as JSON lines when it ends.

The package binds names at import time (`from .graph_core import
clique_tree` in chordal_conversion), so wrapping only the defining module
would miss most calls.  `patch_package` replaces every binding of the
function object in every loaded module of the package, and `unpatch` puts
the originals back.
"""

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans of one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or None, op]
        self.counters = {}
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def self_times(self, first=0, last=None):
        """Per span in [first, last): duration minus the time covered by its
        direct children.  Spans of one thread nest, so children never
        overlap each other."""
        out = {}
        for i in range(first, len(self.spans) if last is None else last):
            name, start, end, parent, _ = self.spans[i]
            out[i] = out.get(i, 0.0) + (end - start)
            if parent is not None and parent >= first:
                out[parent] = out.get(parent, 0.0) - (end - start)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def _package_modules(package):
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def public_functions(module):
    """Functions a module exports through __all__ and defines itself."""
    names = getattr(module, "__all__", ())
    return [n for n in names
            if inspect.isfunction(getattr(module, n, None))
            and getattr(module, n).__module__ == module.__name__]


def patch_package(package, wrappers):
    """Rebind functions across a package.

    `wrappers` maps each original function object to its replacement.
    Every module attribute of the package that is one of those objects is
    replaced.  Returns the undo list for `unpatch`.
    """
    undo = []
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
    return undo


def unpatch(undo):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)
