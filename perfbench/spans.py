"""Timing and counting wrappers installed around bsym's public functions.

A span is one call of a wrapped function (or one resumption of a wrapped
generator).  Spans nest through a single stack, so each span knows its parent
and how much of its interval its children covered:

    self time = span duration - sum of the durations of its direct children

The hot layers are called millions of times per workload, so spans are folded
into per-function aggregates as they close instead of being kept one by one:
calls, total (inclusive) time, self time, errors raised, values yielded, and
call counts per (parent, child) edge.
"""

from __future__ import annotations

import functools
import inspect
import time

ROOT = ("", "<root>")


class FnStats:
    __slots__ = ("calls", "total_s", "self_s", "yields", "errors")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.yields = 0
        self.errors = {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # one frame per open span: [key, time covered by its children so far]
        self.stack = [[ROOT, 0.0]]
        self.stats = {}
        self.edges = {}

    def _close(self, key, st, t0, frame, exc):
        """Pop `frame` and fold its span into the aggregates."""
        d = self.clock() - t0
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += d
        st.total_s += d
        st.self_s += d - frame[1]
        if exc is not None:
            name = type(exc).__name__
            st.errors[name] = st.errors.get(name, 0) + 1
        edge = (parent[0], key)
        self.edges[edge] = self.edges.get(edge, 0) + 1

    def wrap(self, layer: str, fn, on_return=None):
        """A wrapper of `fn` that records one span per call under `layer`.

        `on_return(args, kwargs, result)`, if given, sees every normal return.
        """
        key = (layer, fn.__name__)
        st = self.stats.setdefault(key, FnStats())
        stack = self.stack
        clock = self.clock
        close = self._close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [key, 0.0]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            value = next(it)
                        except StopIteration:
                            close(key, st, t0, frame, None)
                            return
                        except BaseException as exc:
                            close(key, st, t0, frame, exc)
                            raise
                        close(key, st, t0, frame, None)
                        st.yields += 1
                        yield value
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(key, st, t0, frame, exc)
                raise
            close(key, st, t0, frame, None)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def layer_totals(self, layer: str):
        """(calls, self seconds) summed over every function of `layer`."""
        calls = 0
        self_s = 0.0
        for (lay, _), st in self.stats.items():
            if lay == layer:
                calls += st.calls
                self_s += st.self_s
        return calls, self_s

    def get(self, layer: str, name: str) -> FnStats:
        return self.stats.get((layer, name)) or FnStats()


def public_functions(module):
    """Functions defined in `module` whose names do not start with `_`."""
    return {
        obj for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _bindings(modules):
    """(label, namespace, key, function) for every module-level name bound to
    a function and every function held as a value of a module-level dict."""
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("__"):
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", vars(module), name, obj
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v):
                        yield f"{module.__name__}.{name}[{k!r}]", obj, k, v


def install(tracer: Tracer, layers: dict, modules, hooks=None) -> dict:
    """Wrap the public functions of each layer module, everywhere they are bound.

    `layers` maps a layer name to the module that defines its functions.
    Every module-level name in `modules` that is bound to one of those
    functions, under any name, is rebound to its wrapper, and so is every
    such function held as a value of a module-level dict (a dispatch table).
    `hooks` maps (layer, function name) to an `on_return` callback.
    Returns {original function: wrapper}.
    """
    hooks = hooks or {}
    wrappers = {}
    for layer, module in layers.items():
        for fn in public_functions(module):
            hook = hooks.get((layer, fn.__name__))
            wrappers[fn] = tracer.wrap(layer, fn, on_return=hook)
    for _, namespace, key, fn in _bindings(modules):
        if fn in wrappers:
            namespace[key] = wrappers[fn]
    return wrappers


def unwrapped_bindings(wrappers: dict, modules):
    """Labels of the module-level names and dict entries still bound to an original."""
    return [label for label, _, _, fn in _bindings(modules) if fn in wrappers]
