"""Span recording for the benchmark's traced runs.

A span covers one call into a layer of the package: its name, wall start
and end, CPU time (process-wide, so CPU / wall is the achieved parallelism
of threaded calls), minor page faults, the enclosing span, and the workload
and request it belongs to.  Spans stay in memory and are written out when
the run ends.  `instrument` wraps the public functions and methods of every
loaded ``aprng`` module so that calls made by the package itself, such as
those of the CLI, are recorded without changing the package's source.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import resource
import sys
import threading
import time
from contextlib import contextmanager


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Tracer:
    """In-memory span store with one span stack per thread."""

    def __init__(self, workload: str = "", request=None):
        self.workload = workload
        self.request = request
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the record, which holds
        wall_s, cpu_s and minflt once the body has finished."""
        stack = self._stack()
        rec = {"id": next(self._ids), "parent": stack[-1] if stack else None,
               "name": name, "layer": name.split(".", 1)[0],
               "workload": self.workload, "request": self.request,
               "thread": threading.get_ident()}
        stack.append(rec["id"])
        f0, c0, t0 = _minflt(), time.process_time(), time.perf_counter()
        try:
            yield rec
        finally:
            t1, c1, f1 = time.perf_counter(), time.process_time(), _minflt()
            stack.pop()
            rec.update(start=t0, end=t1, wall_s=t1 - t0, cpu_s=c1 - c0,
                       minflt=f1 - f0)
            self.spans.append(rec)


def merge(groups) -> list[dict]:
    """Spans of several processes as one list, with ids made unique by
    prefixing each process's ids with its index."""
    out = []
    for k, group in enumerate(groups):
        for s in group:
            s["id"] = f"{k}.{s['id']}"
            if s["parent"] is not None:
                s["parent"] = f"{k}.{s['parent']}"
            out.append(s)
    return out


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = max(0.0, s["wall_s"] - covered)
    return out


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total wall, total self time, CPU and faults."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "wall_s": 0.0,
                                           "self_s": 0.0, "cpu_s": 0.0,
                                           "minflt": 0})
        row["calls"] += 1
        row["wall_s"] += s["wall_s"]
        row["self_s"] += selfs[s["id"]]
        row["cpu_s"] += s["cpu_s"]
        row["minflt"] += s["minflt"]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _wrap_function(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


def _wrap_method(tracer: Tracer, fn, attr: str):
    # named after the receiver's class, so an inherited WordStream.take on
    # a morphic stream is attributed to the morphic layer
    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        cls = type(self)
        with tracer.span(f"{_layer_of(cls.__module__)}.{cls.__name__}.{attr}"):
            return fn(self, *args, **kwargs)
    return traced


def instrument(tracer: Tracer, package: str = "aprng") -> None:
    """Wrap every public function and plain method defined in the loaded
    modules of ``package``, and rebind the names other modules imported."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    functions = {}                  # id of the original -> its wrapper
    for mod in modules:
        layer = _layer_of(mod.__name__)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                functions[id(obj)] = _wrap_function(tracer, obj, f"{layer}.{attr}")
            elif inspect.isclass(obj):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, name, _wrap_method(tracer, member, name))
                    elif isinstance(member, (staticmethod, classmethod)):
                        inner = _wrap_function(tracer, member.__func__,
                                               f"{layer}.{obj.__name__}.{name}")
                        setattr(obj, name, type(member)(inner))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = functions.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
