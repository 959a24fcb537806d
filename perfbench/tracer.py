"""Spans and counts around the library's functions, installed from outside.

`Tracer.install` rebinds every function defined in the seven library
modules, and scipy's `logm`/`expm` kernels, to a wrapper that records a
span and aggregates calls, self time and raised exception types.  A name
is rebound in every package module that refers to the function (for
example both `metric.compression_reason` and `semigroup.compression_reason`),
so calls between modules are seen as well as calls from the benchmark.
`Tracer.restore` puts the originals back.  Nothing in the library changes.

Spans live in flat arrays (name id, parent span, start, end, op index) and
are written out by `save` when the run ends.  Every span is stored; the
traced phase stops starting ops once `MAX_SPANS` are held (`full`), so the
spans and the call counts cover the same ops, and the arrays stay near
36 MB.  Calls are strictly nested in
one thread, so a span's self time is its duration minus its direct
children's durations, which is the part of it no child span covers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("cone", "group", "semigroup", "metric", "linalg", "serialize", "cli")
SCIPY_KERNELS = ("logm", "expm")
OP = "op"  # root span the benchmark opens around each operation
MAX_SPANS = 1_000_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.errors: dict[tuple[str, str], int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_op = array("q")
        self.op = -1
        self._active = False
        self._open: list[int] = []  # span index of each open span
        self._child_ns: list[int] = []  # time spent in direct children of each open span
        self._rebound: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def _span(self, nid: int, fn, args, kwargs):
        if not self._active:
            return fn(*args, **kwargs)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_op.append(self.op)
        self._open.append(idx)
        self._child_ns.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            key = (self.names[nid], type(exc).__name__)
            self.errors[key] = self.errors.get(key, 0) + 1
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
            children = self._child_ns.pop()
            if self._child_ns:
                self._child_ns[-1] += t1 - t0
            self.calls[nid] += 1
            self.self_ns[nid] += t1 - t0 - children
            self.span_start[idx] = t0
            self.span_end[idx] = t1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(nid, fn, args, kwargs)

        return traced

    @property
    def full(self) -> bool:
        return len(self.span_name) >= MAX_SPANS

    def call_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span with tracing on."""
        self.op = op
        self._active = True
        try:
            return self._span(self._name_id(OP), fn, args, {})
        finally:
            self._active = False

    def install(self) -> None:
        import scipy.linalg

        package = importlib.import_module("dualvinberg")
        modules = [importlib.import_module(f"dualvinberg.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for attr in SCIPY_KERNELS:
            obj = getattr(scipy.linalg, attr)
            self._rebound.append((scipy.linalg, attr, obj))
            setattr(scipy.linalg, attr, self._wrap(f"scipy.{attr}", obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64),
            "op": np.frombuffer(self.span_op, dtype=np.int64),
        }

    def children_per_parent(self, child: str, parent: str) -> np.ndarray:
        """Number of `child` spans directly under each `parent` span."""
        if child not in self._ids or parent not in self._ids:
            return np.zeros(0, dtype=np.int64)
        s = self.spans()
        parents = np.flatnonzero(s["name"] == self._ids[parent])
        kids = s["parent"][s["name"] == self._ids[child]]
        kids = kids[kids >= 0]
        counts = np.bincount(kids, minlength=len(s["name"]))
        return counts[parents]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())
