"""Outside-in tracing of the loadspace package from the benchmark's side.

The package is not instrumented. Instead, every public function (a
function named in some module's ``__all__``; classes are left alone so
``isinstance`` keeps working) is replaced by a wrapper wherever any
loadspace module holds that name. Python looks module globals up at call
time, so calls the package makes between its own modules, such as
``tariff.spot_payment`` calling ``curve.integrate``, go through the
wrappers too.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import tracemalloc
from array import array
from time import perf_counter_ns

import numpy as np


class Bindings:
    """Every public function of a package and every module name bound to it."""

    def __init__(self, pkg) -> None:
        modules = [
            importlib.import_module(f"{pkg.__name__}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if info.name != "__main__"  # importing it would run the CLI
        ]
        by_id: dict[int, tuple[object, str]] = {}
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    by_id[id(obj)] = (obj, f"{layer}.{obj.__name__}")
        self.functions = {name: func for func, name in by_id.values()}
        self._sites = [
            (mod, attr, by_id[id(obj)][1])
            for mod in (pkg, *modules)
            for attr, obj in vars(mod).items()
            if id(obj) in by_id and by_id[id(obj)][0] is obj
        ]

    def patch(self, make_wrapper, names=None) -> None:
        """Rebind each function (or only those in `names`) to make_wrapper(func, name)."""
        wrappers = {
            name: make_wrapper(func, name)
            for name, func in self.functions.items()
            if names is None or name in names
        }
        for mod, attr, name in self._sites:
            if name in wrappers:
                setattr(mod, attr, wrappers[name])

    def restore(self) -> None:
        for mod, attr, name in self._sites:
            setattr(mod, attr, self.functions[name])


class Tracer:
    """Span recorder whose `wrap` is a make_wrapper for Bindings.patch."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, func, *args, **kwargs):
        """Call func inside a span called `name`."""
        idx = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.span(name, func, *args, **kwargs)

        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """{name: (calls, self_ms)} over every recorded span."""
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        calls = np.bincount(name_id, minlength=len(self.names))
        self_total = np.bincount(name_id, weights=self_ns, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(self_total[i]) / 1e6) for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def peak_recorder(peaks: list[int]):
    """make_wrapper that appends each call's tracemalloc peak in bytes to `peaks`.

    tracemalloc runs only inside the wrapped call, so the rest of the op runs
    at full speed; the wrapped calls must not nest.
    """

    def make(func, name):
        @functools.wraps(func)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return func(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    return make
