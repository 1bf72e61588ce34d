"""Span tracing of the package from outside it.

``Tracer.install`` replaces every public function and public method of
the package's modules with a wrapper that records a span: name, start,
end, parent span and iteration id. The package imports names directly
(``from .encoder import tokenize``), so one function is reachable through
several module attributes; each of them gets the same wrapper, and
``uninstall`` puts every original object back.

Spans stay in memory until ``write``. A span may carry one number
recorded at that boundary (tokens returned, bytes written, ...) by the
hook registered for its name, and hooks may also feed per-iteration sets
of distinct keys. Self time is a span's duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable, NamedTuple

# name -> fn(args, kwargs, result) -> number recorded on the span
ValueHook = Callable[[tuple, dict, Any], float]
# name -> fn(args, kwargs) -> keys added to the iteration's distinct set
DistinctHook = Callable[[tuple, dict], Iterable[Any]]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    iteration: int
    value: float


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def traceable(modules: Iterable[ModuleType]) -> list[tuple[Any, str, Any, str]]:
    """(owner, attribute, original, span name) for every public function
    attribute of ``modules`` defined in the package, and every public
    plain method of the package's classes. A function reachable through
    several modules is listed once per module, under one span name.
    """
    modules = list(modules)
    package = {m.__name__ for m in modules}
    sites = []
    seen_classes: set[type] = set()
    for module in modules:
        for attr, obj in sorted(vars(module).items()):
            if not _is_public(attr) or getattr(obj, "__module__", None) not in package:
                continue
            layer = obj.__module__.rsplit(".", 1)[-1]
            if inspect.isfunction(obj):
                sites.append((module, attr, obj, f"{layer}.{obj.__name__}"))
            elif inspect.isclass(obj) and obj not in seen_classes:
                seen_classes.add(obj)
                if getattr(obj, "_is_protocol", False) or issubclass(obj, BaseException):
                    continue
                for name, member in sorted(vars(obj).items()):
                    if _is_public(name) and inspect.isfunction(member):
                        sites.append((obj, name, member, f"{layer}.{obj.__name__}.{name}"))
    return sites


class Tracer:
    def __init__(
        self,
        value_hooks: dict[str, ValueHook] | None = None,
        distinct_hooks: dict[str, DistinctHook] | None = None,
    ):
        self.value_hooks = dict(value_hooks or {})
        self.distinct_hooks = dict(distinct_hooks or {})
        self.iteration = 0
        # open and closed spans as [name, start, end, parent list, iteration, value]
        self._spans: list[list] = []
        self._local = threading.local()
        self.distinct: dict[tuple[str, int], set] = defaultdict(set)
        self._installed: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.iteration, 0.0]
        self._spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        value_hook = self.value_hooks.get(name)
        distinct_hook = self.distinct_hooks.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if value_hook is not None:
                rec[5] = float(value_hook(args, kwargs, result))
            if distinct_hook is not None:
                tracer.distinct[(name, rec[4])].update(distinct_hook(args, kwargs))
            return result

        return traced

    def install(self, modules: Iterable[ModuleType]) -> int:
        """Wrap every traceable site; returns the number of sites wrapped."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for owner, attr, original, name in traceable(modules):
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self.wrap(original, name)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return len(self._installed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def spans(self) -> list[Span]:
        """Closed spans, parents as list indices."""
        index = {id(rec): i for i, rec in enumerate(self._spans)}
        return [
            Span(name, start, end, -1 if parent is None else index[id(parent)], it, value)
            for name, start, end, parent, it, value in self._spans
        ]

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines:
        index, name, start, end, parent, iteration, value."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titeration\tvalue\n")
            for i, s in enumerate(self.spans()):
                fields = (i, s.name, repr(s.start), repr(s.end), s.parent, s.iteration, repr(s.value))
                fh.write("\t".join(map(str, fields)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out
