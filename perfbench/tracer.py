"""In-memory span recorder that wraps functions of the package from the
outside.

A span is (id, name, start, end, parent id, request id, count). Spans nest by
call stack per thread; a child inherits its parent's request id unless the
wrapper names one. ``count`` is a work count taken at the boundary (rows
scored, rows touched, bytes moved), or 0. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func: Callable, name: str,
             request_of: Callable | None = None,
             count_of: Callable | None = None) -> Callable:
        """A wrapper that records one span per call of ``func``.

        ``request_of(args)`` names the request id of the call; ``count_of(args,
        result)`` gives its work count.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if request_of is not None:
                request = request_of(args)
            else:
                request = parent[1] if parent else None
            span_id = next(tracer._ids)
            stack.append((span_id, request))
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            count = count_of(args, result) if count_of is not None else 0
            tracer.spans.append(Span(span_id, name, start, end,
                                     parent[0] if parent else None, request, count))
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` and every other reference to the same function
        object held by a loaded ``adctr`` module (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, **kw)
        prefix = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **kw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for s in self.spans:
                fh.write(f"{s.id}\t{s.name}\t{s.start!r}\t{s.end!r}\t"
                         f"{'' if s.parent is None else s.parent}\t"
                         f"{'' if s.request is None else s.request}\t{s.count}\n")


def read_spans(path) -> list[Span]:
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            sid, name, start, end, parent, request, count = line.rstrip("\n").split("\t")
            spans.append(Span(int(sid), name, float(start), float(end),
                              int(parent) if parent else None, request or None, int(count)))
    return spans


class SpanIndex:
    """Spans grouped by name, with child lists and self times."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)
        for lst in self.by_name.values():
            lst.sort(key=lambda s: s.start)
        for lst in self.children.values():
            lst.sort(key=lambda s: s.start)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_time(self, span: Span) -> float:
        """Duration minus the part covered by the span's direct children."""
        return span.duration - sum(c.duration for c in self.children.get(span.id, ()))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def parent_name(self, span: Span) -> str | None:
        parent = self.by_id.get(span.parent) if span.parent is not None else None
        return parent.name if parent else None
