"""Boundary tracing for the benchmark: wrappers around pcqa's public functions.

A `Tracer` replaces each traced function, in every loaded `pcqa` module that
holds it under a module-level name, by a wrapper that records one span
(name, start, end, parent, run id, attributes). Class methods are wrapped on
the class object. Spans stay in memory; `uninstall` restores every original
binding and `write_jsonl` writes the spans out when the run ends.

Nothing under `src/` is edited: the wrappers live only in this process and
only between `install` and `uninstall`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


# attrs(args, kwargs, result) -> dict of span attributes (counts, labels)
AttrFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records nested spans around wrapped callables of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, args: tuple, kwargs: dict, attrs: AttrFn | None):
        span = Span(len(self.spans), name, 0, 0,
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def wrapper(self, name: str, fn, attrs: AttrFn | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)
        return traced

    # -- installation --------------------------------------------------------

    def wrap_function(self, module, attr: str, name: str, attrs: AttrFn | None = None,
                      adapt: Callable | None = None):
        """Wrap `module.attr` and every other module-level binding of the same
        function object in loaded `pcqa` modules (names imported by value).

        `adapt(original)` may return the callable to time in place of the
        original, for counts that only the arguments' callbacks can see."""
        original = getattr(module, attr)
        traced = self.wrapper(name, adapt(original) if adapt else original, attrs)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("pcqa"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str, attrs: AttrFn | None = None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrapper(name, original, attrs))

    def uninstall(self) -> None:
        """Restore every binding replaced by this tracer, newest first."""
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, stream) -> None:
        """One JSON object per span on the text stream."""
        for s in self.spans:
            stream.write(json.dumps({
                "run": self.run_id, "id": s.id, "name": s.name,
                "start_ns": s.start_ns, "end_ns": s.end_ns,
                "parent": s.parent, "attrs": s.attrs,
            }, sort_keys=True) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the part of its interval that its direct
    children cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration_ns - covered)
    return out


def root_of(spans: list[Span], span: Span) -> Span:
    while span.parent is not None:
        span = spans[span.parent]
    return span
