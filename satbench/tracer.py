"""In-memory spans around the program's layer entry points.

The traced run (``--trace 1``) replaces selected functions and methods of
the program with wrappers, from the benchmark's own files, that record a
span per call: name, phase, start, end, the span that was open when it
started, and a few tags. Nothing is written out while the workload runs;
the workload aggregates the spans into per-layer metrics at the end.
End-to-end metrics always come from an untraced run.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    sid: int
    parent: int
    name: str
    phase: str
    start: float
    end: float
    tags: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "satbench_span", default=-1
        )
        self._children: Optional[Dict[int, List[Span]]] = None

    def wrap(self, owner, attr: str, name: str, tag=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, tag, after))

    def traced(
        self,
        original: Callable,
        name: str,
        tag: Optional[Callable[..., dict]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``original`` with a span recorded around every call.

        ``tag(*args, **kwargs)`` returns the span's tags at entry;
        ``after(tags, result, *args, **kwargs)`` may add to them at exit.
        """
        tracer = self

        def _open(args, kwargs):
            tags = tag(*args, **kwargs) if tag is not None else {}
            sid = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            return sid, parent, token, tags, tracer.phase, time.perf_counter()

        def _close(opened, result, args, kwargs):
            sid, parent, token, tags, phase, start = opened
            end = time.perf_counter()
            tracer._current.reset(token)
            if after is not None:
                after(tags, result, *args, **kwargs)
            tracer.spans.append(Span(sid, parent, name, phase, start, end, tags))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                opened = _open(args, kwargs)
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    _close(opened, result, args, kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                opened = _open(args, kwargs)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    _close(opened, result, args, kwargs)

        return wrapper

    # -- queries over the recorded spans --------------------------------------

    def select(self, name: str, phase: Optional[str] = None, **tags) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name
            and (phase is None or s.phase == phase)
            and all(s.tags.get(k) == v for k, v in tags.items())
        ]

    def children(self, span: Span) -> List[Span]:
        if self._children is None:
            self._children = {}
            for s in self.spans:
                self._children.setdefault(s.parent, []).append(s)
        return self._children.get(span.sid, [])

    def child_seconds(self, span: Span, name: str) -> float:
        return sum(c.seconds for c in self.children(span) if c.name == name)
