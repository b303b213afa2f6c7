"""In-memory span recording around the program's public functions.

The tracer replaces a function object by a timing wrapper at every module
attribute of the ``epicast`` package that holds it, so calls made through a
module (``neuralnet.fit_network``) and names imported into another module
(``ewnet.modwt_forward``) are both seen. Nothing in the program changes:
``Tracer.uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - _covered(kids) for span, kids in zip(spans, children)]


def within(spans: list[Span], index: int, ancestor_name: str) -> bool:
    """True when some ancestor of ``spans[index]`` is named ``ancestor_name``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor_name:
            return True
        parent = spans[parent].parent
    return False


class Tracer:
    """Records spans (name, start, end, parent) for the functions it wraps.

    ``hooks`` maps a span name to ``hook(bound_arguments, result) -> dict``;
    the returned dict becomes the span's attributes (counts measured at the
    call boundary).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name=name, start=self.clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, error: bool = False) -> None:
        self.spans[index].end = self.clock()
        self.spans[index].error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, fn, name: str, hook=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, error=True)
                raise
            self.close(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].attrs = hook(bound.arguments, result)
            return result

        return traced

    def install(self, targets: dict, hooks: dict | None = None,
                package: str = "epicast") -> None:
        """Wrap each ``targets[span_name] = function`` at every site that holds it."""
        hooks = hooks or {}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, fn in targets.items():
            wrapped = self.wrap(fn, name, hooks.get(name))
            sites = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapped)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"{name}: no module holds the function to wrap")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []

    def to_json(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self_s": st, "error": s.error, **({"attrs": s.attrs} if s.attrs else {})}
                for s, st in zip(self.spans, selfs)]
